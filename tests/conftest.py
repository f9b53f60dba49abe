import pytest

from mmwassoc import sim


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replace the harness's process pool with a serial stand-in and return
    the list of `max_workers` values it was asked for.  No process starts, so
    tests may pass any `jobs` value."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    return sizes
