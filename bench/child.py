"""One benchmark process: `mmwassoc experiment` for a list of experiments.

    python3 bench/child.py SPEC.json RESULT.json SPAWN_TIME

SPAWN_TIME is the parent's wall clock just before the spawn.  The spec
(written by run.py) names the checkout root, the `--jobs` value,
whether to trace, and the experiments as (config file, seed, output directory).  Each
experiment goes through the real CLI path, `mmwassoc.cli.main`.

An untraced process hooks two calls only: the return of
`sim.generate_topology`, which ends set-up and starts the slot phase, and,
with `--jobs 1`, `sim.run_slot` for per-slot latency.  A traced process also
installs `tracer.Tracer` around every layer boundary.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path


def run(spec: dict, spawn_time: float) -> dict:
    src = (Path(spec["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    from mmwassoc import cli, dual_solver, exact, sim

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mmwassoc was imported from {cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, sim, dual_solver, exact)

    topology_done: list[tuple[float, float]] = []  # (wall, perf) at each return
    latencies: list[float] = []
    generate_topology, run_slot = sim.generate_topology, sim.run_slot

    def timed_topology(*args, **kwargs):
        topo = generate_topology(*args, **kwargs)
        topology_done.append((time.time(), time.perf_counter()))
        return topo

    def timed_slot(*args, **kwargs):
        t0 = time.perf_counter()
        result = run_slot(*args, **kwargs)
        latencies.append(time.perf_counter() - t0)
        return result

    sim.generate_topology = timed_topology
    if spec["jobs"] == 1:
        sim.run_slot = timed_slot

    records = []
    try:
        for index, exp in enumerate(spec["experiments"]):
            if tracer is not None:
                tracer.experiment = index
            out = Path(exp["out"])
            argv = [
                "experiment",
                "--config", exp["config"],
                "--seed", str(exp["seed"]),
                "--jobs", str(spec["jobs"]),
                "--out", str(out),
            ]
            topologies, first_latency = len(topology_done), len(latencies)
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            end = time.perf_counter()
            csvs = sorted(out.glob("experiment_*.csv"))
            ok = rc == 0 and len(topology_done) == topologies + 1 and len(csvs) == 1
            records.append(
                {
                    "seed": exp["seed"],
                    "rc": rc,
                    "csv": str(csvs[0]) if ok else None,
                    "slot_phase_s": end - topology_done[-1][1] if ok else None,
                    "latencies_s": latencies[first_latency:],
                }
            )
    finally:
        sim.generate_topology, sim.run_slot = generate_topology, run_slot
        if tracer is not None:
            tracer.restore()

    result = {
        "setup_s": topology_done[0][0] - spawn_time if topology_done else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "experiments": records,
    }
    if tracer is not None:
        tracer.write(Path(spec["spans_out"]))
        result["layers"] = tracer.summary()
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path, spawn_time = argv
    result = run(json.loads(Path(spec_path).read_text()), float(spawn_time))
    Path(result_path).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
