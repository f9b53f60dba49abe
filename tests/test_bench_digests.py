"""The benchmark workloads' seed-0 CSVs keep the sha256 digests that
`bench/digests.json` records, at one and at two worker processes.  The
benchmark checks the same digests on every run; this runs them in the
suite.  Reads `bench/`, writes only under the test's temporary directory."""

import hashlib
import json
from pathlib import Path

import pytest

from mmwassoc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_csv_matches_its_recorded_digest(workload, jobs, tmp_path, capsys):
    config = BENCH / "workloads" / f"{workload}.json"
    args = ["experiment", "--config", str(config), "--seed", "0", "--jobs", jobs]
    assert main([*args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (csv,) = tmp_path.glob("experiment_*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIGESTS[workload]
