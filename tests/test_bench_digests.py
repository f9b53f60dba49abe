"""The benchmark workloads' seed-0 CSVs keep the sha256 digests that
`bench/digests.json` records, at one and at two worker processes.  The
benchmark checks the same digests on every run; this runs them in the
suite.  The seed-0 aggregate JSONs keep the digests recorded below, so the
averages stay byte-identical too.  Reads `bench/`, writes only under the
test's temporary directory."""

import hashlib
import json
from pathlib import Path

import pytest

from mmwassoc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text())
# sha256 of experiment_<hash>.json: mc_exact sets every ave_* key, mc_default
# has infeasible slots and no oracle, so its exact keys are null
JSON_DIGESTS = {
    "mc_default": "82665a114bcedf604c832ae9d6711677c23d3c98b7ef3e5bd50afd7cc44e7f24",
    "mc_exact": "33bd37846aac1bb9225778f9a75aa1440e2504734284fca4aee5ff5d7c659ffe",
}


def run_seed_0(workload: str, jobs: str, out: Path, capsys) -> Path:
    """Run the workload's experiment at seed 0 into `out` and return `out`."""
    config = BENCH / "workloads" / f"{workload}.json"
    args = ["experiment", "--config", str(config), "--seed", "0", "--jobs", jobs]
    assert main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_csv_matches_its_recorded_digest(workload, jobs, tmp_path, capsys):
    (csv,) = run_seed_0(workload, jobs, tmp_path, capsys).glob("experiment_*.csv")
    assert sha256(csv) == DIGESTS[workload]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(JSON_DIGESTS))
def test_workload_json_matches_its_recorded_digest(workload, jobs, tmp_path, capsys):
    (doc,) = run_seed_0(workload, jobs, tmp_path, capsys).glob("experiment_*.json")
    assert sha256(doc) == JSON_DIGESTS[workload]
