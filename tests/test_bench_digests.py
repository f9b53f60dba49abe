"""The benchmark workloads' seed-0 CSVs keep the sha256 digests that
`bench/digests.json` records, at one and at two worker processes.  The
benchmark checks the same digests on every run; this runs them in the
suite.  The seed-0 aggregate JSONs keep the digests recorded below, so the
averages stay byte-identical too; both digests are read from the same run.
Reads `bench/`, writes only under the test's temporary directory."""

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


RUNS = [(workload, jobs) for workload in sorted(DIGESTS) for jobs in ("1", "2")]


@pytest.fixture(scope="module", params=RUNS, ids=[f"{w}-{j}" for w, j in RUNS])
def seed_0_run(request, tmp_path_factory) -> tuple[str, Path]:
    """One seed-0 experiment per workload and job count, whose CSV and JSON
    both tests check: (workload, output directory)."""
    workload, jobs = request.param
    config = BENCH / "workloads" / f"{workload}.json"
    out = tmp_path_factory.mktemp(f"{workload}-{jobs}")
    args = ["experiment", "--config", str(config), "--seed", "0", "--jobs", jobs]
    assert main([*args, "--out", str(out)]) == 0
    return workload, out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_workload_csv_matches_its_recorded_digest(seed_0_run):
    workload, out = seed_0_run
    (csv,) = out.glob("experiment_*.csv")
    assert sha256(csv) == DIGESTS[workload]


def test_workload_json_matches_its_recorded_digest(seed_0_run):
    workload, out = seed_0_run
    (doc,) = out.glob("experiment_*.json")
    assert sha256(doc) == JSON_DIGESTS[workload]
