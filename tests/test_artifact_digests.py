"""Artifacts that `tests/test_bench_digests.py` does not cover keep the
sha256 digests recorded below: the solve outputs and stdout of
`solve --exact --trace`, the stdout of `verify` at two seeds, and two
experiments whose assignment spaces send the exact oracle to
branch-and-bound, at one and at two worker processes: three co-located APs
(3^14 assignments), and five APs 0.3 radii apart, where 6 of the 30 clients
reach one AP only and the search forces them.  Manifests are not
pinned: they hold the output directory.  Writes only under the test's
temporary directory."""

import hashlib
from pathlib import Path

import pytest

from mmwassoc.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

SOLVE_DIGESTS = {
    "solve": "b2198391b84c341a3b07aa0244cce1893e23bfa8dab09473a3b409ddab1172a6",
    "trace": "9eeb581f4de4330ddf1b4e361869961fe03f5e8e03e364c79418267131a5eee5",
    "stdout": "595092cd4c38c1591a1edc657949d8c394db87189d6044910da23f18c040f7da",
}
VERIFY_STDOUT_DIGESTS = {
    "0": "86a6d4114440296c938afd090a1041deb2a3a11b64fb67eb500be097e157b185",
    "5": "c9ecd1199fd9a6a8b6ff2071f4ab016191a1b0831bbc936217809a214640ef98",
}
BB_DIGESTS = {
    "csv": "79f2695e0c4a588194af4e2df362299658437594ddc68c6baed2c4f98a45b055",
    "json": "b29be87d34d90ae1ec4cbfe20df0bb1c6980d607fb4262b403b698a66c56c743",
}
BB_FIVE_APS_DIGESTS = {
    "csv": "d81561d0a646f38a771145926158993338f363c517bd2427864c33e2ccc0f702",
    "json": "6c9db261ccd5a54022c0d81517e5668f85e5f78f0817958ef731941408085106",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_solve_exact_trace_keeps_its_digests(tmp_path, monkeypatch, capsys):
    # solve's config hash holds the instance path as given: run it relative to the repo
    monkeypatch.chdir(ROOT)
    args = ["solve", "tests/fixtures/chain_three_cells.json", "--exact", "--trace"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    (solution,) = tmp_path.glob("solve_*.json")
    (trace,) = tmp_path.glob("trace_*.csv")
    digests = {
        "solve": sha256(solution.read_bytes()),
        "trace": sha256(trace.read_bytes()),
        "stdout": sha256(capsys.readouterr().out.encode()),
    }
    assert digests == SOLVE_DIGESTS


@pytest.mark.parametrize("seed", sorted(VERIFY_STDOUT_DIGESTS))
def test_verify_stdout_keeps_its_digest(seed, tmp_path, capsys):
    assert main(["verify", "--seed", seed, "--out", str(tmp_path)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VERIFY_STDOUT_DIGESTS[seed]


def experiment_digests(config: str, jobs: str, out: Path, capsys) -> dict[str, str]:
    """Digests of the CSV and aggregate JSON of one fixture's experiment."""
    args = ["experiment", "--config", str(FIXTURES / config), "--jobs", jobs]
    assert main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    (csv,) = out.glob("experiment_*.csv")
    (doc,) = out.glob("experiment_*.json")
    return {"csv": sha256(csv.read_bytes()), "json": sha256(doc.read_bytes())}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_branch_and_bound_experiment_keeps_its_digests(jobs, tmp_path, capsys):
    assert experiment_digests("bb_three_aps.json", jobs, tmp_path, capsys) == BB_DIGESTS


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_branch_and_bound_with_forced_clients_keeps_its_digests(jobs, tmp_path, capsys):
    # one slot branches 12,821 nodes; in the others the warm start meets the LP bound
    digests = experiment_digests("bb_five_aps.json", jobs, tmp_path, capsys)
    assert digests == BB_FIVE_APS_DIGESTS
