"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that every workload, at two slots per experiment, passes every
correctness check and prints every metric that BENCHMARK.json names, with
and without tracing; that a wrong reference digest makes the command fail;
and that a directory without the program's sources makes it fail without
printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = ["bench/run.py", "--seed", "3", "--seconds", "1", "--slots", "2"]


def bench(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    failures: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            rc, lines = bench([*RUN, "--workload", workload, "--trace", str(trace)])
            if rc != 0 or not lines:
                failures.append(f"{label}: exit {rc}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} slots failed")
            if sorted(result["metrics"]) != sorted(names[trace]):
                failures.append(f"{label}: metrics {sorted(result['metrics'])}")
            table = {line.split()[0] for line in lines[:-1] if line.strip()}
            missing = [n for n in [*names[trace], "failed_frac"] if n not in table]
            if missing:
                failures.append(f"{label}: table lacks {missing}")
            print(f"{label}: ok ({result['attempted']} slots)")

    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    digests = json.loads((BENCH / "digests.json").read_text())
    digests["mc_default"] = "0" * 64
    wrong = scratch / "wrong_digests.json"
    wrong.write_text(json.dumps(digests))
    rc, lines = bench([*RUN, "--workload", "mc_default", "--digests", str(wrong)])
    if rc == 0 or json.loads(lines[-1])["correct"]:
        failures.append("a wrong reference digest passed")
    else:
        print("wrong digest: fails as it should")

    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = bench([*RUN, "--workload", "mc_default"], cwd=bare)
    if rc == 0 or lines:
        failures.append("a directory without sources did not fail silently")
    else:
        print("no sources: fails without a result")
    shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
