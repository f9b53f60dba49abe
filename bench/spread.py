"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload mc_exact --seeds 0-9 [--trace 0] [--record FILE]

For every metric: the median of the runs, the quartiles from
`statistics.quantiles(values, n=4)`, and the distance between them as a share
of the median, next to the bound BENCHMARK.json fixes for it.  `--record`
appends each run's environment stamp and result line to FILE (JSON lines).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    status = 0
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        env = json.loads(lines[0].removeprefix("env "))
        if args.record is not None:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, "env": env, "result": result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        first = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
        took = time.monotonic() - start
        print(f"seed {seed}: {took:.0f} s, correct={result['correct']} {first}", flush=True)
    print(f"{'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<38} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound if bound is not None else '':>6}")
    return status


if __name__ == "__main__":
    sys.exit(main())
