"""mmwassoc benchmark: Monte Carlo experiments through the real CLI path.

    python3 bench/run.py --workload mc_default --seed 0 --seconds 50 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Each workload is an experiment-config file in
`bench/workloads/`, read by the program's own parser.  The seed picks the
experiment seeds: experiment i of bench seed s runs with `--seed
s*SEED_STRIDE + i`, so every seed gives its own topologies, fading and
demands, and bench seed 0 starts at the README's seed 0.

A run starts rounds while the next one should end within `--seconds`, and
runs at least the workload's minimum, so that the --jobs 1 processes time at least 200 slots
and the tail percentile is p95 on every run.  Round r always holds the same
experiments, so a seed fixes the inputs and a faster program measures more
of them.  A round is two fresh processes (`child.py`) that run the same
experiments, one with `--jobs 1` and one with `--jobs 2`, so both see the
same machine.  A run covers many short experiments, hence many topologies:
the cost of a slot depends on its topology, and one topology per run would
make the figures depend on the seed more than on the code.

The reference digests in digests.json are the sha256 of
`mmwassoc experiment --config bench/workloads/<name>.json --seed 0`'s CSV.

End-to-end metrics (`--trace 0`), each from untraced processes:
  slots_per_s        slots / wall time of the slot phases of the --jobs 1
                     experiments, a slot phase running from the return of
                     sim.generate_topology to the return of cli.main
  slots_per_s_2proc  the same with --jobs 2, pool start-up included
  slot_p50_ms        median sim.run_slot latency of each --jobs 1 process,
                     averaged over the processes: the host's speed swings
                     between two levels for seconds at a time, and the median
                     of one pooled sample jumps between them, while the
                     average of per-process medians moves smoothly
  slot_tail_ms       p95 latency of the --jobs 1 slots (p90 or p75 when a
                     short run leaves fewer than ten samples beyond p95;
                     the output names it)
  setup_s            median over processes of the time from spawning the
                     process to the first return of sim.generate_topology
  peak_rss_mb        peak RSS of the --jobs 1 processes (the largest)
The table also prints failed_frac, which the JSON line carries as
`failed`/`attempted`.  Metric names and units are those of BENCHMARK.json.

Per-layer metrics (`--trace 1`) come from one more, traced `--jobs 1` process
over the first round's experiments (see tracer.py), run right after the
untraced one; its CSVs must equal the untraced ones byte for byte.

Correctness, checked on every run: cli.main returns 0; the --jobs 1,
--jobs 2 and traced CSVs are byte-identical; every feasible slot has
d_star <= p_daa, and where the exact oracle ran d_star <= p_relax <= p_exact
<= p_daa and p_exact - p_relax <= gap_bound, each within 1e-9; and one
untraced experiment at the default seed reproduces the CSV digest recorded in
digests.json.  A failing slot, or every slot of a failing experiment, counts
in `failed`, and the command exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_STRIDE = 100_000
DEFAULT_SEED = 0
TOL = 1e-9
DEADLINE_S = 170.0  # whole run, so that it ends within three minutes
# p95 first: every full run times at least 200 slots, so p95 keeps ten
# samples beyond it, and a higher rung would switch percentile with the run's
# length; the lower rungs serve short self-test runs
TAIL_LADDER = (95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Workload:
    experiments: int  # per process, i.e. per round
    min_rounds: int  # rounds * experiments * slots >= 200


# The two workloads load different layers (shares from a traced run):
# mc_default is the README operating point, where the dual solver takes ~90%
# of a slot; on mc_exact three co-located APs make every client see every AP,
# so the forced exact oracle enumerates all 3^12 assignments each slot (~85%
# of a slot) at a cost that varies little between topologies.
WORKLOADS = {
    "mc_default": Workload(experiments=5, min_rounds=2),
    "mc_exact": Workload(experiments=10, min_rounds=5),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, slots: int, problem: str) -> None:
        self.failed += slots
        self.problems.append(problem)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slots", type=int, default=None,
        help="override the slots per experiment (self-test only)",
    )
    parser.add_argument(
        "--digests", type=Path, default=BENCH / "digests.json",
        help="reference CSV digests at the default seed",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.slots is not None and args.slots < 1:
        parser.error("--slots must be positive")
    return args


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_stamp() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0 or status.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


class Runner:
    """Spawns child processes inside one work directory, under one deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, experiments: list[dict], jobs: int, trace: bool = False) -> dict:
        self.count += 1
        tag = f"c{self.count:03d}"
        spec_path = self.work / f"{tag}.spec.json"
        result_path = self.work / f"{tag}.result.json"
        stderr_path = self.work / f"{tag}.stderr.txt"
        spec = {
            "root": str(ROOT),
            "jobs": jobs,
            "trace": trace,
            "spans_out": str(self.work / "spans.json"),
            "experiments": experiments,
        }
        spec_path.write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run deadline passed before all processes ran")
        with open(stderr_path, "w") as err:
            # a session of its own, so that a timeout also ends the --jobs 2 pool
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path), repr(time.time())],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise HarnessError(f"process {tag} overran the run deadline") from exc
        if proc.returncode != 0 or not result_path.is_file():
            tail = stderr_path.read_text()[-2000:]
            raise HarnessError(f"process {tag} exited with {proc.returncode}:\n{tail}")
        return json.loads(result_path.read_text())


def experiment_list(config: Path, seeds: list[int], out: Path) -> list[dict]:
    return [
        {"config": str(config), "seed": seed, "out": str(out / f"seed{seed}")}
        for seed in seeds
    ]


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ValueError("missing config_hash line")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        values = line.split(",")
        if len(values) != len(header):
            raise ValueError(f"row with {len(values)} fields, header has {len(header)}")
        rows.append(dict(zip(header, values)))
    return rows


def row_problem(row: dict) -> str | None:
    """First violated invariant of one CSV row, or None."""
    if row["feasible"] == "0":
        return None
    if row["feasible"] != "1":
        return f"feasible={row['feasible']!r}"
    num = {k: float(v) for k, v in row.items() if v != ""}
    for key in ("p_daa", "d_star", "gap_bound"):
        if not math.isfinite(num.get(key, math.nan)):
            return f"{key} not finite"
    if not num["d_star"] <= num["p_daa"] + TOL:
        return f"d_star {num['d_star']!r} > p_daa {num['p_daa']!r}"
    if "p_exact" not in num:  # the exact oracle did not run on this slot
        return None
    chain = ("d_star", "p_relax", "p_exact", "p_daa")
    for lo, hi in zip(chain, chain[1:]):
        if not num[lo] <= num[hi] + TOL:
            return f"{lo} {num[lo]!r} > {hi} {num[hi]!r}"
    if not num["p_exact"] - num["p_relax"] <= num["gap_bound"] + TOL:
        return "p_exact - p_relax exceeds gap_bound"
    return None


def check_child(result: dict, slots: int, tally: Tally, label: str) -> list[bytes | None]:
    """Count and check every slot of one process; returns each CSV's bytes."""
    texts: list[bytes | None] = []
    for rec in result["experiments"]:
        tally.attempted += slots
        where = f"{label} seed {rec['seed']}"
        if rec["csv"] is None:
            tally.fail(slots, f"{where}: cli.main returned {rec['rc']} or wrote no CSV")
            texts.append(None)
            continue
        data = Path(rec["csv"]).read_bytes()
        texts.append(data)
        try:
            rows = parse_csv(data.decode())
        except ValueError as exc:
            tally.fail(slots, f"{where}: unreadable CSV ({exc})")
            continue
        if [r["slot"] for r in rows] != [str(t) for t in range(slots)]:
            tally.fail(slots, f"{where}: expected slots 0..{slots - 1}")
            continue
        for row in rows:
            try:
                problem = row_problem(row)
            except ValueError as exc:
                problem = f"unreadable value ({exc})"
            if problem is not None:
                tally.fail(1, f"{where} slot {row['slot']}: {problem}")
    return texts


def compare(texts: list, reference: list, slots: int, tally: Tally, label: str) -> None:
    for a, b in zip(texts, reference):
        if a is not None and b is not None and a != b:
            tally.fail(slots, f"{label} CSV differs from the --jobs 1 CSV")


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder percentile
    with at least ten samples beyond it; p50 when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        idx = math.ceil(q / 100.0 * n) - 1
        if n - 1 - idx >= 10:
            return q, ordered[idx], n - 1 - idx
    idx = max(0, math.ceil(0.5 * n) - 1)
    return 50.0, ordered[idx], n - 1 - idx


def end_to_end(rounds: list[tuple[dict, dict]], slots: int) -> tuple[dict, str]:
    j1 = [r for r, _ in rounds]
    j2 = [r for _, r in rounds]

    def throughput(children):
        phases = [e["slot_phase_s"] for c in children for e in c["experiments"] if e["csv"]]
        if not phases:
            raise HarnessError("no experiment completed, so nothing was timed")
        return slots * len(phases) / sum(phases)

    per_process = [[s for e in c["experiments"] for s in e["latencies_s"]] for c in j1]
    latencies = [s for samples in per_process for s in samples]
    q, tail, beyond = tail_percentile(latencies)
    metrics = {
        "slots_per_s": throughput(j1),
        "slots_per_s_2proc": throughput(j2),
        "slot_p50_ms": 1e3 * statistics.fmean(statistics.median(s) for s in per_process if s),
        "slot_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(c["setup_s"] for c in j1 + j2 if c["setup_s"] is not None),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in j1),
    }
    note = f"slot_tail_ms is p{q:g} of {len(latencies)} slot latencies ({beyond} beyond it)"
    return metrics, note


def per_layer(traced: dict, untraced_round0: dict, e2e: dict, slots: int, csv_rows: list[dict]) -> dict:
    spans = traced["layers"]["spans"]
    counters = traced["layers"]["counters"]
    experiments = len(traced["experiments"])
    n_slots = experiments * slots

    def span(name, field="total_s"):
        return spans.get(name, {}).get(field, 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def info(name, key):
        return spans.get(name, {}).get("info", {}).get(key, 0)

    def counter(name, field):
        return counters.get(name, {}).get(field, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    infeasible = spans.get("instance.build_instance", {}).get("errors", {}).get("InfeasibleClientError", 0)
    built = calls("instance.build_instance") - infeasible
    iterations = info("dual_solver.run_daa", "iterations")
    daa_s = span("dual_solver.run_daa")
    proj_calls, proj_s = counter("dual_solver.project_simplex", "calls"), counter("dual_solver.project_simplex", "total_s")
    channel = ("channel.compute_gain", "channel.compute_rate")
    feasible = [r for r in csv_rows if r["feasible"] == "1"]
    gaps = [
        (float(r["p_daa"]) - float(r["d_star"])) / float(r["p_daa"])
        for r in feasible if float(r["p_daa"]) > 0
    ]
    both = [
        (a["slot_phase_s"], b["slot_phase_s"])
        for a, b in zip(traced["experiments"], untraced_round0["experiments"])
        if a["csv"] and b["csv"]
    ]
    traced_phase = sum(a for a, _ in both)
    untraced_phase = sum(b for _, b in both)
    per_slot_ms = lambda seconds: 1e3 * seconds / n_slots  # noqa: E731
    return {
        "channel.calls_per_slot": sum(counter(c, "calls") for c in channel) / n_slots,
        "channel.ms_per_slot": per_slot_ms(sum(counter(c, "total_s") for c in channel)),
        "instance.build_ms_per_slot": per_slot_ms(span("instance.build_instance")),
        "instance.pair_arrays_ms_per_slot": per_slot_ms(span("instance.pair_arrays")),
        "instance.pairs_offered_per_slot": info("instance.build_instance", "offered") / n_slots,
        "instance.pairs_kept_per_slot": info("instance.build_instance", "kept") / built if built else 0.0,
        "instance.infeasible_slots": infeasible,
        "dual_solver.ms_per_slot": per_slot_ms(daa_s),
        "dual_solver.iterations": iterations,
        "dual_solver.iter_us": 1e6 * daa_s / iterations if iterations else 0.0,
        "dual_solver.projection_us": 1e6 * proj_s / proj_calls if proj_calls else 0.0,
        "dual_solver.sweep_us": 1e6 * (daa_s - proj_s) / iterations if iterations else 0.0,
        "dual_solver.certificates_ms_per_slot": per_slot_ms(span("dual_solver.duality_gap_bound")),
        "dual_solver.mean_rel_gap": statistics.fmean(gaps) if gaps else 0.0,
        "exact.lp_ms_per_slot": per_slot_ms(span("exact.solve_lp_relaxation")),
        "exact.lp_pivots": info("exact.solve_lp_relaxation", "pivots"),
        "exact.lp_pivots_per_s": rate(info("exact.solve_lp_relaxation", "pivots"), span("exact.solve_lp_relaxation")),
        "exact.milp_ms_per_slot": per_slot_ms(span("exact.solve_milp_exact")),
        "exact.bb_calls": calls("exact.branch_and_bound"),
        "exact.bb_nodes": info("exact.branch_and_bound", "nodes"),
        "exact.bb_nodes_per_s": rate(info("exact.branch_and_bound", "nodes"), span("exact.branch_and_bound")),
        "exact.enum_calls": calls("exact.enumerate_assignments"),
        "exact.enum_assignments": info("exact.enumerate_assignments", "assignments"),
        "exact.enum_assignments_per_s": rate(info("exact.enumerate_assignments", "assignments"), span("exact.enumerate_assignments")),
        "policies.ms_per_slot": per_slot_ms(
            sum(span(f"policies.{p}") for p in ("random_policy", "rssi_policy", "jain_index"))
        ),
        "sim.topology_ms": 1e3 * span("sim.generate_topology") / experiments,
        "sim.slot_self_ms": per_slot_ms(span("sim.run_slot", "self_s")),
        "sim.feasible_frac": len(feasible) / len(csv_rows) if csv_rows else 0.0,
        "sim.parallel_efficiency": e2e["slots_per_s_2proc"] / (2.0 * e2e["slots_per_s"]),
        "cli.write_ms": 1e3 * (span("cli.cmd_experiment") - span("sim.run_experiment")) / experiments,
        "bench.trace_overhead_frac": traced_phase / untraced_phase - 1.0 if both else 0.0,
    }


def workload_config(name: str, slots: int | None, work: Path) -> tuple[Path, dict]:
    path = BENCH / "workloads" / f"{name}.json"
    doc = json.loads(path.read_text())
    if slots is not None:
        doc["slots"] = slots
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return path, doc


def run(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list[str], dict]:
    if not (ROOT / "src" / "mmwassoc" / "cli.py").is_file():
        raise HarnessError(f"no mmwassoc sources under {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    config, doc = workload_config(args.workload, args.slots, work)
    slots = int(doc["slots"])
    tally = Tally()
    start = time.monotonic()
    base = args.seed * SEED_STRIDE
    env = {"loadavg_start": read_loadavg()}

    timed: list[tuple[dict, dict]] = []
    traced = None
    r, last = 0, 0.0  # rounds done, seconds the last one took
    while r < workload.min_rounds or time.monotonic() - start + last <= args.seconds:
        round_start = time.monotonic()
        seeds = [base + r * workload.experiments + i for i in range(workload.experiments)]
        j1 = runner.child(experiment_list(config, seeds, work / "jobs1"), jobs=1)
        texts1 = check_child(j1, slots, tally, "--jobs 1")
        if r == 0:
            texts_round0 = texts1
        if args.trace and r == 0:
            # right after the untraced process on the same experiments, so
            # that the overhead compares the two at the same machine speed
            traced = runner.child(experiment_list(config, seeds, work / "traced"), jobs=1, trace=True)
            traced_texts = check_child(traced, slots, tally, "traced")
            compare(traced_texts, texts1, slots, tally, "traced")
        j2 = runner.child(experiment_list(config, seeds, work / "jobs2"), jobs=2)
        compare(check_child(j2, slots, tally, "--jobs 2"), texts1, slots, tally, "--jobs 2")
        timed.append((j1, j2))
        r, last = r + 1, time.monotonic() - round_start

    # the committed config at the default seed, whatever --slots says
    expected = json.loads(args.digests.read_text())[args.workload]
    ref_config, ref_doc = workload_config(args.workload, None, work)
    reference = runner.child(experiment_list(ref_config, [DEFAULT_SEED], work / "reference"), jobs=1)
    (ref_text,) = check_child(reference, int(ref_doc["slots"]), tally, "reference")
    if ref_text is not None and hashlib.sha256(ref_text).hexdigest() != expected:
        tally.fail(int(ref_doc["slots"]), f"CSV at the default seed does not match its sha256 in {args.digests.name}")

    metrics, note = end_to_end(timed, slots)
    notes = [note]
    if traced is not None:
        rows = [row for t, u in zip(traced_texts, texts_round0) if t is not None and t == u for row in parse_csv(t.decode())]
        metrics = per_layer(traced, timed[0][0], metrics, slots, rows)
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
        shutil.copyfile(work / "spans.json", spans)
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    env.update(
        nproc=os.cpu_count(),
        python=timed[0][0]["python"],
        numpy=timed[0][0]["numpy"],
        **git_stamp(),
        loadavg_end=read_loadavg(),
        processes=runner.count,
        rounds=r,
        experiments_per_round=workload.experiments,
        slots_per_experiment=slots,
    )
    shutil.rmtree(work, ignore_errors=True)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    return result, metrics, [*notes, *tally.problems], env


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result, metrics, notes, env = run(args, deadline)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{'metric':<38} {'value':>16}  unit")
    for name, unit in units.items():
        print(f"{name:<38} {metrics[name]:>16.6g}  {unit}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<38} {failed_frac:>16.6g}  ratio  ({result['failed']} of {result['attempted']} slots)")
    shown = notes if len(notes) <= 30 else [*notes[:29], f"... and {len(notes) - 29} more"]
    for line in shown:
        print(f"# {line}")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
