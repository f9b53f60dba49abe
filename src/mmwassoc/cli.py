"""Command-line front end: solve instances, run experiments/sweeps, verify.

Configs are flat JSON with units spelled out in the key names; one table maps
each key to the config or channel field it sets and to the reader of its
value, and absent keys keep the defaults of the Python API.  Output files are
named from the command and a hash of the resolved config, and every file
embeds that hash, so a results directory is self-describing and re-runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import InfeasibleRadiusError, dbm_per_mhz_to_mw_per_hz, default_params
from .dual_solver import convergence_bound, duality_gap_bound, run_daa, trace_csv_lines
from .exact import NodeBudgetExceeded, solve_lp_relaxation, solve_milp_exact
from .instance import (
    Instance,
    example1_instance,
    example2_instance,
    instance_from_beta,
    instance_from_json,
    instance_to_json,
    json_bool,
    json_int,
    json_number,
    json_object,
)
from .sim import (
    SWEEPABLE,
    ExperimentConfig,
    GeometryError,
    SlotResult,
    WorkerError,
    run_experiment,
    sweep,
)


def _exact_limit(value, key: str) -> float:
    """A finite number, or JSON Infinity for no size limit."""
    return value if value == math.inf else json_number(value, key)


def _density(value, key: str) -> float:
    """A dBm/MHz value in mW/Hz; a ValueError naming the key when it overflows."""
    dbm = json_number(value, key)
    try:
        return dbm_per_mhz_to_mw_per_hz(dbm)
    except OverflowError:
        raise ValueError(f"{key}={dbm!r} overflows as a density in mW/Hz") from None


# document key -> (field, reader): a field of ExperimentConfig, or of its
# ChannelParams after "channel."; the reader takes the JSON value and the key
CONFIG_KEYS = {
    "n_aps": ("n_aps", json_int),
    "n_clients": ("n_clients", json_int),
    "slots": ("slots", json_int),
    "daa_iters": ("daa_iters", json_int),
    "step_scale": ("step_scale", json_number),
    "seed": ("seed", json_int),
    "target_snr_db": ("target_snr_db", json_number),
    "ap_spacing_factor": ("ap_spacing_factor", json_number),
    "demand_max_bps": ("demand_max", json_number),
    "with_exact": ("with_exact", json_bool),
    "force_exact": ("force_exact", json_bool),
    "exact_limit": ("exact_limit", _exact_limit),
    "wavelength_m": ("channel.wavelength", json_number),
    "bandwidth_hz": ("channel.bandwidth", json_number),
    "ref_distance_m": ("channel.ref_distance", json_number),
    "path_loss_exp": ("channel.path_loss_exp", json_number),
    "tx_power_mw": ("channel.tx_power", json_number),
    "tx_gain": ("channel.tx_gain", json_number),
    "rx_gain": ("channel.rx_gain", json_number),
    "noise_dbm_per_mhz": ("channel.noise_density", _density),
    "interference_dbm_per_mhz": ("channel.interference_density", _density),
}


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def parse_experiment_config(doc) -> ExperimentConfig:
    doc = json_object(doc, "config", "n_aps", "n_clients", "slots")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        print(
            f"warning: ignoring unknown config keys {unknown}; "
            f"accepted keys are {sorted(CONFIG_KEYS)}",
            file=sys.stderr,
        )
    # given: field -> "key=value", for every channel field and every field
    # whose document key has another name
    config, channel, given = {}, {}, {}
    for key, value in doc.items():
        if key in CONFIG_KEYS:
            field, read = CONFIG_KEYS[key]
            owner, _, name = field.rpartition(".")
            (channel if owner else config)[name] = read(value, key)
            if owner or name != key:
                given[name] = f"{key}={value!r}"
    try:
        return ExperimentConfig(channel=replace(default_params(), **channel), **config)
    except InfeasibleRadiusError as exc:  # the cell derives from the link budget: name its keys
        link_budget = [given[name] for name in channel]
        keys = f" (from {', '.join(link_budget)})" if link_budget else ""
        raise ValueError(f"{exc}{keys}") from exc
    except ValueError as exc:  # an error starts with its field: name the key
        field = str(exc).partition(" ")[0]
        if field not in given:
            raise
        raise ValueError(f"{exc} (from {given[field]})") from exc


def _finite_or_text(literal: str) -> float | str:
    """A JSON number literal as a float, or as its text when it overflows
    (`1e400`), so that the number readers refuse it by key like NaN."""
    value = float(literal)
    return value if abs(value) < math.inf else literal


def _read_json(path: str | Path):
    """The JSON document in the file at `path`; any failure is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_finite_or_text)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def _make_parent(path: Path) -> Path:
    """Make the directory of output file `path` and return `path`; an OSError
    becomes a ValueError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file, or a path under one
        raise ValueError(f"cannot write {path}: {exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    """Write `text` to `path`, making its directory; an OSError becomes a ValueError naming it."""
    try:
        _make_parent(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(int(value) if isinstance(value, bool) else value)


def _write_manifest(out: Path, command: str, config_path: str, chash: str) -> None:
    manifest = {
        "config_path": config_path,
        "command": command,
        "output_dir": str(out),
        "tool_version": __version__,
        "config_hash": chash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    path = out / f"manifest_{command}_{chash}.json"
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_stale(out: Path, command: str, chash: str) -> None:
    for old in sorted(out.glob(f"manifest_{command}_*.json")):
        recorded = json_object(_read_json(old), str(old)).get("config_hash")
        if recorded != chash:
            raise ValueError(
                f"output directory {out} holds stale {command} results "
                f"(config hash {recorded}, current {chash}); use a fresh directory"
            )


def slots_csv(result) -> str:
    columns = [field.name for field in fields(SlotResult)]
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(r, col)) for col in columns) for r in result.slots]
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    inst = instance_from_json(_read_json(args.instance))

    resolved = {
        "command": "solve",
        "instance": str(args.instance),
        "iters": args.iters,
        "step_scale": args.step_scale,
    }
    chash = config_hash(resolved)
    try:
        report = run_daa(inst, max_iters=args.iters, step_scale=args.step_scale)
    except ValueError as exc:
        flags = f"--iters {args.iters} --step-scale {args.step_scale!r}"
        raise ValueError(f"solver failed at {flags}: {exc}") from exc
    solution = {
        "config_hash": chash,
        "assignment": list(report.assignment.ap_of_client),
        "p_best": report.primal_value,
        "g_best": report.dual_value,
        "gap_certificate": report.gap_certificate,
        "integrality_gap_bound": duality_gap_bound(inst),
        "iterations_run": report.iterations_run,
    }
    if args.exact:
        milp = solve_milp_exact(inst, warm_start=report.assignment)
        lp = solve_lp_relaxation(inst)
        solution["p_star"] = milp.optimal_value
        solution["p_relax"] = lp.optimal_value
    _write_text(args.out / f"solve_{chash}.json", json.dumps(solution, indent=2) + "\n")
    if args.trace:
        trace = "\n".join([f"# config_hash={chash}"] + trace_csv_lines(report)) + "\n"
        _write_text(args.out / f"trace_{chash}.csv", trace)
    _write_manifest(args.out, "solve", str(args.instance), chash)
    try:
        bound = convergence_bound(inst, args.step_scale, report.iterations_run)
    except OverflowError:  # the step's square: an a-priori bound of +inf
        bound = math.inf
    print(
        f"solved: p_best={report.primal_value!r} g_best={report.dual_value!r} "
        f"gap={report.gap_certificate!r} bound={bound!r}"
    )
    return 0


def _load_experiment_config(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    doc = _read_json(args.config)
    try:
        cfg = parse_experiment_config(doc)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}") from exc
    return cfg, asdict(cfg)


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg, resolved = _load_experiment_config(args)
    chash = config_hash({**resolved, "command": "experiment"})
    csv_path = _make_parent(args.out / f"experiment_{chash}.csv")  # a bad --out fails before a slot
    try:
        result = run_experiment(cfg, jobs=args.jobs)
    except (GeometryError, WorkerError, ValueError) as exc:  # InfeasibleClientError is a ValueError
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 1
    _write_text(csv_path, f"# config_hash={chash}\n" + slots_csv(result))
    agg = result.aggregates
    summary = {
        "config_hash": chash,
        "aggregates": agg,
        "infeasible_slots": agg["slots_infeasible"],
        # slots_with_exact is 0 with the oracle off: no slot was skipped
        "exact_skipped": agg["slots_feasible"] - agg["slots_with_exact"] if cfg.with_exact else 0,
    }
    _write_text(args.out / f"experiment_{chash}.json", json.dumps(summary, indent=2) + "\n")
    _write_manifest(args.out, "experiment", str(args.config), chash)
    print(f"{'metric':<16} value")
    for key, value in agg.items():
        print(f"{key:<16} {_fmt(value)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, resolved = _load_experiment_config(args)
    chash = config_hash({**resolved, "command": "sweep", "vary": args.vary, "values": args.values})
    csv_path = _make_parent(args.out / f"sweep_{chash}.csv")  # a bad --out fails before a cell runs
    rows = sweep(cfg, args.vary, args.values, jobs=args.jobs)
    columns = ["parameter", "value"] + sorted(
        {k for row in rows for k in row if k not in ("parameter", "value")}
    )
    lines = [f"# config_hash={chash}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    _write_text(csv_path, "\n".join(lines) + "\n")
    _write_manifest(args.out, "sweep", str(args.config), chash)
    for row in rows:
        status = row["error"] or f"p_daa={_fmt(row.get('p_daa'))}"
        print(f"{args.vary}={row['value']}: {status}")
    return 0


def _verify_checks(seed: int) -> list[tuple[str, bool, str, Instance]]:
    """Built-in fixture and random-instance checks.

    Fixtures are seed-independent; the random instances change with the seed.
    """
    checks: list[tuple[str, bool, str, Instance]] = []
    fixtures = [
        ("chain_m3", example1_instance(3, 0.5), 0.5),
        ("chain_m8", example1_instance(8, 0.5), 0.5),
        ("two_tier", example2_instance(2, 0.3, 2, 0.1), 0.5),
    ]
    for name, inst, expected in fixtures:
        milp = solve_milp_exact(inst)
        lp = solve_lp_relaxation(inst)
        report = run_daa(inst, max_iters=10_000, step_scale=1.0)
        ok = (
            abs(milp.optimal_value - expected) <= 1e-9
            and abs(milp.optimal_value - lp.optimal_value) <= 1e-9
            and abs(milp.optimal_value - report.dual_value) <= 1e-3
        )
        detail = (
            f"p_star={milp.optimal_value!r} p_relax={lp.optimal_value!r} "
            f"g_best={report.dual_value!r}"
        )
        checks.append((f"strong_duality_{name}", ok, detail, inst))
    rng = np.random.default_rng(seed)
    for idx in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(4, 11))
        beta = {}
        for j in range(m):
            cands = sorted(
                rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            )
            for i in cands:
                beta[(int(i), j)] = float(rng.uniform(0.01, 1.0))
        inst = instance_from_beta(n, m, beta)
        milp = solve_milp_exact(inst)
        lp = solve_lp_relaxation(inst)
        report = run_daa(inst, max_iters=3000, step_scale=1.0)
        gap = milp.optimal_value - lp.optimal_value
        bound = duality_gap_bound(inst)
        ok = (
            -1e-9 <= gap <= bound + 1e-9
            and report.dual_value <= milp.optimal_value + 1e-9
            and lp.optimal_value <= milp.optimal_value + 1e-9
        )
        detail = f"gap={gap!r} bound={bound!r}"
        checks.append((f"gap_certificate_random_{idx}", ok, detail, inst))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    chash = config_hash({"command": "verify", "seed": args.seed, "tool": __version__})
    _check_stale(args.out, "verify", chash)  # a missing --out globs no manifest
    checks = _verify_checks(args.seed)
    failed = [c for c in checks if not c[1]]
    for name, _ok, _detail, inst in failed:
        _write_text(
            args.out / f"failed_{name}_{chash}.json",
            json.dumps(instance_to_json(inst), indent=2) + "\n",
        )
    _write_manifest(args.out, "verify", "", chash)  # files first: a closed stdout loses none
    width = max(len(name) for name, *_ in checks)
    for name, ok, detail, _inst in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main reports a bad flag like any other bad input
        raise ValueError(message)


def _at_least(low: int):  # the reader of an integer flag >= low
    def integer(text: str) -> int:  # argparse names it: "invalid integer value: 'x'"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmwassoc",
        description="Min-max AP-utilization client association toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default="out")
    runs = argparse.ArgumentParser(add_help=False)  # the flags of experiment and sweep
    runs.add_argument("--config", required=True)
    runs.add_argument("--seed", type=_at_least(0), default=None)
    runs.add_argument("--jobs", type=_at_least(1), default=1)

    p_solve = sub.add_parser("solve", parents=[out], help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--iters", type=int, default=10_000)
    p_solve.add_argument("--step-scale", type=float, default=1.0)
    p_solve.add_argument("--trace", action="store_true", help="write per-iteration CSV")
    p_solve.add_argument("--exact", action="store_true", help="also run the exact oracles")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("experiment", parents=[runs, out], help="run a Monte Carlo experiment")
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep", parents=[runs, out], help="run one experiment per parameter value"
    )
    p_sweep.add_argument("--vary", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, type=_int_list, help="comma-separated integers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[out], help="run the built-in oracle/bound checks")
    p_verify.add_argument("--seed", type=_at_least(0), default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except ValueError as exc:  # bad input: a flag, a document, or an unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: the shell's status for SIGINT, no traceback
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # stdout closed, as by `| head`: the shell's status for SIGPIPE
        # the unwritten output stays buffered; send it to devnull so exit flushes quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
