"""Command-line front end: solve instances, run experiments/sweeps, verify.

Configs are flat JSON with units spelled out in the key names; dB/dBm values
are converted to linear quantities here and nowhere else.  Output files are
named from the command and a hash of the resolved config, and every file
embeds that hash, so a results directory is self-describing and re-runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelParams, InfeasibleRadiusError, cell_radius
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
from .sim import SWEEPABLE, ExperimentConfig, GeometryError, SlotResult, run_experiment, sweep

CHANNEL_KEYS = {
    "wavelength_m": "wavelength",
    "bandwidth_hz": "bandwidth",
    "ref_distance_m": "ref_distance",
    "path_loss_exp": "path_loss_exp",
    "tx_power_mw": "tx_power",
    "tx_gain": "tx_gain",
    "rx_gain": "rx_gain",
}
EXPERIMENT_KEYS = {
    "n_aps": json_int,
    "n_clients": json_int,
    "slots": json_int,
    "daa_iters": json_int,
    "step_scale": json_number,
    "seed": json_int,
    "target_snr_db": json_number,
    "ap_spacing_factor": json_number,
    "with_exact": json_bool,
    "force_exact": json_bool,
    "exact_limit": json_number,
}
ACCEPTED_KEYS = (
    set(CHANNEL_KEYS)
    | set(EXPERIMENT_KEYS)
    | {"demand_max_bps", "noise_dbm_per_mhz", "interference_dbm_per_mhz"}
)
# with target_snr_db, the keys the cell radius and the deployment's width derive from
DEPLOYMENT_KEYS = (
    "wavelength_m",
    "bandwidth_hz",
    "ref_distance_m",
    "path_loss_exp",
    "tx_power_mw",
    "noise_dbm_per_mhz",
    "ap_spacing_factor",
)


def dbm_per_mhz_to_mw_per_hz(dbm_per_mhz: float) -> float:
    return 10.0 ** (dbm_per_mhz / 10.0) / 1e6


def _density(key: str, dbm: float) -> float:
    """The dBm/MHz value of config key `key` in mW/Hz; a ValueError naming
    the key when the density overflows."""
    try:
        return dbm_per_mhz_to_mw_per_hz(dbm)
    except OverflowError:
        raise ValueError(f"{key}={dbm!r} overflows as a density in mW/Hz") from None


def _check_deployment(cfg: ExperimentConfig, values: dict) -> None:
    """Reject a config whose cell-edge SNR, edge rate B*log2(1 + snr), cell
    radius or deployment width is not a positive finite number, naming the
    keys it derives from."""
    db = cfg.target_snr_db
    try:
        target = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"target_snr_db={db!r} overflows as a linear SNR") from None
    if not cfg.channel.bandwidth * math.log2(1.0 + target) > 0.0:
        raise ValueError(f"target_snr_db={db!r} gives a cell-edge rate of 0 bit/s")
    given = ", ".join(f"{key}={values[key]!r}" for key in DEPLOYMENT_KEYS if key in values)
    given = f" (from {given})" if given else ""
    try:
        radius = cell_radius(cfg.channel, target)
    except InfeasibleRadiusError as exc:
        raise ValueError(f"target_snr_db={db!r} is out of reach: {exc}{given}") from exc
    except OverflowError:
        radius = math.inf
    # the width of the box clients are drawn from (sim.generate_topology)
    width = (cfg.n_aps - 1) * cfg.ap_spacing_factor * radius + 2.0 * radius
    if not width < math.inf:
        raise ValueError(
            f"the deployment of cell radius {radius!r} m at target_snr_db={db!r} "
            f"overflows{given}"
        )


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def parse_experiment_config(doc) -> ExperimentConfig:
    doc = json_object(doc, "config", "n_aps", "n_clients", "slots")
    unknown = sorted(set(doc) - ACCEPTED_KEYS)
    if unknown:
        print(
            f"warning: ignoring unknown config keys {unknown}; "
            f"accepted keys are {sorted(ACCEPTED_KEYS)}",
            file=sys.stderr,
        )
    values = {}
    for key, value in doc.items():
        if key == "exact_limit" and value == math.inf:  # JSON Infinity: no size limit
            values[key] = value
        elif key in ACCEPTED_KEYS:
            values[key] = EXPERIMENT_KEYS.get(key, json_number)(value, key)
    channel_kwargs = {
        "wavelength": 5e-3,
        "bandwidth": 1.2e9,
        **{attr: values[key] for key, attr in CHANNEL_KEYS.items() if key in values},
        "noise_density": _density("noise_dbm_per_mhz", values.get("noise_dbm_per_mhz", -134.0)),
    }
    if "interference_dbm_per_mhz" in values:
        channel_kwargs["interference_density"] = _density(
            "interference_dbm_per_mhz", values["interference_dbm_per_mhz"]
        )
    exp_kwargs = {key: values[key] for key in EXPERIMENT_KEYS if key in values}
    if "demand_max_bps" in values:
        exp_kwargs["demand_max"] = values["demand_max_bps"]
    cfg = ExperimentConfig(channel=ChannelParams(**channel_kwargs), **exp_kwargs)
    _check_deployment(cfg, values)
    return cfg


def _read_json(path: str | Path):
    """The JSON document in the file at `path`; any failure is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


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
    }
    path = out / f"manifest_{command}_{chash}.json"
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_stale(out: Path, command: str, chash: str) -> None:
    for old in sorted(out.glob(f"manifest_{command}_*.json")):
        recorded = json_object(_read_json(old), str(old)).get("config_hash")
        if recorded != chash:
            raise SystemExit(
                f"output directory {out} holds stale {command} results "
                f"(config hash {recorded}, current {chash}); use a fresh directory"
            )


def slots_csv(result) -> str:
    columns = [field.name for field in fields(SlotResult)]
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(r, col)) for col in columns) for r in result.slots]
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.iters < 1 or not 0.0 < args.step_scale < math.inf:
        raise ValueError(
            f"need --iters >= 1 and a positive finite --step-scale, "
            f"got {args.iters} and {args.step_scale}"
        )
    inst = instance_from_json(_read_json(args.instance))

    resolved = {
        "command": "solve",
        "instance": str(args.instance),
        "iters": args.iters,
        "step_scale": args.step_scale,
    }
    chash = config_hash(resolved)
    try:
        report = run_daa(inst, max_iters=args.iters, step_scale=args.step_scale, trace=args.trace)
    except ValueError as exc:
        raise ValueError(f"solver failed at --step-scale {args.step_scale!r}: {exc}") from exc
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
    _write_text(out / f"solve_{chash}.json", json.dumps(solution, indent=2) + "\n")
    if args.trace:
        trace = "\n".join([f"# config_hash={chash}"] + trace_csv_lines(report)) + "\n"
        _write_text(out / f"trace_{chash}.csv", trace)
    _write_manifest(out, "solve", str(args.instance), chash)
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
        if args.exact:
            cfg = replace(cfg, with_exact=True, force_exact=True)
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    return cfg, asdict(cfg)


def _check_jobs(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")


def cmd_experiment(args: argparse.Namespace) -> int:
    out = Path(args.out)
    _check_jobs(args)
    cfg, resolved = _load_experiment_config(args)
    chash = config_hash({**resolved, "command": "experiment"})
    try:
        result = run_experiment(cfg, jobs=args.jobs)
    except (GeometryError, ValueError) as exc:  # InfeasibleClientError is a ValueError
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 1
    csv_text = f"# config_hash={chash}\n" + slots_csv(result)
    _write_text(out / f"experiment_{chash}.csv", csv_text)
    summary = {
        "config_hash": chash,
        "aggregates": result.aggregates,
        "infeasible_slots": result.infeasible_slots,
        "exact_skipped": result.exact_skipped,
    }
    _write_text(out / f"experiment_{chash}.json", json.dumps(summary, indent=2) + "\n")
    _write_manifest(out, "experiment", str(args.config), chash)
    print(f"{'metric':<16} value")
    for key, value in result.aggregates.items():
        print(f"{key:<16} {_fmt(value)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out)
    _check_jobs(args)
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError as exc:
        message = f"--values must be comma-separated integers, got {args.values!r}"
        raise ValueError(message) from exc
    cfg, resolved = _load_experiment_config(args)
    chash = config_hash(
        {**resolved, "command": "sweep", "vary": args.vary, "values": values}
    )
    rows = sweep(cfg, args.vary, values, jobs=args.jobs)
    columns = ["parameter", "value"] + sorted(
        {k for row in rows for k in row if k not in ("parameter", "value")}
    )
    lines = [f"# config_hash={chash}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    _write_text(out / f"sweep_{chash}.csv", "\n".join(lines) + "\n")
    _write_manifest(out, "sweep", str(args.config), chash)
    for row in rows:
        status = row["error"] or f"p_daa={_fmt(row.get('p_daa'))}"
        print(f"{args.vary}={row['value']}: {status}")
    return 0


def _verify_checks(seed: int) -> list[tuple[str, bool, str, Instance | None]]:
    """Built-in fixture and random-instance checks.

    Fixtures are seed-independent; the random instances change with the seed.
    """
    checks: list[tuple[str, bool, str, Instance | None]] = []
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
    out = Path(args.out)
    seed = args.seed if args.seed is not None else 0
    chash = config_hash({"command": "verify", "seed": seed, "tool": __version__})
    if out.exists():
        _check_stale(out, "verify", chash)
    checks = _verify_checks(seed)
    failed = [c for c in checks if not c[1]]
    width = max(len(name) for name, *_ in checks)
    for name, ok, detail, _inst in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    for name, _ok, _detail, inst in failed:
        if inst is not None:
            _write_text(
                out / f"failed_{name}_{chash}.json",
                json.dumps(instance_to_json(inst), indent=2) + "\n",
            )
    _write_manifest(out, "verify", "", chash)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwassoc",
        description="Min-max AP-utilization client association toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--iters", type=int, default=10_000)
    p_solve.add_argument("--step-scale", type=float, default=1.0)
    p_solve.add_argument("--trace", action="store_true", help="write per-iteration CSV")
    p_solve.add_argument("--exact", action="store_true", help="also run the exact oracles")
    p_solve.add_argument("--out", default="out")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default="out")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--exact", action="store_true", help="force the exact oracle on")
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vary", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--exact", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in oracle/bound checks")
    p_verify.add_argument("--out", default="out")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input: a flag, or a document that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
