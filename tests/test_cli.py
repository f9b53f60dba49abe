import dataclasses
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mmwassoc import cli, exact, sim
from mmwassoc.cli import main
from mmwassoc.dual_solver import convergence_bound
from mmwassoc.instance import example1_instance, instance_from_json, instance_to_json
from oracles import same_instance

FIXTURE = Path(__file__).parent / "fixtures" / "chain_three_cells.json"

# a module attribute patched in the test reaches a worker only if it forks
requires_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers do not fork"
)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(instance_to_json(example1_instance(3))))
    return path


@pytest.fixture()
def config_file(tmp_path):
    doc = {
        "n_aps": 2,
        "n_clients": 8,
        "slots": 3,
        "daa_iters": 100,
        "seed": 7,
        "noise_dbm_per_mhz": -134.0,
        "bandwidth_hz": 1.2e9,
        "wavelength_m": 5e-3,
        "demand_max_bps": 400e6,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_chain_fixture(chain_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", str(chain_file), "--iters", "2000", "--out", str(out), "--exact"])
    assert code == 0
    solution_files = list(out.glob("solve_*.json"))
    assert len(solution_files) == 1
    doc = json.loads(solution_files[0].read_text())
    assert doc["p_best"] == pytest.approx(0.5, abs=1e-3)
    assert doc["g_best"] == pytest.approx(0.5, abs=1e-3)
    assert doc["p_star"] == pytest.approx(0.5, abs=1e-9)
    assert doc["p_relax"] == pytest.approx(0.5, abs=1e-9)
    assert doc["gap_certificate"] >= 0.0
    assert doc["config_hash"]
    assert list(out.glob("manifest_solve_*.json"))


def test_solve_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["solve", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "parse" in capsys.readouterr().err


def test_solve_invalid_document_names_field(tmp_path, capsys):
    doc = instance_to_json(example1_instance(2))
    del doc["demands"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "demands" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--iters", "--step-scale"])
def test_solve_rejects_nonpositive_solver_settings(chain_file, tmp_path, capsys, flag):
    code = main(["solve", str(chain_file), flag, "0", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "solver failed at --iters " in err and " --step-scale " in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_solve_trace_flag_writes_csv(chain_file, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", str(chain_file), "--iters", "50", "--trace", "--out", str(out)]) == 0
    trace_files = list(out.glob("trace_*.csv"))
    assert len(trace_files) == 1
    lines = trace_files[0].read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "k,g_lambda,t_k,g_best,p_best"
    assert len(lines) == 2 + 50


def test_solve_runs_every_iteration_past_a_zero_gap(tmp_path):
    # the fixture's gap closes at k = 3; solve still runs and traces all K
    out = tmp_path / "out"
    assert main(["solve", str(FIXTURE), "--iters", "100", "--trace", "--out", str(out)]) == 0
    doc = json.loads(next(out.glob("solve_*.json")).read_text())
    assert doc["iterations_run"] == 100
    assert doc["gap_certificate"] == 0.0
    lines = next(out.glob("trace_*.csv")).read_text().splitlines()
    assert len(lines) == 2 + 100
    assert [line.split(",")[0] for line in lines[2:]] == [str(k) for k in range(1, 101)]


def test_experiment_writes_csv_and_summary(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == 0
    csv_files = list(out.glob("experiment_*.csv"))
    json_files = list(out.glob("experiment_*.json"))
    assert len(csv_files) == 1 and len(json_files) == 1
    lines = csv_files[0].read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].split(",")[0] == "slot"
    assert len(lines) == 2 + 3  # hash, header, one row per slot
    summary = json.loads(json_files[0].read_text())
    assert summary["config_hash"] in csv_files[0].name
    assert "p_daa" in summary["aggregates"]
    assert "p_daa" in capsys.readouterr().out


def test_experiment_single_slot(config_file, tmp_path):
    doc = json.loads(config_file.read_text())
    doc["slots"] = 1
    config_file.write_text(json.dumps(doc))
    out = tmp_path / "out1"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == 0
    csv = next(out.glob("experiment_*.csv")).read_text().splitlines()
    assert len(csv) == 3


def test_experiment_reruns_are_byte_identical(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(config_file), "--out", str(out2)]) == 0
    csv1 = next(out1.glob("experiment_*.csv")).read_bytes()
    csv2 = next(out2.glob("experiment_*.csv")).read_bytes()
    assert csv1 == csv2


def test_experiment_jobs_flag_changes_nothing(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", str(config_file), "--out", str(out1)]) == 0
    assert (
        main(["experiment", "--config", str(config_file), "--out", str(out2), "--jobs", "3"])
        == 0
    )
    assert (
        next(out1.glob("experiment_*.csv")).read_bytes()
        == next(out2.glob("experiment_*.csv")).read_bytes()
    )


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_exit_2(config_file, tmp_path, capsys, command, jobs):
    out = tmp_path / "out"
    argv = [command, "--config", str(config_file), "--out", str(out), "--jobs", jobs]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--jobs" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_huge_jobs_gets_a_bounded_pool(config_file, tmp_path, monkeypatch, share_counts, command):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    out = tmp_path / "out"
    argv = [command, "--config", str(config_file), "--out", str(out), "--jobs", "1000000"]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4,8"]
    assert main(argv) == 0
    assert share_counts == [3] * (2 if command == "sweep" else 1)  # the config runs 3 slots


def test_seed_flag_changes_hash_and_results(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == 0
    assert (
        main(["experiment", "--config", str(config_file), "--out", str(out), "--seed", "99"])
        == 0
    )
    csvs = sorted(out.glob("experiment_*.csv"))
    assert len(csvs) == 2  # different config hash, different file
    assert csvs[0].read_bytes() != csvs[1].read_bytes()


def test_unknown_config_key_warns_but_proceeds(config_file, tmp_path, capsys):
    doc = json.loads(config_file.read_text())
    doc["bandwidht_hz"] = 1e9  # typo'd key
    config_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "bandwidht_hz" in err and "accepted" in err


def test_missing_config_file_is_error(tmp_path, capsys):
    code = main(["experiment", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2


def test_invalid_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 0, "n_clients": 5, "slots": 1}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "n_aps" in capsys.readouterr().err


def test_config_coercion_is_strict(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2.0, "n_clients": 6, "slots": 1, "daa_iters": 20}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0

    path.write_text(json.dumps({"n_aps": 2.5, "n_clients": 6, "slots": 1}))
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    assert "n_aps" in capsys.readouterr().err

    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": 1, "with_exact": "yes"}))
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    assert "with_exact" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_aps", True),
        ("n_clients", "5"),
        ("slots", [1]),
        ("daa_iters", float("inf")),
        ("step_scale", 0.0),
    ],
)
def test_config_rejects_non_numbers_and_bad_values(tmp_path, capsys, key, value):
    doc = {"n_aps": 2, "n_clients": 6, "slots": 1, "daa_iters": 20, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


FLOAT_KEYS = [
    "wavelength_m",
    "bandwidth_hz",
    "ref_distance_m",
    "path_loss_exp",
    "tx_power_mw",
    "tx_gain",
    "rx_gain",
    "step_scale",
    "target_snr_db",
    "ap_spacing_factor",
    "demand_max_bps",
    "noise_dbm_per_mhz",
    "interference_dbm_per_mhz",
]


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key in FLOAT_KEYS for value in ("Infinity", "-Infinity", "NaN", "1e400")]
    # an overflowing literal is refused like NaN: only Infinity means "no limit"
    + [("exact_limit", value) for value in ("-Infinity", "NaN", "1e400", "-1e400")],
)
def test_config_rejects_non_finite_floats(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"n_aps": 2, "n_clients": 4, "slots": 1, "{key}": {value}}}')
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    message = capsys.readouterr().err
    assert key in message and "finite" in message
    assert message.count("\n") == 1 and "Traceback" not in message


def test_config_exact_limit_accepts_positive_infinity(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"n_aps": 2, "n_clients": 4, "slots": 1, "daa_iters": 20, "with_exact": true, '
        '"exact_limit": Infinity}'
    )
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    rows = next(out.glob("experiment_*.csv")).read_text().splitlines()
    slot = dict(zip(rows[1].split(","), rows[2].split(",")))
    assert float(slot["p_exact"]) > 0.0


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_only_solve_takes_an_exact_flag(config_file, tmp_path, capsys, command):
    # the config's with_exact and force_exact keys are the one switch
    argv = [command, "--config", str(config_file), "--out", str(tmp_path / "out"), "--exact"]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --exact\n"
    assert not (tmp_path / "out").exists()


SWEEP = ["sweep", "--config", "{config}", "--vary", "n_clients"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["solve", "{instance}", "--bogus"], "unrecognized arguments: --bogus"),
        (["experiment", "--config", "{config}", "--bogus"], "unrecognized arguments: --bogus"),
        (SWEEP + ["--values", "4", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus"], "required: command"),
        (["solve"], "required: instance"),
        (["experiment"], "required: --config"),
        (SWEEP, "required: --values"),
        ([], "required: command"),
        (["experiment", "--config", "{config}", "--jobs", "x"], "argument --jobs: invalid"),
        (SWEEP + ["--values", "4", "--seed", "x"], "argument --seed: invalid"),
        (["solve", "{instance}", "--iters", "x"], "argument --iters: invalid"),
        (SWEEP + ["--values", "4,x"], "argument --values: must be comma-separated integers"),
        (SWEEP + ["--values", "4", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
        (["experiment", "--config", "{config}", "--jobs", "0"], "argument --jobs: must be >= 1"),
        (["verify", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    ],
    ids=[
        *(f"unknown-{name}" for name in ["solve", "experiment", "sweep", "verify", "bare"]),
        *(f"missing-{name}" for name in ["instance", "config", "values", "command"]),
        *(f"malformed-{name}" for name in ["jobs", "seed", "iters", "values"]),
        "range-sweep-jobs", "range-experiment-jobs", "range-verify-seed",
    ],
)
def test_every_bad_flag_exits_2_in_one_line(
    chain_file, config_file, tmp_path, capsys, monkeypatch, argv, name
):
    monkeypatch.chdir(tmp_path)  # a command that ran would make the default --out here
    argv = [arg.format(config=config_file, instance=chain_file) for arg in argv]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert one_error_line(captured.err, name), captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [["--version"], ["experiment", "--help"]])
def test_help_and_version_exit_0_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_manifest_records_the_interpreter(chain_file, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", str(chain_file), "--iters", "10", "--out", str(out)]) == 0
    manifest = json.loads(next(out.glob("manifest_solve_*.json")).read_text())
    running = (platform.python_version(), np.__version__, platform.machine())
    assert (manifest["python"], manifest["numpy"], manifest["machine"]) == running


def test_solve_exact_on_zero_clients(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 0, "demands": [], "links": []}))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out), "--exact"]) == 0
    solution = json.loads(next(out.glob("solve_*.json")).read_text())
    assert solution["p_star"] == 0.0
    assert solution["assignment"] == []


def test_sweep_writes_one_row_per_value(config_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--config",
            str(config_file),
            "--vary",
            "n_clients",
            "--values",
            "4,8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = next(out.glob("sweep_*.csv")).read_text().splitlines()
    assert len(lines) == 2 + 2
    assert lines[1].startswith("parameter,value")


def test_verify_passes_on_fresh_checkout(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "strong_duality_chain_m3" in out
    assert "FAIL" not in out


def test_verify_seed_changes_random_checks_not_fixtures(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v1"), "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--out", str(tmp_path / "v2"), "--seed", "6"]) == 0
    second = capsys.readouterr().out

    def fixture_lines(text):
        return [l for l in text.splitlines() if l.startswith("strong_duality")]

    def random_lines(text):
        return [l for l in text.splitlines() if l.startswith("gap_certificate_random")]

    assert fixture_lines(first) == fixture_lines(second)
    assert random_lines(first) != random_lines(second)


def test_verify_writes_the_instance_of_a_failed_check(tmp_path, capsys, monkeypatch):
    # the 4th LP verify solves is its first random instance's; a relaxation
    # value above the MILP optimum fails that check alone
    real = cli.solve_lp_relaxation
    solved = []

    def wrong_fourth_lp(inst):
        solved.append(inst)
        lp = real(inst)
        if len(solved) == 4:
            lp = dataclasses.replace(lp, optimal_value=lp.optimal_value + 1.0)
        return lp

    monkeypatch.setattr(cli, "solve_lp_relaxation", wrong_fourth_lp)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert [l.split()[0] for l in stdout.splitlines() if "  FAIL  " in l] == [
        "gap_certificate_random_0"
    ]
    assert stdout.splitlines()[-1] == f"{len(solved) - 1}/{len(solved)} checks passed"
    (written,) = out.glob("failed_*.json")
    assert written.name.startswith("failed_gap_certificate_random_0_")
    assert same_instance(instance_from_json(json.loads(written.read_text())), solved[3])


def test_verify_refuses_stale_directory(tmp_path, capsys):
    out = tmp_path / "v"
    out.mkdir()
    (out / "manifest_verify_deadbeef.json").write_text(
        json.dumps({"config_hash": "deadbeef"})
    )
    assert main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory ") and "stale verify results" in err


def test_solve_huge_step_scale_exits_2(tmp_path, capsys):
    argv = ["solve", str(FIXTURE), "--step-scale", "1e17", "--iters", "50"]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "too large to project" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_experiment_huge_step_scale_fails_cleanly(tmp_path, capsys, jobs):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"n_aps": 2, "n_clients": 6, "slots": 2, "daa_iters": 20, "step_scale": 1e17})
    )
    argv = ["experiment", "--config", str(path), "--jobs", jobs]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment failed: ")
    assert "too large to project" in err


@pytest.fixture()
def budget_from_slot_2(tmp_path, monkeypatch):
    """A config whose exact oracle runs out of a 10-node budget from slot 2 on.
    At --jobs 2 either process may pull that slot, so the error may cross the pipe."""
    current = {}
    run_slot, solve_milp_exact = sim.run_slot, sim.solve_milp_exact

    def tagged_run_slot(cfg, topo, slot):
        current["slot"] = slot
        return run_slot(cfg, topo, slot)

    def budgeted(inst, **kwargs):
        if current["slot"] < 2:
            return solve_milp_exact(inst, **kwargs)
        # patched around the call, so the limits hold only from slot 2 on, in
        # whichever process runs the slot
        with mock.patch.object(exact, "DEFAULT_NODE_BUDGET", 10):
            with mock.patch.object(exact, "ENUMERATION_LIMIT", 1):
                return solve_milp_exact(inst, **kwargs)

    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sim, "run_slot", tagged_run_slot)
    monkeypatch.setattr(sim, "solve_milp_exact", budgeted)
    doc = {
        "n_aps": 3, "n_clients": 30, "slots": 4, "daa_iters": 50,
        "ap_spacing_factor": 0.01, "with_exact": True, "force_exact": True,
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(doc))
    return path


@requires_fork
def test_node_budget_error_is_the_same_for_any_jobs(budget_from_slot_2, tmp_path, capsys):
    outcomes = []
    for jobs in ("1", "2"):
        argv = ["experiment", "--config", str(budget_from_slot_2), "--jobs", jobs]
        outcomes.append((main(argv + ["--out", str(tmp_path / jobs)]), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 1 and one_error_line(err, "node budget exhausted after 10 nodes")


@requires_fork
def test_sweep_rows_are_the_same_for_any_jobs(budget_from_slot_2, tmp_path, capsys):
    outcomes = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        argv = ["sweep", "--config", str(budget_from_slot_2), "--vary", "n_clients"]
        assert main(argv + ["--values", "30,31", "--jobs", jobs, "--out", str(out)]) == 0
        outcomes.append((next(out.glob("sweep_*.csv")).read_text(), capsys.readouterr().out))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].count("NodeBudgetExceeded: node budget exhausted") == 2


@requires_fork
def test_experiment_reports_a_dead_worker_in_one_line(tmp_path, capsys, monkeypatch):
    caller, run_slot = os.getpid(), sim.run_slot

    def dying_run_slot(cfg, topo, slot):
        if os.getpid() != caller:
            os._exit(3)
        if slot == 0:  # the worker pulls slot 1 and dies before the caller goes on
            sim._workers[0][0].join(timeout=30)
        return run_slot(cfg, topo, slot)

    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sim, "run_slot", dying_run_slot)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": 4, "daa_iters": 20}))
    argv = ["experiment", "--config", str(path), "--jobs", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert one_error_line(err, "a worker exited with code 3 before reporting slots [1]")
    assert err.startswith("error: experiment failed: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_exits_130_in_one_line(tmp_path, capsys, monkeypatch, jobs):
    # the caller always takes slot 0; a worker that raised it would die and
    # show up as a WorkerError instead
    run_slot = sim.run_slot

    def interrupted_run_slot(cfg, topo, slot):
        if slot == 0:
            raise KeyboardInterrupt
        return run_slot(cfg, topo, slot)

    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sim, "run_slot", interrupted_run_slot)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": 4, "daa_iters": 20}))
    out = tmp_path / "out"
    argv = ["experiment", "--config", str(path), "--jobs", jobs, "--out", str(out)]
    try:
        code = main(argv)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert code == 130
    err = capsys.readouterr().err
    assert err == "error: interrupted\n"
    assert not list(out.glob("*.csv"))
    assert sim._workers == []


@requires_fork
def test_kept_worker_dying_in_a_later_experiment_is_one_line(tmp_path, capsys, monkeypatch):
    caller, run_slot = os.getpid(), sim.run_slot

    def dying_run_slot(cfg, topo, slot):
        if cfg.seed == 1 and os.getpid() != caller:
            os._exit(3)
        if cfg.seed == 1 and slot == 0:  # the worker pulls slot 1 and dies first
            sim._workers[0][0].join(timeout=30)
        return run_slot(cfg, topo, slot)

    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sim, "run_slot", dying_run_slot)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": 4, "daa_iters": 20}))
    argv = ["experiment", "--config", str(path), "--jobs", "2", "--out", str(tmp_path / "out")]
    assert main(argv + ["--seed", "0"]) == 0
    worker = multiprocessing.active_children()
    assert len(worker) == 1
    capsys.readouterr()
    assert main(argv + ["--seed", "1"]) == 1  # the same worker, now dying
    err = capsys.readouterr().err
    assert one_error_line(err, "a worker exited with code 3 before reporting slots [1]")
    assert worker[0].exitcode == 3 and multiprocessing.active_children() == []


HELD_LOCK_SCRIPT = """
import multiprocessing, os, sys, time
from mmwassoc import cli, sim
jobs, caller_wait = int(sys.argv[1]), float(sys.argv[2])
os.cpu_count = lambda: jobs
run_slot = sim.run_slot

def dying_run_slot(cfg, topo, slot):
    if slot == 0:  # the caller's: it claims again once every worker holds a slot
        while sim._counter.get_obj().value < cfg.slots:  # read without the lock
            time.sleep(0.01)
        time.sleep(caller_wait)
    elif slot == cfg.slots - 1:  # this worker dies holding the counter's lock
        time.sleep(0.3)
        sim._counter.get_lock().acquire()
        os._exit(9)
    else:
        time.sleep(0.6)  # then waits for the lock in its own claim
    return run_slot(cfg, topo, slot)

sim.run_slot = dying_run_slot
code = cli.main(sys.argv[3:])
print(len(multiprocessing.active_children()), flush=True)
sys.exit(code)
"""


@requires_fork
@pytest.mark.parametrize(
    "jobs, caller_wait",
    [(2, 0.6), (3, 0.0)],
    ids=["caller-claims-after-the-death", "caller-waits-for-a-reply"],
)
def test_worker_dying_with_the_counter_lock_is_one_line(tmp_path, jobs, caller_wait):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": jobs, "daa_iters": 20}))
    argv = ["experiment", "--config", str(path), "--jobs", str(jobs), "--out", str(tmp_path / "out")]
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-c", HELD_LOCK_SCRIPT, str(jobs), str(caller_wait), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        text=True, start_new_session=True,
    ) as caller:
        try:
            # a caller that waits on the lock without a bound hangs: the timeout fails the test
            out, err = caller.communicate(timeout=60)
        finally:
            try:
                os.killpg(caller.pid, signal.SIGKILL)  # a hung caller and its workers
            except ProcessLookupError:
                pass
    assert caller.returncode == 1
    assert err == "error: experiment failed: a worker exited with code 9 holding the slot counter\n"
    assert out == "0\n"  # no worker left running


@pytest.mark.parametrize(
    "command, unbuffered, written",
    [
        ("experiment", "", 3),
        ("experiment", "1", 3),
        ("verify", "1", 1),  # the manifest, written before the first line is printed
    ],
    ids=["experiment-buffered", "experiment-unbuffered", "verify-unbuffered"],
)
def test_closed_stdout_exits_141_in_silence(tmp_path, command, unbuffered, written):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": 2, "daa_iters": 20}))
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "experiment":
        argv += ["--config", str(path)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)  # as after `| head -1`: every write to stdout fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mmwassoc.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141  # the shell's status for SIGPIPE
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert len(list(out.iterdir())) == written


@pytest.mark.parametrize("values", ["4,x", "4,,8", ""])
def test_sweep_rejects_non_integer_values(config_file, tmp_path, capsys, values):
    argv = ["sweep", "--config", str(config_file), "--vary", "n_clients", "--values", values]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert "--values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("doc", [[1, 2], 3, "n_aps", None])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("tx_power_mw", True),
        ("step_scale", "2"),
        ("demand_max_bps", True),
        ("noise_dbm_per_mhz", True),
        ("interference_dbm_per_mhz", "-150"),
        ("bandwidth_hz", "1.2e9"),
        ("target_snr_db", False),
        ("exact_limit", [1e6]),
    ],
)
def test_float_config_keys_accept_numbers_only(tmp_path, capsys, key, value):
    doc = {"n_aps": 2, "n_clients": 6, "slots": 1, "daa_iters": 20, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_float_config_keys_accept_json_integers(tmp_path):
    doc = {
        "n_aps": 2,
        "n_clients": 6,
        "slots": 1,
        "daa_iters": 20,
        "step_scale": 1,
        "bandwidth_hz": 1200000000,
        "noise_dbm_per_mhz": -134,
        "demand_max_bps": 400000000,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def one_error_line(err: str, name: str) -> bool:
    return err.count("\n") == 1 and err.startswith("error: ") and name in err


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda doc: doc["links"][0].update(beta="0.5"), "links[0].beta"),
        (lambda doc: doc["links"][0].update(i=0.5), "links[0].i"),
        (lambda doc: doc.update(n_aps=True), "n_aps"),
        (lambda doc: doc.update(n_aps=1e20), "n_aps"),
        (lambda doc: doc.update(demands="11"), "demands"),
        (lambda doc: doc.update(links={"i": 0, "j": 0, "beta": 0.5, "rate": 2.0}), "links"),
        (lambda doc: doc["links"][0].update(rate=math.inf), "links[0].rate"),
    ],
    ids=[
        "beta-string",
        "i-float",
        "n_aps-bool",
        "n_aps-1e20",
        "demands-string",
        "links-object",
        "rate-1e400",
    ],
)
def test_solve_rejects_mistyped_documents(tmp_path, capsys, edit, name):
    doc = instance_to_json(example1_instance(2))
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    assert main(["solve", str(path), "--iters", "5", "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys.readouterr().err, name)
    assert not (tmp_path / "out").exists()


def test_solve_null_document_names_the_json_type(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text("null")
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys.readouterr().err, "must be a JSON object, got None")


@pytest.mark.parametrize(
    "content", [b'{"n_aps": "\xe9"}', b"[" * 100_000], ids=["latin-1", "deep-nesting"]
)
def test_solve_unreadable_document_names_the_file(tmp_path, capsys, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys.readouterr().err, str(path))


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_config_names_the_file(tmp_path, capsys, command, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"n_aps": 2, "n_clients": 4, "slots": 1, "é": 1}'.encode("latin-1"))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    assert one_error_line(capsys.readouterr().err, str(path))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_is_a_config_error(config_file, tmp_path, capsys, command, where):
    argv = [command, "--config", str(config_file), "--out", str(tmp_path / "out")]
    if where == "config":
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), "seed": -1}))
    else:
        argv += ["--seed", "-1"]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    assert one_error_line(capsys.readouterr().err, "seed")
    assert not (tmp_path / "out").exists()


def test_slots_csv_columns_are_the_slot_result_fields(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == 0
    lines = next(out.glob("experiment_*.csv")).read_text().splitlines()
    assert lines[1].split(",") == [field.name for field in dataclasses.fields(sim.SlotResult)]
    assert {line.split(",")[1] for line in lines[2:]} <= {"0", "1"}


@pytest.mark.parametrize("content", ["[1]", "{not json"], ids=["array", "malformed"])
def test_verify_rejects_unreadable_manifest(tmp_path, capsys, content):
    out = tmp_path / "v"
    out.mkdir()
    manifest = out / "manifest_verify_deadbeef.json"
    manifest.write_text(content)
    assert main(["verify", "--out", str(out)]) == 2
    assert one_error_line(capsys.readouterr().err, str(manifest))


@pytest.mark.parametrize("value", [-1, 0])
def test_renamed_config_key_is_named_in_its_error(tmp_path, capsys, value):
    # the field is demand_max; the message must name the key the document used
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2, "n_clients": 6, "slots": 1, "demand_max_bps": value}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys.readouterr().err, f"(from demand_max_bps={value!r})")


@pytest.mark.parametrize(
    "key, value",
    [
        ("noise_dbm_per_mhz", 4000),
        ("interference_dbm_per_mhz", 4000),
        ("target_snr_db", 1e300),
        ("wavelength_m", 1e300),
        ("tx_power_mw", 1e308),
        ("target_snr_db", -400),
        ("target_snr_db", -1e300),
        ("target_snr_db", 200),
        ("wavelength_m", 1e150),
        ("exact_limit", -1),
        ("ap_spacing_factor", 1e306),
    ],
)
@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_config_values_out_of_physical_range_exit_2(tmp_path, capsys, command, key, value):
    # a finite value whose derived density, SNR, cell radius or edge rate is
    # not a positive finite number is a config error naming the key; so is a
    # target above the default link budget's plateau (about 25.2 dB), which
    # no radius attains, a negative search-space limit, and a spacing whose
    # disks cover too little of the client box to place the clients
    doc = {"n_aps": 2, "n_clients": 6, "slots": 1, "daa_iters": 20, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    message = capsys.readouterr().err
    assert message.startswith("error: invalid config: ")
    assert one_error_line(message, key) and "Traceback" not in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("noise_dbm_per_mhz", -4000, "noise_density"),  # underflows to a density of 0.0
        ("wavelength_m", -1, "wavelength"),
        ("bandwidth_hz", 0, "bandwidth"),
        ("ref_distance_m", -2.5, "ref_distance"),
        ("tx_power_mw", 0, "tx_power"),
        ("tx_gain", -1, "tx_gain"),
        ("rx_gain", 0.0, "rx_gain"),
        ("path_loss_exp", 7, "path_loss_exp"),
    ],
)
def test_channel_value_failing_validation_names_its_key(tmp_path, capsys, key, value, field):
    # the channel checks its own fields; the error must still name the key
    # the document used, with the value it gave
    doc = {"n_aps": 2, "n_clients": 6, "slots": 1, "daa_iters": 20, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    message = capsys.readouterr().err
    assert message.startswith("error: invalid config: ")
    assert one_error_line(message, f"{key}={value!r}") and field in message
    assert not (tmp_path / "out").exists()


def test_solve_prints_the_convergence_bound_next_to_the_gap(chain_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", str(chain_file), "--iters", "200", "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    doc = json.loads(next(out.glob("solve_*.json")).read_text())
    bound = convergence_bound(example1_instance(3), 1.0, 200)
    assert line == (
        f"solved: p_best={doc['p_best']!r} g_best={doc['g_best']!r} "
        f"gap={doc['gap_certificate']!r} bound={bound!r}"
    )
    assert "bound" not in doc


def test_solve_reports_an_overflowing_convergence_bound_as_inf(tmp_path, capsys):
    # utilizations of 1e-200 keep the prices projectable at step 1e200, whose
    # square overflows in the bound's numerator
    doc = {
        "n_aps": 2,
        "n_clients": 1,
        "demands": [1e-200],
        "links": [
            {"i": 0, "j": 0, "rate": 1.0, "beta": 1e-200},
            {"i": 1, "j": 0, "rate": 2.0, "beta": 5e-201},
        ],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--step-scale", "1e200", "--iters", "10"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" bound=inf")


def test_zero_rate_links_are_pruned_not_fatal(tmp_path, capsys):
    # at -150 dB the rate B*log2(1 + snr*fading) of a faded link underflows to 0
    doc = {"n_aps": 2, "n_clients": 6, "slots": 3, "daa_iters": 20, "target_snr_db": -150}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(list(out.glob("experiment_*.csv"))) == 1


def test_verify_negative_seed_names_the_flag(tmp_path, capsys):
    assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys.readouterr().err, "--seed")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, infeasible, skipped",
    [
        ({}, 0, 0),
        ({"demand_max_bps": 1e16}, 3, 0),  # no link carries the demand
        ({"with_exact": True, "exact_limit": 0.5}, 0, 3),  # every slot above the limit
        ({"with_exact": True, "exact_limit": 0}, 0, 3),  # the least valid limit
        ({"with_exact": True}, 0, 0),
    ],
    ids=["default", "oversized-demands", "exact-skipped", "exact-limit-0", "exact"],
)
def test_experiment_summary_counts_infeasible_and_skipped_slots(
    tmp_path, overrides, infeasible, skipped
):
    doc = {"n_aps": 2, "n_clients": 6, "slots": 3, "daa_iters": 20, **overrides}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads(next(out.glob("experiment_*.json")).read_text())
    agg = summary["aggregates"]
    assert (summary["infeasible_slots"], summary["exact_skipped"]) == (infeasible, skipped)
    assert summary["infeasible_slots"] == agg["slots_infeasible"]
    # with the oracle off no slot has an exact result, and none counts as skipped
    if doc.get("with_exact"):
        assert summary["exact_skipped"] == agg["slots_feasible"] - agg["slots_with_exact"]
    else:
        assert agg["slots_with_exact"] == 0


OUT_ARGV = {
    "solve": ["solve", str(FIXTURE), "--iters", "20"],
    "experiment": ["experiment", "--config", "{config}"],
    "sweep": ["sweep", "--config", "{config}", "--vary", "n_clients", "--values", "4"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_out_that_cannot_be_a_directory_exits_2(
    config_file, tmp_path, capsys, monkeypatch, command, under
):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "out" if under else blocker
    slots, run_slot = [], sim.run_slot

    def counted_run_slot(cfg, topo, slot):
        slots.append(slot)
        return run_slot(cfg, topo, slot)

    monkeypatch.setattr(sim, "run_slot", counted_run_slot)
    argv = [arg.format(config=config_file) for arg in OUT_ARGV[command]]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert one_error_line(err, f"error: cannot write {out}{os.sep}")
    assert blocker.read_text() == "kept\n"
    assert slots == []  # found before the first slot, not after the last


@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_config_with_too_many_aps_exits_2(tmp_path, capsys, command):
    # 2**40 APs would ask generate_topology for an 8 TiB array
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_aps": 2**40, "n_clients": 6, "slots": 1, "daa_iters": 20}))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--vary", "n_clients", "--values", "4"]
    assert main(argv) == 2
    message = f"n_aps must lie in [1, 65536], got {2**40}"
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_records_too_many_aps_as_a_row_error(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(config_file), "--vary", "n_aps", "--values", f"2,{2**40}"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n_aps=2: p_daa=")
    assert lines[1] == f"n_aps={2**40}: ValueError: n_aps must lie in [1, 65536], got {2**40}"
