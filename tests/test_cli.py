import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from targetwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schedule_reference_times(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--d", "1", "--n", "1000000",
                           "--m", "100", "--eta", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["schedule"]["times"] == [0, 495000, 990000, 999000, 999900, 1000000]
    assert data["diagnostics"]["flagged"] is True


def test_schedule_2d_prints_valid_theta_kappa(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--d", "2", "--n", "1000000",
                           "--m", "1000", "--epsilon", "0.5")
    assert code == 0
    data = json.loads(out)
    theta = data["diagnostics"]["theta"]
    kappa = data["diagnostics"]["kappa"]
    ratio = (1 - 2 * theta) / (1 - 2 * kappa * theta)
    assert 0.0 < ratio < 0.5 and theta < 0.5


def test_schedule_missing_regime_exits_2(capsys):
    code, _, err = run_cli(capsys, "schedule", "--d", "1", "--n", "10", "--m", "100")
    assert code == 2
    assert "failed" in err


def test_exact_reference_values(capsys):
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "2", "--m", "2")
    assert code == 0 and float(out.strip()) == 0.5
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "2", "--m", "3")
    assert code == 0 and float(out.strip()) == 1.0
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "2000", "--m", "32",
                           "--eval", "lazy_max")
    import math

    assert code == 0
    assert abs(float(out.strip()) - math.comb(62, 31) / 2**62) < 1e-10


def test_exact_over_budget_exits_3(capsys):
    code, _, err = run_cli(capsys, "exact", "--d", "1", "--n", "100000", "--m", "50",
                           "--budget", "1000")
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize("mode", [(), ("--eval", "lazy_max")])
@pytest.mark.parametrize("budget", ["nan", "0", "-5"])
def test_exact_bad_budget_exits_2(capsys, budget, mode):
    # NaN passes every "cost > budget" refusal, since each comparison with it
    # is false; a budget <= 0 is bad input, not an over-budget computation
    code, out, err = run_cli(capsys, "exact", "--d", "1", "--n", "3000", "--m", "64",
                             "--budget", budget, *mode)
    assert code == 2
    assert out == "" and "budget must be a positive number" in err


def test_exact_eval_uses_the_eval_budget(capsys):
    # the delayed hit mixtures price this plan at ~1.2e9 float entries: over
    # the eval default (6e8), under the DP one (2e9)
    code, _, err = run_cli(capsys, "exact", "--d", "1", "--n", "1000000", "--m", "300",
                           "--eval", "windowed_1d", "--delayed")
    assert code == 3
    assert "refused" in err and "float entries" in err


def test_exact_eval_at_paper_scale(capsys):
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "1000000", "--m", "10000",
                           "--eval", "windowed_1d")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.948258, abs=1e-6)
    # delayed, at the default budget: the blocked mixture prices it at 2.1e8
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "1000000", "--m", "10000",
                           "--eval", "windowed_1d", "--delayed")
    assert code == 0
    # the value with the mixture in long double and the rest as it is; the
    # per-hit Horner loop gave 0.4549909966650274, 1.1e-11 off
    assert float(out.strip()) == pytest.approx(0.4549909966600378, rel=1e-12)


def test_a_horizon_over_the_budget_is_refused_before_any_table(capsys):
    # each backward step updates a cell, so n = 10^12 is refused by n alone,
    # before the certified radius builds its binomial
    code, out, err = run_cli(capsys, "exact", "--d", "2", "--n", "1000000000000",
                             "--m", "3")
    assert code == 3 and out == ""
    assert err.startswith("refused: backward induction needs at least 1e+12 cell updates")
    assert err.count("\n") == 1


def test_exact_json_names_the_engine(capsys):
    code, out, _ = run_cli(capsys, "exact", "--d", "2", "--n", "300", "--m", "8",
                           "--eval", "always_step", "--json")
    assert code == 0
    data = json.loads(out)
    # the plan has no stage, so its price is the r table: n + 1 entries
    assert data["runtime"] == {"engine": "plan", "plan_entries": 301}
    assert data["value"] == pytest.approx(0.0021185320835944233, rel=1e-12)
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "4", "--m", "2", "--json")
    # steps i = 3, 2, 1, 0 update the folded boxes x = 0..r for
    # r = min(i, n - i) = 1, 2, 1, 0, that is 2 + 3 + 2 + 1 = 8 cells, and
    # the 2-slice window holds 2 slices of n // 2 + 3 = 5 cells
    assert code == 0 and json.loads(out)["runtime"] == {
        "engine": "backward", "dp_cell_updates": 8, "dp_cells_held": 10}


def test_zero_horizon_exits_2(capsys):
    code, _, err = run_cli(capsys, "exact", "--d", "1", "--n", "0", "--m", "2")
    assert code == 2 and "horizon" in err
    code, _, err = run_cli(capsys, "simulate", "--d", "1", "--n", "0", "--m", "2",
                           "--strategy", "always_step", "--trials", "10",
                           "--seed", "1")
    assert code == 2 and "horizon" in err


def test_exact_policy_out(tmp_path, capsys):
    path = tmp_path / "policy.csv"
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "4", "--m", "2",
                           "--policy-out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,x,j,V,policy"
    assert len(lines) > 5


@pytest.mark.parametrize("n,m,lines,digest", [
    (12, 3, 508, "9a8e1bc69f3130de533af67efb5fee658f24e73a57f01b6f43d14eeda31f1c80"),
    (40, 5, 8406, "91dc4fbdf92c1352b6170177c45f42b230fe31a988e62014fbca44778de74749"),
])
def test_exact_policy_out_is_pinned(tmp_path, capsys, n, m, lines, digest):
    path = tmp_path / "policy.csv"
    code, _, _ = run_cli(capsys, "exact", "--d", "1", "--n", str(n), "--m", str(m),
                         "--policy-out", str(path))
    assert code == 0
    data = path.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


def test_exact_json_counts_the_dp_work(capsys):
    # d = 2, n = 3, m = 2: steps i = 2, 1, 0 update the folded boxes
    # 0 <= x_1, x_2 <= r for r = min(i, n - i) = 1, 1, 0, that is
    # 4 + 4 + 1 = 9 cells, and the window holds 2 slices of
    # (n // 2 + 3)^2 = 16 cells; at m = 9 the window is cut to n + 1 = 4 slices
    code, out, _ = run_cli(capsys, "exact", "--d", "2", "--n", "3", "--m", "2", "--json")
    assert code == 0
    assert json.loads(out)["runtime"] == {
        "engine": "backward", "dp_cell_updates": 9, "dp_cells_held": 32}
    code, out, _ = run_cli(capsys, "exact", "--d", "2", "--n", "3", "--m", "9", "--json")
    assert code == 0 and json.loads(out)["runtime"]["dp_cells_held"] == 4 * 16


def test_exact_json_reports_the_truncation_bound(capsys):
    # nothing is cut at n = 3; at n = 300 the radius is 139 < n // 2, and the
    # bound it certifies is at most 1e-15
    code, out, _ = run_cli(capsys, "exact", "--d", "2", "--n", "3", "--m", "2", "--json")
    assert code == 0 and json.loads(out)["truncation_bound"] == 0.0
    code, out, _ = run_cli(capsys, "exact", "--d", "2", "--n", "300", "--m", "8", "--json")
    data = json.loads(out)
    assert code == 0 and 0.0 < data["truncation_bound"] <= 1e-15
    assert data["value"] == pytest.approx(0.10001012633206274, rel=1e-15)
    code, out, _ = run_cli(capsys, "exact", "--d", "1", "--n", "12", "--m", "3",
                           "--eval", "lazy_max", "--json")
    assert code == 0 and "truncation_bound" not in json.loads(out)


def test_exact_paper_scale_optimum_fits_the_default_budget():
    # d = 1, n = 10^5, m = 133 ~ (log n)^2: about n R = 2.5e8 updates on the
    # diamond within R = 2564, where the whole backward cone prices 5e9;
    # priced only, not solved
    from targetwalk import Problem, exact

    updates, cells = exact.dp_cost(Problem(d=1, n=100_000, m=133))
    assert 2.4e8 < updates < 2.6e8 < exact.DEFAULT_DP_BUDGET
    assert cells == 133 * (2564 + 3)
    assert exact.dp_cost(Problem(d=1, n=100_000, m=133), kept=True)[0] > 5e9


@pytest.mark.parametrize("argv", [
    ("schedule", "--d", "1", "--n", "1000", "--m", "10", "--out"),
    ("simulate", "--d", "1", "--n", "40", "--m", "2", "--strategy", "always_step",
     "--trials", "10", "--seed", "1", "--out"),
    ("exact", "--d", "1", "--n", "4", "--m", "2", "--out"),
    ("exact", "--d", "1", "--n", "4", "--m", "2", "--policy-out"),
    ("sweep", "--seed", "1", "--out"),
], ids=["schedule", "simulate", "exact", "exact-policy", "sweep"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    if argv[0] == "sweep":
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"trials": 10, "cells": [
            {"d": 1, "n": 40, "m": 2, "strategy": {"name": "always_step"}}]}))
        argv = argv[:1] + ("--config", str(cfg_path)) + argv[1:]
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err == f"cannot write {path}: No such file or directory\n"


def test_sweep_unwritable_out_refused_before_any_cell(tmp_path, capsys, monkeypatch):
    from targetwalk import mc

    calls = []
    monkeypatch.setattr(mc, "estimate_success", lambda *a, **k: calls.append(a))
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"trials": 10, "cells": [
        {"d": 1, "n": 40, "m": 2, "strategy": {"name": "always_step"}}]}))
    state = tmp_path / "state"
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--seed", "1",
                             "--state-dir", str(state), "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"cannot write {path}: No such file or directory\n"
    assert calls == []
    assert not state.exists() or list(state.iterdir()) == []


def test_exact_unwritable_policy_out_refused_before_the_solve(tmp_path, capsys,
                                                              monkeypatch):
    from targetwalk import exact

    calls = []
    monkeypatch.setattr(exact, "optimal_value", lambda *a, **k: calls.append(a))
    path = tmp_path / "missing" / "policy.csv"
    code, out, err = run_cli(capsys, "exact", "--d", "1", "--n", "40", "--m", "2",
                             "--policy-out", str(path))
    assert code == 2 and out == ""
    assert err == f"cannot write {path}: No such file or directory\n"
    assert calls == []


def test_output_path_check_leaves_files_as_they_were(tmp_path, capsys):
    # the up-front check neither truncates an existing file nor leaves a new
    # one behind when the command then fails
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("earlier result\n")
    for path in (kept, new):
        code, out, err = run_cli(capsys, "exact", "--d", "1", "--n", "40", "--m", "2",
                                 "--budget", "1", "--out", str(path))
        assert code == 3 and out == "" and "refused" in err
    assert kept.read_text() == "earlier result\n"
    assert not new.exists()


@pytest.mark.parametrize("flags", [("--d", "2"), ("--d", "1", "--eval", "always_step")])
def test_exact_policy_out_refused_up_front(tmp_path, capsys, monkeypatch, flags):
    from targetwalk import exact

    def never(*args, **kwargs):
        raise AssertionError("computed before refusing --policy-out")

    monkeypatch.setattr(exact, "optimal_value", never)
    monkeypatch.setattr(exact, "evaluate_strategy_exact", never)
    path = tmp_path / "policy.csv"
    code, out, err = run_cli(capsys, "exact", *flags, "--n", "40", "--m", "2",
                             "--policy-out", str(path))
    assert code == 2
    assert out == "" and "policy-out" in err
    assert not path.exists()


def test_exact_delayed_without_eval_exits_2(capsys, monkeypatch):
    # --delayed only wraps an evaluated strategy; the optimum has no delayed form
    from targetwalk import exact

    def never(*args, **kwargs):
        raise AssertionError("solved before refusing --delayed")

    monkeypatch.setattr(exact, "optimal_value", never)
    code, out, err = run_cli(capsys, "exact", "--d", "1", "--n", "100", "--m", "4",
                             "--delayed")
    assert code == 2 and out == ""
    assert err == "exact failed: --delayed needs --eval\n"


def test_simulate_requires_seed(capsys):
    code = main(["simulate", "--d", "1", "--n", "10", "--m", "2",
                 "--strategy", "always_step", "--trials", "10"])
    capsys.readouterr()
    assert code == 2


def test_simulate_unknown_strategy_exits_2(capsys):
    code = main(["simulate", "--d", "1", "--n", "10", "--m", "2",
                 "--strategy", "mystery", "--trials", "10", "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_simulate_reports_are_thread_independent(tmp_path, capsys):
    outs = []
    for threads in ("1", "8"):
        path = tmp_path / f"report_{threads}.json"
        code, _, _ = run_cli(capsys, "simulate", "--d", "1", "--n", "1000",
                             "--m", "10", "--strategy", "windowed_1d",
                             "--trials", "5000", "--seed", "42",
                             "--threads", threads, "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        data.pop("runtime")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_simulate_schedule_json_round_trip(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    code, _, _ = run_cli(capsys, "schedule", "--d", "1", "--n", "1000", "--m", "10",
                         "--eta", "0.5", "--out", str(sched_path))
    assert code == 0
    base_args = ["simulate", "--d", "1", "--n", "1000", "--m", "10",
                 "--strategy", "windowed_1d", "--trials", "2000", "--seed", "5"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(base_args + ["--out", str(p1)]) == 0
    assert main(base_args + ["--schedule-json", str(sched_path),
                             "--out", str(p2)]) == 0
    capsys.readouterr()
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("runtime")
    b.pop("runtime")
    assert a == b


def test_simulate_missing_schedule_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--d", "1", "--n", "1000", "--m", "10",
                           "--strategy", "windowed_1d", "--trials", "10", "--seed", "1",
                           "--schedule-json", str(tmp_path / "absent.json"))
    assert code == 2
    assert "simulate failed" in err and "Traceback" not in err


@pytest.mark.parametrize("strategy", ["always_step", "lazy_max", "lazy_then_sprint"])
def test_simulate_schedule_for_a_strategy_without_stages_exits_2(tmp_path, capsys,
                                                                 strategy):
    sched_path = tmp_path / "sched.json"
    assert main(["schedule", "--d", "1", "--n", "1000", "--m", "10", "--eta", "0.5",
                 "--out", str(sched_path)]) == 0
    code, out, err = run_cli(capsys, "simulate", "--d", "1", "--n", "1000", "--m", "10",
                             "--strategy", strategy, "--trials", "100", "--seed", "1",
                             "--schedule-json", str(sched_path))
    assert code == 2
    assert f"simulate failed: strategy {strategy!r} takes no schedule" in err
    assert "Traceback" not in err and out == ""


def _break_times_order(s):
    s["times"][1], s["times"][2] = s["times"][2], s["times"][1]


def _drop_a_time(s):
    s["times"].pop(1)


def _shift_start(s):
    s["times"][0] = 1


def _stop_short_of_n(s):
    s["times"][-1] -= 1


def _drop_a_width(s):
    s["half_widths"].pop(1)


def _negative_width(s):
    s["half_widths"][1] = -1


def _long_terminal_stage(s):
    s["times"][-2] -= s["m"] + 1


@pytest.mark.parametrize("corrupt", [
    _break_times_order, _drop_a_time, _shift_start, _stop_short_of_n,
    _drop_a_width, _negative_width, _long_terminal_stage])
def test_simulate_bad_schedule_file_exits_2(tmp_path, capsys, corrupt):
    sched_path = tmp_path / "sched.json"
    assert main(["schedule", "--d", "1", "--n", "1000", "--m", "10", "--eta", "0.5",
                 "--out", str(sched_path)]) == 0
    data = json.loads(sched_path.read_text())
    corrupt(data["schedule"])
    sched_path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--d", "1", "--n", "1000", "--m", "10",
                           "--strategy", "windowed_1d", "--trials", "10", "--seed", "1",
                           "--schedule-json", str(sched_path))
    assert code == 2
    assert "simulate failed" in err


@pytest.mark.parametrize("field, value", [("m", True), ("n", True), ("d", True),
                                          ("d", 3)])
def test_simulate_schedule_file_with_a_bad_size_exits_2(tmp_path, capsys, field, value):
    sched_path = tmp_path / "sched.json"
    assert main(["schedule", "--d", "1", "--n", "1000", "--m", "10", "--eta", "0.5",
                 "--out", str(sched_path)]) == 0
    data = json.loads(sched_path.read_text())
    data["schedule"][field] = value
    sched_path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--d", "1", "--n", "1000", "--m", "10",
                           "--strategy", "windowed_1d", "--trials", "10", "--seed", "1",
                           "--schedule-json", str(sched_path))
    assert code == 2
    assert f"schedule {field} must be" in err and "Traceback" not in err


def test_simulate_runtime_reports_chunks_and_lead_table(capsys):
    entries = {}
    for strategy in ("lazy_max", "windowed_1d"):
        code, out, _ = run_cli(capsys, "simulate", "--d", "1", "--n", "1000", "--m", "10",
                               "--strategy", strategy, "--trials", "5000", "--seed", "3")
        assert code == 0
        runtime = json.loads(out)["runtime"]
        assert runtime["chunks"] == 2
        entries[strategy] = runtime["lead_table_entries"]
    assert entries == {"lazy_max": 101, "windowed_1d": 0}


_WINDOWED_2D = ("--d", "2", "--n", "10000", "--m", "100", "--epsilon", "0.5",
                "--theta", "0.45", "--kappa", "0.4")
_WINDOWED_2D_SPEC = {"name": "windowed_2d", "epsilon": 0.5, "theta": 0.45, "kappa": 0.4}


def test_simulate_windowed_2d_takes_the_schedule_flags(capsys):
    from targetwalk import ScheduleParams2D, build_schedule_2d

    code, out, _ = run_cli(capsys, "simulate", *_WINDOWED_2D, "--strategy",
                           "windowed_2d", "--trials", "2000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["strategy"] == _WINDOWED_2D_SPEC
    sched = build_schedule_2d(ScheduleParams2D(n=10_000, m=100, epsilon=0.5,
                                               theta=0.45, kappa=0.4))
    assert len(report["stage_stats"]) == sched.u + 1


def test_exact_eval_windowed_2d_takes_the_schedule_flags(capsys):
    from targetwalk import Problem, evaluate_strategy_exact
    from targetwalk.strategies import strategy_from_spec

    code, out, _ = run_cli(capsys, "exact", *_WINDOWED_2D, "--eval", "windowed_2d",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["strategy"] == _WINDOWED_2D_SPEC
    problem = Problem(d=2, n=10_000, m=100)
    value = evaluate_strategy_exact(strategy_from_spec(_WINDOWED_2D_SPEC, problem),
                                    problem)
    assert payload["value"] == value
    assert value == pytest.approx(0.05768416561659294, rel=1e-12)


_SIZE_1E6 = ("--n", "1000000", "--m", "100")


@pytest.mark.parametrize("argv", [
    ("schedule", "--d", "1", *_SIZE_1E6, "--eta", "0.00001"),
    ("schedule", "--d", "1", *_SIZE_1E6, "--eta", "1e-300"),
    ("schedule", "--d", "2", *_SIZE_1E6, "--epsilon", "0.5", "--theta", "0.45",
     "--kappa", "0.0001"),
    ("simulate", "--d", "1", *_SIZE_1E6, "--strategy", "windowed_1d", "--eta", "0.00001",
     "--trials", "10", "--seed", "1"),
    ("exact", "--d", "2", *_SIZE_1E6, "--eval", "windowed_2d", "--kappa", "0.0001"),
    ("schedule", "--d", "1", "--n", str(10**400), "--m", "2"),
    ("schedule", "--d", "1", "--n", str(10**800), "--m", str(10**700)),
    ("schedule", "--d", "2", "--n", str(10**800), "--m", str(10**700)),
], ids=["eta-1e-5", "eta-1e-300", "kappa-1e-4", "simulate-eta", "exact-kappa",
        "n-1e400", "1d-n-1e800", "2d-n-1e800"])
def test_bad_schedule_inputs_exit_2(capsys, argv):
    # tiny stage exponents pass the stage cap, and sizes past 2**1023 the
    # float range, in either dimension
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"{argv[0]} failed: ") and err.count("\n") == 1
    assert "cap 64" in err or "n must be at most 2**1023" in err


@pytest.mark.parametrize("field", ["n", "m"])
def test_simulate_sizes_past_the_int64_bound_exit_2(capsys, field):
    from targetwalk.samplers import MAX_STEPS

    def simulate(size):
        sizes = {"n": "10", "m": "2", field: str(size)}
        return run_cli(capsys, "simulate", "--d", "1", "--n", sizes["n"], "--m", sizes["m"],
                       "--strategy", "always_step", "--trials", "10", "--seed", "1")

    code, out, err = simulate(MAX_STEPS)
    assert code == 0 and json.loads(out)["trials"] == 10 and err == ""
    code, out, err = simulate(MAX_STEPS + 1)
    assert code == 2 and out == ""
    assert err == f"simulate failed: {field} must be <= {MAX_STEPS} for Monte Carlo, " \
                  f"got {MAX_STEPS + 1}\n"


def test_exact_accepts_a_stand_budget_past_the_int64_bound(capsys):
    # the exact engines keep m in Python ints; with m > n no stand block is
    # cut short within the horizon, so every value equals its value at m = n + 1
    for d in ("1", "2"):
        for eval_flags in ((), ("--eval", "always_step"), ("--eval", "lazy_max"),
                           ("--eval", "lazy_then_sprint")):
            values = []
            for m in ("11", str(10 ** 20)):
                code, out, err = run_cli(capsys, "exact", "--d", d, "--n", "10",
                                         "--m", m, *eval_flags)
                assert code == 0 and err == ""
                values.append(float(out))
            assert values[0] == values[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("schedule", "--d", "1", "--n", "1000", "--m", "10", "--out"),
    ("exact", "--d", "1", "--n", "40", "--m", "2", "--policy-out"),
], ids=["schedule", "exact-policy"])
def test_a_write_that_fails_after_the_check_exits_2(capsys, argv):
    # /dev/full opens for appending, so only the write itself fails
    code, out, err = run_cli(capsys, *argv, "/dev/full")
    assert code == 2 and out == ""
    assert err == "cannot write /dev/full: No space left on device\n"


def test_simulate_csv_format(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--d", "1", "--n", "20", "--m", "4",
                           "--strategy", "lazy_max", "--trials", "500",
                           "--seed", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("cell,d,n,m,strategy")
    assert ",lazy_max," in lines[1]


@pytest.mark.parametrize("flags", [("--per-window",), ("--store-failures", "3")])
def test_simulate_csv_refuses_what_its_row_cannot_hold(tmp_path, capsys, monkeypatch,
                                                       flags):
    # the one sweep row has no column for stage estimates or failures, so
    # these flags are bad input with --format csv, refused before any trial
    import targetwalk.mc as mc

    calls = []
    for name in ("estimate_success", "window_conditionals"):
        monkeypatch.setattr(mc, name, lambda *a, **k: calls.append(a))
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "simulate", "--d", "1", "--n", "10000", "--m", "100",
                             "--strategy", "windowed_1d", "--trials", "2000",
                             "--seed", "1", *flags, "--format", "csv",
                             "--out", str(path))
    assert code == 2 and out == "" and calls == [] and not path.exists()
    assert err == (f"simulate failed: the CSV row has no column for {flags[0]}; "
                   "use --format json\n")


def test_simulate_per_window_payload(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--d", "1", "--n", "200", "--m", "6",
                           "--strategy", "windowed_1d", "--trials", "2000",
                           "--seed", "7", "--per-window")
    assert code == 0
    data = json.loads(out)
    assert "window_conditionals" in data
    assert len(data["window_conditionals"]["stages"]) >= 3


def test_verify_reflection_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "reflection", "--fast")
    assert code == 0
    assert "[PASS] reflection.identity" in out


def test_verify_reflection_line_at_default_size(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "reflection")
    assert code == 0
    assert out == ("[PASS] reflection.identity: 4010 opposite-parity pairs equal "
                   "exactly, 4010 same-parity pairs excluded\n")


def test_verify_fast_report_is_pinned_and_warns_nothing(capsys):
    # verify pins its schedule sizes on purpose, so the regime warning that
    # ScheduleParams1D gives other callers stays silent inside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", "--fast")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "633d0cc5d30dcb4c0182b0a80f122974e2407e954a8d10d12c674e4ecd9c1057"


def test_verify_dominance_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dominance", "--fast")
    assert code == 0
    assert "[PASS] dominance.grid" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_trials_below_1_exits_2(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--suite", "invariants", "--fast",
                             "--trials", trials)
    assert code == 2
    assert out == "" and "trials" in err


def test_verify_one_trial_runs_every_invariant(capsys):
    # the delayed-step check runs trials // 10 walks, at least one
    code, out, _ = run_cli(capsys, "verify", "--suite", "invariants", "--fast",
                           "--trials", "1")
    assert code == 0
    assert "[PASS] invariants.delayed_step_mean" in out


def test_verify_detects_corrupted_build(capsys, monkeypatch):
    # simulate an off-by-one stand-budget bug and watch the invariants suite fail
    from targetwalk import strategies as strategies_mod
    from targetwalk.walk import Decision

    original = strategies_mod.Staged.decide

    def broken(self, w, j, i, phase):
        return Decision.STAND if j + 1 <= self.m else Decision.STEP

    monkeypatch.setattr(strategies_mod.Staged, "decide", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "invariants", "--fast",
                           "--trials", "2000")
    assert code == 1
    assert "[FAIL]" in out
    monkeypatch.setattr(strategies_mod.Staged, "decide", original)


def test_sweep_single_cell_matches_simulate(tmp_path, capsys):
    config = {"trials": 1000,
              "cells": [{"d": 1, "n": 100, "m": 5,
                         "strategy": {"name": "lazy_max"}}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path),
                         "--seed", "21", "--out", str(csv_path))
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("cell,d,n,m,strategy")
    sim_path = tmp_path / "sim.json"
    assert main(["simulate", "--d", "1", "--n", "100", "--m", "5",
                 "--strategy", "lazy_max", "--trials", "1000", "--seed", "21",
                 "--out", str(sim_path)]) == 0
    capsys.readouterr()
    sim = json.loads(sim_path.read_text())
    assert str(sim["successes"]) == rows[1].split(",")[9]


def test_sweep_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "--config", str(bad), "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("config", [[1, 2], {"cells": 5}, {"cells": [], "trials": "x"},
                                    {"cells": [], "trials": 0}, "cells"])
def test_sweep_config_of_the_wrong_shape_exits_2(tmp_path, capsys, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(bad), "--seed", "1")
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


def test_sweep_cells_of_the_wrong_shape_are_error_rows(tmp_path, capsys):
    good = {"d": 1, "n": 40, "m": 2, "strategy": {"name": "always_step"}}
    config = {"trials": 100,
              "cells": [3, dict(good, strategy="always_step"), good, {"d": 1}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--seed", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["status"] for row in rows] == ["error", "error", "ok", "error"]
    assert rows[0]["error"].startswith("TypeError")
    assert rows[1]["error"].startswith("TypeError")
    assert "3 cell(s) failed" in err


@pytest.mark.parametrize("flags", [("--threads", "0"), ("--threads", "-1"),
                                   ("--store-failures", "-1")])
def test_simulate_bad_threads_or_store_failures_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "simulate", "--d", "1", "--n", "40", "--m", "2",
                             "--strategy", "always_step", "--trials", "100",
                             "--seed", "1", *flags)
    assert code == 2
    assert out == "" and flags[0].lstrip("-").replace("-", "_") in err


def test_simulate_seed_outside_64_bits_exits_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--d", "1", "--n", "40", "--m", "2",
                             "--strategy", "always_step", "--trials", "100",
                             "--seed", "-1")
    assert code == 2
    assert out == "" and "master seed" in err


def test_sweep_seed_outside_64_bits_exits_2_before_any_cell(tmp_path, capsys):
    config = {"trials": 100,
              "cells": [{"d": 1, "n": 40, "m": 2, "strategy": {"name": "always_step"}}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    state = tmp_path / "state"
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path),
                             "--seed", str(2 ** 64 + 1), "--state-dir", str(state))
    assert code == 2
    assert out == "" and "master seed" in err and "cell(s) failed" not in err
    assert not state.exists() or list(state.iterdir()) == []


def test_verify_seed_outside_64_bits_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "dominance", "--fast",
                             "--seed", "-1")
    assert code == 2
    assert out == "" and "master seed" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_bad_threads_exit_2_before_any_cell(tmp_path, capsys, threads):
    config = {"trials": 100,
              "cells": [{"d": 1, "n": 40, "m": 2, "strategy": {"name": "always_step"}},
                        {"d": 1, "n": 40, "m": 4, "strategy": {"name": "lazy_max"}}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    state = tmp_path / "state"
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--seed", "1",
                             "--threads", threads, "--state-dir", str(state))
    assert code == 2
    assert out == "" and "threads" in err and "cell(s) failed" not in err
    assert not state.exists() or list(state.iterdir()) == []


def test_package_runs_as_a_module():
    # python -m targetwalk from a source checkout, as the tests import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "targetwalk", "exact", "--d", "1",
                          "--n", "2", "--m", "2"], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "0.5\n", "")


def test_the_regime_warning_is_one_stderr_line():
    # README's own example; ``warnings`` printed the CLI's source line too
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "targetwalk", "schedule", "--d", "1",
                          "--n", "1000000", "--m", "100", "--eta", "0.5"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0
    assert json.loads(run.stdout)["schedule"]["u"] == 4
    assert run.stderr == ("regime hypothesis weakly satisfied: "
                          "m^(1-eta)*log(m)/log(n)^2 = 0.241 < 10\n")


def test_a_schedule_far_past_the_cap_exits_2_at_once(capsys):
    # 5 990 000 stages: the exact powers of the count took 2.5 s to refuse it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "schedule", "--d", "1", "--n", str(3**600 + 5),
                             "--m", "3", "--eta", "0.0001")
    assert time.perf_counter() - start < 0.2
    assert (code, out, err) == (2, "", "schedule failed: stage count exceeds the cap 64\n")
