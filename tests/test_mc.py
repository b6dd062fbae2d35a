import json
import logging
import math

import pytest

from targetwalk import (McConfig, Problem, ScheduleParams1D,
                        build_schedule_1d, estimate_success, evaluate_strategy_exact,
                        ssrw_return_probability, sweep, wilson_interval,
                        window_conditionals)
from targetwalk.mc import sweep_to_csv
from targetwalk.strategies import windowed_1d


def test_wilson_interval_basic_properties():
    for s, n in ((0, 10), (10, 10), (3, 7), (500, 1000)):
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_zero_successes_closed_form():
    z = 1.959963984540054
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(z * z / (10 + z * z), abs=1e-12)


def test_estimate_deterministic_success():
    cfg = McConfig(problem=Problem(d=1, n=2, m=3), strategy={"name": "lazy_max"},
                   trials=500, master_seed=1)
    rep = estimate_success(cfg)
    assert rep.p_hat == 1.0 and rep.successes == 500
    assert rep.wilson_hi == 1.0


def test_estimate_always_step_covers_exact_value():
    cfg = McConfig(problem=Problem(d=1, n=10, m=1), strategy={"name": "always_step"},
                   trials=100_000, master_seed=2)
    rep = estimate_success(cfg)
    assert rep.wilson_lo <= 252 / 1024 <= rep.wilson_hi


def test_estimate_windowed_matches_exact_small():
    p = Problem(d=1, n=120, m=5)
    sched = build_schedule_1d(ScheduleParams1D(n=120, m=5, eta=0.5))
    exact = evaluate_strategy_exact(windowed_1d(sched, p), p)
    cfg = McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                   trials=40_000, master_seed=3, schedule=sched)
    rep = estimate_success(cfg)
    se = math.sqrt(exact * (1 - exact) / cfg.trials)
    assert abs(rep.p_hat - exact) < 3 * se


def test_delayed_windowed_three_way_agreement():
    p = Problem(d=1, n=60, m=4)
    sched = build_schedule_1d(ScheduleParams1D(n=60, m=4, eta=0.5))
    from targetwalk.strategies import delayed_wrapper, windowed_1d as w1d

    exact = evaluate_strategy_exact(delayed_wrapper(w1d(sched, p), p), p)
    cfg = McConfig(problem=p,
                   strategy={"name": "windowed_1d", "eta": 0.5, "delayed": True},
                   trials=40_000, master_seed=19, schedule=sched)
    se = math.sqrt(exact * (1 - exact) / cfg.trials)
    assert abs(estimate_success(cfg).p_hat - exact) < 3 * se
    assert abs(estimate_success(cfg, force_generic=True).p_hat - exact) < 3 * se


def test_batch_aborts_with_offending_trial_index():
    from targetwalk import AdmissibilityError, Decision
    from targetwalk.samplers import GenericSampler
    from targetwalk.strategies import Strategy

    class StanderAfterThree(Strategy):
        # stands unconditionally from time 4 on: violates once j would pass m-1
        name = "bad"
        signature = "wji"

        def decide(self, w, j, i, phase):
            return Decision.STAND if i >= 3 else Decision.STEP

    p = Problem(d=1, n=20, m=3)
    sampler = GenericSampler(p, StanderAfterThree())
    with pytest.raises(AdmissibilityError) as err:
        sampler.run_chunk(master_seed=1, lo=5, hi=9)
    assert err.value.trial_index == 5
    assert err.value.time_step is not None


def test_batch_names_the_lowest_offending_trial_not_the_earliest():
    """A lockstep chunk reports the lowest trial index that violates, as the
    per-trial loop did, even when a higher trial violates earlier in time.

    The strategy steps twice and then, by its position w at time 2, stands
    from time 2 (w = 2, inadmissible at time 4 with m = 2), stands from time
    6 (w = -2, inadmissible at time 8) or keeps stepping (w = 0).  Both of
    its first two steps draw one move for every trial, as always_step's do,
    so always_step over two steps on the same chunk stream gives each
    trial's w at time 2."""
    from targetwalk import AdmissibilityError, Decision
    from targetwalk.rng import step_chunk_generator
    from targetwalk.samplers import GenericSampler
    from targetwalk.strategies import Strategy, always_step
    from targetwalk.walk import _lockstep

    class StandLaterOnTheLeft(Strategy):
        name = "stand_later_on_the_left"
        signature = "wjip"

        def decide(self, w, j, i, phase):
            if (phase == 2 and i >= 2) or (phase == -2 and i >= 6):
                return Decision.STAND
            return Decision.STEP

        def next_phase(self, phase, i_next, w_next, j_next):
            return w_next if i_next == 2 else phase

    k, seed = 16, 15
    *_, (_, _, at_2) = _lockstep(always_step(), Problem(d=1, n=2, m=2), k,
                                 step_chunk_generator(seed, 0))
    w2 = at_2[0]
    offenders = [i for i in range(k) if w2[i] != 0]
    lowest = offenders[0]
    # the case under test: the lowest offender violates at time 8 and a
    # higher trial at time 4
    assert w2[lowest] == -2 and any(w2[i] == 2 for i in offenders[1:])
    with pytest.raises(AdmissibilityError) as err:
        GenericSampler(Problem(d=1, n=10, m=2), StandLaterOnTheLeft()).run_chunk(
            master_seed=seed, lo=0, hi=k)
    assert err.value.trial_index == lowest
    assert err.value.time_step == 8


@pytest.mark.parametrize("spec", [{"name": "lazy_then_sprint"},
                                  {"name": "windowed_1d", "delayed": True}])
def test_generic_reports_identical_across_thread_counts(spec):
    # three chunks, the last one short; failures are stored as well
    p = Problem(d=1, n=40, m=4)
    reports = [estimate_success(McConfig(problem=p, strategy=spec, trials=9_000,
                                         master_seed=8, threads=threads,
                                         store_failures=6), force_generic=True)
               for threads in (1, 2)]
    assert reports[0].sampler == "generic"
    assert len(reports[0].failures) == 6
    assert reports[0].to_json(include_runtime=False) == \
        reports[1].to_json(include_runtime=False)


def test_fast_and_generic_samplers_agree_in_law():
    p = Problem(d=1, n=80, m=4)
    cfg = McConfig(problem=p, strategy={"name": "lazy_then_sprint"},
                   trials=30_000, master_seed=4)
    fast = estimate_success(cfg)
    generic = estimate_success(cfg, force_generic=True)
    from targetwalk.strategies import lazy_then_sprint

    exact = evaluate_strategy_exact(lazy_then_sprint(p), p)
    se = math.sqrt(exact * (1 - exact) / cfg.trials)
    assert abs(fast.p_hat - exact) < 3 * se
    assert abs(generic.p_hat - exact) < 3 * se


@pytest.mark.parametrize("threads", [1, 4, 8])
def test_reports_identical_across_thread_counts(threads):
    p = Problem(d=1, n=200, m=6)
    cfg = McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                   trials=9_000, master_seed=5, threads=threads)
    rep = estimate_success(cfg)
    base = estimate_success(McConfig(problem=p,
                                     strategy={"name": "windowed_1d", "eta": 0.5},
                                     trials=9_000, master_seed=5, threads=1))
    assert rep.to_json(include_runtime=False) == base.to_json(include_runtime=False)


def test_report_json_shape():
    cfg = McConfig(problem=Problem(d=1, n=10, m=2), strategy={"name": "lazy_max"},
                   trials=100, master_seed=6)
    data = estimate_success(cfg).to_json_dict()
    assert data["schema_version"] == 1
    assert data["problem"] == {"d": 1, "n": 10, "m": 2}
    assert set(("trials", "successes", "p_hat", "wilson_lo", "wilson_hi")) <= set(data)
    assert "wall_time_s" in data["runtime"]


def test_store_failures_records_trial_indices():
    cfg = McConfig(problem=Problem(d=1, n=9, m=1), strategy={"name": "always_step"},
                   trials=50, master_seed=7, store_failures=5)
    rep = estimate_success(cfg)
    assert rep.failures is not None and len(rep.failures) == 5
    idx, final = rep.failures[0]
    assert 0 <= idx < 50 and final != 0


def test_wilson_coverage_calibration():
    # exact p known; 95% interval must cover it in >= 93% of 200 pinned seeds
    p_true = 252 / 1024
    covered = 0
    for s in range(200):
        cfg = McConfig(problem=Problem(d=1, n=10, m=1),
                       strategy={"name": "always_step"}, trials=1000,
                       master_seed=10_000 + s)
        rep = estimate_success(cfg)
        covered += rep.wilson_lo <= p_true <= rep.wilson_hi
    assert covered >= 0.93 * 200


def test_window_conditionals_structure():
    p = Problem(d=1, n=200, m=6)
    sched = build_schedule_1d(ScheduleParams1D(n=200, m=6, eta=0.5))
    cfg = McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                   trials=20_000, master_seed=8, schedule=sched)
    out = window_conditionals(cfg)
    stages = out["stages"]
    assert len(stages) == sched.u + 1
    last = stages[-1]
    # terminal stage: after the hit the walk stands at the origin
    assert last["overshoot_events"] == 0 and last["overshoot_trials"] == 0
    for row in stages:
        if row["status"] == "ok":
            # leaving the window splits into "never hit" plus "hit but drifted
            # out" (plus earlier failures); the split can only over-count since
            # a failed seek may still end inside the window
            fails = (row["no_hit_events"] + row["overshoot_events"]
                     + row["failed_prior_events"])
            assert row["cond_events"] - row["stay_events"] <= fails
            assert 0 <= row["wilson_lo"] <= row["p_stay"] <= row["wilson_hi"] <= 1
    # staged product is a lower-bound shape: must not exceed p_hat by noise
    n_eff = min(r["cond_events"] for r in stages)
    se = math.sqrt(out["p_hat"] * (1 - out["p_hat"]) / out["trials"]
                   + 1.0 / max(n_eff, 1))
    assert out["stage_product"] <= out["p_hat"] + 3 * se


def test_window_conditionals_insufficient_data():
    # the rule, not one seed's draws: a stage with no conditioning event is
    # "insufficient data", and then the stage product is undefined
    p = Problem(d=1, n=40, m=3)
    sched = build_schedule_1d(ScheduleParams1D(n=40, m=3, eta=0.5))
    reached = 0
    for seed in range(20):
        cfg = McConfig(problem=p, strategy={"name": "windowed_1d", "eta": 0.5},
                       trials=2, master_seed=seed, schedule=sched)
        out = window_conditionals(cfg)
        empty = [r["cond_events"] == 0 for r in out["stages"]]
        for row, none in zip(out["stages"], empty):
            assert (row["status"] == "insufficient data") == none
            assert (row["p_stay"] is None) == none
        assert (out["stage_product"] is None) == any(empty)
        reached += any(empty)
    assert reached >= 1


def test_window_conditionals_requires_windowed():
    cfg = McConfig(problem=Problem(d=1, n=10, m=2), strategy={"name": "lazy_max"},
                   trials=10, master_seed=1)
    with pytest.raises(ValueError):
        window_conditionals(cfg)


def test_single_cell_sweep_equals_estimate():
    cell = {"d": 1, "n": 100, "m": 5,
            "strategy": {"name": "windowed_1d", "eta": 0.5}, "trials": 3000}
    rows = sweep([cell], master_seed=9)
    cfg = McConfig(problem=Problem(d=1, n=100, m=5),
                   strategy={"name": "windowed_1d", "eta": 0.5},
                   trials=3000, master_seed=9)
    rep = estimate_success(cfg)
    assert rows[0]["successes"] == rep.successes
    assert rows[0]["p_hat"] == rep.p_hat


def test_sweep_lazy_monotone_in_m():
    # floor(n/m) kept even so the lazy success probability is positive
    n = 20_000
    cells = [{"d": 1, "n": n, "m": m, "strategy": {"name": "lazy_max"}}
             for m in (25, 100, 400)]
    rows = sweep(cells, master_seed=10, default_trials=40_000)
    ps = [r["p_hat"] for r in rows]
    assert ps[0] < ps[1] < ps[2]
    for r, m in zip(rows, (25, 100, 400)):
        exact = ssrw_return_probability(n // m, 1)
        se = math.sqrt(exact * (1 - exact) / r["trials"])
        assert abs(r["p_hat"] - exact) < 4 * se


def test_sweep_records_errors_and_continues():
    cells = [{"d": 1, "n": 10, "m": 2, "strategy": {"name": "nope"}},
             {"d": 1, "n": 10, "m": 2, "strategy": {"name": "always_step"}}]
    rows = sweep(cells, master_seed=11, default_trials=100)
    assert rows[0]["status"] == "error" and "unknown strategy" in rows[0]["error"]
    assert rows[1]["status"] == "ok"


@pytest.mark.parametrize("sizes,field", [({"n": 100.5}, "n"), ({"m": 2.5}, "m"),
                                         ({"n": True, "m": True}, "n"),
                                         ({"d": 1.0}, "d")])
def test_sweep_non_integer_sizes_are_error_rows(sizes, field):
    good = {"d": 1, "n": 100, "m": 4, "strategy": {"name": "lazy_max"}}
    rows = sweep([dict(good, **sizes), good], master_seed=3, default_trials=100)
    assert rows[0]["status"] == "error"
    assert rows[0]["error"].startswith(f"ValueError: {field} must be an integer")
    assert rows[0]["successes"] is None
    assert rows[1]["status"] == "ok"


@pytest.mark.parametrize("trials", [2.5, 1e4, True, "7", 0, -3, None])
def test_sweep_cell_trials_must_be_a_positive_integer(tmp_path, trials):
    # truncating 2.5 to 2 trials, true to 1 or "7" to 7 would report a run
    # nobody asked for as status=ok
    good = {"d": 1, "n": 100, "m": 4, "strategy": {"name": "lazy_max"}}
    rows = sweep([dict(good, trials=trials), good], master_seed=3,
                 default_trials=100, out_dir=str(tmp_path))
    assert rows[0]["status"] == "error"
    assert rows[0]["error"].startswith("ValueError: trials must be")
    assert rows[1]["status"] == "ok" and rows[1]["trials"] == 100
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cell_0001.json"]


@pytest.mark.parametrize("bad", [{"threads": 0}, {"threads": -1},
                                 {"store_failures": -1}, {"threads": 1.5},
                                 {"threads": True}, {"store_failures": 0.5},
                                 {"store_failures": "2"}])
def test_config_rejects_bad_threads_and_store_failures(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        McConfig(problem=Problem(d=1, n=10, m=2), strategy={"name": "always_step"},
                 trials=100, master_seed=1, **bad)


def test_sweep_rejects_bad_threads_before_any_cell(tmp_path):
    cells = [{"d": 1, "n": 10, "m": 2, "strategy": {"name": "always_step"}}]
    with pytest.raises(ValueError, match="threads"):
        sweep(cells, master_seed=11, default_trials=100, threads=0,
              out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_sweep_retries_a_failed_cell_on_rerun(tmp_path, monkeypatch):
    import targetwalk.mc as mc_mod

    cells = [{"d": 1, "n": 50, "m": 3, "strategy": {"name": "lazy_max"},
              "trials": 500},
             {"d": 1, "n": 40, "m": 2, "strategy": {"name": "always_step"},
              "trials": 500}]
    fresh = sweep(cells, master_seed=12)
    real = mc_mod.estimate_success
    calls = []

    def fails_once_on_cell_1(config, **kwargs):
        calls.append(config.problem.n)
        if config.problem.n == 40 and calls.count(40) == 1:
            raise MemoryError("transient")
        return real(config, **kwargs)

    monkeypatch.setattr(mc_mod, "estimate_success", fails_once_on_cell_1)
    first = sweep(cells, master_seed=12, out_dir=str(tmp_path))
    assert [r["status"] for r in first] == ["ok", "error"]
    assert not (tmp_path / "cell_0001.json").exists()
    second = sweep(cells, master_seed=12, out_dir=str(tmp_path))
    assert calls == [50, 40, 40]            # cell 0 resumed, cell 1 retried
    assert second == fresh
    assert (tmp_path / "cell_0001.json").exists()
    # a marker of a failed cell, as earlier versions wrote, is retried too
    marker = tmp_path / "cell_0001.json"
    mc_mod._write_marker(str(marker), first[1], mc_mod._marker_key(cells[1], 12, 500))
    assert sweep(cells, master_seed=12, out_dir=str(tmp_path)) == fresh
    assert calls == [50, 40, 40, 40]
    assert json.loads(marker.read_text())["status"] == "ok"


def test_sweep_resumes_from_markers(tmp_path):
    cells = [{"d": 1, "n": 50, "m": 3, "strategy": {"name": "lazy_max"},
              "trials": 500}]
    first = sweep(cells, master_seed=12, out_dir=str(tmp_path))
    marker = tmp_path / "cell_0000.json"
    assert marker.exists()
    # tamper with the marker; a resumed sweep must trust it (skip recompute)
    data = json.loads(marker.read_text())
    data["p_hat"] = -1.0
    marker.write_text(json.dumps(data))
    second = sweep(cells, master_seed=12, out_dir=str(tmp_path))
    assert second[0]["p_hat"] == -1.0
    assert first[0]["p_hat"] != -1.0


def test_sweep_recomputes_a_torn_marker(tmp_path, caplog):
    cells = [{"d": 1, "n": 50, "m": 3, "strategy": {"name": "lazy_max"},
              "trials": 500}]
    first = sweep(cells, master_seed=12, out_dir=str(tmp_path))
    marker = tmp_path / "cell_0000.json"
    text = marker.read_text()
    marker.write_text(text[:len(text) // 2])
    with caplog.at_level(logging.WARNING, logger="targetwalk.mc"):
        second = sweep(cells, master_seed=12, out_dir=str(tmp_path))
    assert second == first
    assert "cell_0000.json" in caplog.text
    assert marker.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cell_0000.json"]


def test_sweep_recomputes_a_marker_of_another_config(tmp_path, caplog):
    cell = {"d": 1, "n": 50, "m": 3, "strategy": {"name": "lazy_max"},
            "trials": 500}
    sweep([cell], master_seed=12, out_dir=str(tmp_path))
    changed = [dict(cell, strategy={"name": "always_step"})]
    with caplog.at_level(logging.WARNING, logger="targetwalk.mc"):
        rows = sweep(changed, master_seed=12, out_dir=str(tmp_path))
    assert rows[0]["strategy"] == "always_step"
    assert rows == sweep(changed, master_seed=12)
    assert "cell_0000.json" in caplog.text
    # the master seed and the trial count are part of the key as well
    assert (sweep(changed, master_seed=13, out_dir=str(tmp_path))
            == sweep(changed, master_seed=13))
    assert (sweep(changed, master_seed=13, default_trials=300,
                  out_dir=str(tmp_path)) == sweep(changed, master_seed=13))
    fewer = [dict(changed[0], trials=400)]
    assert (sweep(fewer, master_seed=13, out_dir=str(tmp_path))
            == sweep(fewer, master_seed=13))


def test_sweep_csv_columns(tmp_path):
    import io

    rows = sweep([{"d": 1, "n": 20, "m": 2, "strategy": {"name": "always_step"},
                   "trials": 100}], master_seed=13)
    buf = io.StringIO()
    sweep_to_csv(rows, buf)
    header = buf.getvalue().splitlines()[0]
    assert header.startswith("cell,d,n,m,strategy,delayed,params,trials")
