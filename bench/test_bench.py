"""Self-tests of the benchmark harness, on small instances of its tasks.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

They stay out of the package's own test suite, which collects ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import targetwalk as tw  # noqa: E402
import targetwalk.verify  # noqa: E402,F401
import references  # noqa: E402
import tracing  # noqa: E402
from worker import build_tasks, check_passes, run_pass  # noqa: E402
from workloads import (WORKLOADS, Task, Workload, evaluate_task, mc_task,  # noqa: E402
                       optimal_task, suite_task)


def _trajectory_task() -> Task:
    def build(tw, seed):
        problem = tw.Problem(d=1, n=50, m=4)
        return {"problem": problem, "strategy": tw.lazy_then_sprint(problem)}

    def run(tw, inputs):
        return [tw.run_trajectory(inputs["strategy"], inputs["problem"], seed)[1]
                for seed in range(20)]

    return Task("trajectories", build, run, lambda tw, inputs, out: None,
                canonical=repr)


def _small_tasks() -> list[Task]:
    w1 = {"name": "windowed_1d", "eta": 0.5}
    return [
        mc_task("windowed_1d", 1, 10_000, 100, w1, 300, 1),
        mc_task("windowed_2d", 2, 10_000, 100, {"name": "windowed_2d", "epsilon": 0.5},
                100, 1),
        mc_task("lazy_then_sprint_d1", 1, 2000, 20, {"name": "lazy_then_sprint"}, 300, 1),
        mc_task("lazy_max_d2", 2, 4096, 64, {"name": "lazy_max"}, 10_000, 2),
        optimal_task("optimal_d1", 1, 200, 8),
        optimal_task("optimal_full_d1", 1, 60, 4, full=True),
        evaluate_task("evaluate_windowed_1d", 1, 500, 10, w1),
        suite_task("reflection"),
        _trajectory_task(),
    ]


def _small_workload(tasks=_small_tasks) -> Workload:
    return Workload("small", "self-test", 1, tasks)


def _traced_pass(tasks_fn=_small_tasks):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup = tracer.start("setup")
        tasks = build_tasks(tw, _small_workload(tasks_fn), 7, tracer)
        run = tracer.start("pass")
        _, _, outputs = run_pass(tw, tasks, tracer)
    finally:
        tracer.uninstall()
    values, absent = tracing.layer_metrics([setup, run], tracer.missing)
    return tasks, outputs, values, absent, [setup, run]


def _canonical(tasks, outputs):
    out = []
    for task, (status, value) in zip(tasks, outputs):
        assert status == "ok", value
        out.append(task.canonical(value))
    return out


def test_traced_and_untraced_outputs_are_identical():
    tasks = build_tasks(tw, _small_workload(), 7)
    _, _, plain = run_pass(tw, tasks)
    traced_tasks, traced, _, _, _ = _traced_pass()
    assert _canonical(tasks, plain) == _canonical(traced_tasks, traced)
    # the MC reports compare as the byte-identical JSON the package promises
    report = plain[0][1]
    assert tasks[0].canonical(report) == report.to_json(include_runtime=False)


def test_count_metrics_repeat_exactly():
    _, _, first, _, _ = _traced_pass()
    _, _, second, _, _ = _traced_pass()
    counts = [m["name"] for m in tracing.LAYER_METRICS
              if m["unit"] in ("count", "bytes")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # every layer the small tasks reach did work
    for name in ("rng.trial_generator.calls", "rng.words", "samplers.chunks",
                 "samplers.trials.WindowedSampler", "samplers.trials.EndpointSampler",
                 "samplers.trials.LazySprintSampler", "schedule.build.calls",
                 "strategies.decide.calls", "exact.dp.cell_updates",
                 "exact.full_table.bytes", "exact.evaluate.cell_steps",
                 "walk.run_trajectory.calls", "walk.steps"):
        assert first[name] > 0, name
    assert first["walk.steps"] == 20 * 50
    assert first["exact.dp.cell_updates"] == 200 * 8 * 401 + 60 * 4 * 121
    assert first["samplers.trials.EndpointSampler"] == 10_000
    assert first["samplers.chunks"] == 1 + 1 + 1 + 3
    assert first["analysis.check_reflection.s"] > 0
    assert first["verify.suite.reflection.s"] >= first["analysis.check_reflection.s"]


def test_spans_are_written_with_their_parents(tmp_path):
    *_, recordings = _traced_pass()
    path = tmp_path / "spans.jsonl"
    tracing.write_spans(str(path), recordings)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == sum(len(r.spans) for r in recordings)
    for span in spans:
        assert span["parent"] is None or spans[span["parent"]]["start"] <= span["start"]
    # chunks run by the thread pool still belong to their estimate
    pooled = [s for s in spans if s["name"] == "samplers.run_chunk"
              and s["task"] == "lazy_max_d2"]
    assert len(pooled) == 3
    assert all(spans[s["parent"]]["name"] == "mc.estimate_success" for s in pooled)


def test_wrappers_are_removed():
    originals = {name: getattr(tw.mc, name) for name in ("estimate_success", "make_sampler")}
    run_chunk = vars(tw.samplers.PerTrialSampler)["run_chunk"]
    _traced_pass()
    assert tracing.leftover_wrappers() == []
    assert tw.estimate_success is originals["estimate_success"]
    assert tw.verify.estimate_success is originals["estimate_success"]
    assert tw.mc.make_sampler is originals["make_sampler"]
    assert vars(tw.samplers.PerTrialSampler)["run_chunk"] is run_chunk


def test_failing_task_is_counted_and_run_continues():
    def refused():
        def run(tw, inputs):
            return tw.optimal_value(tw.Problem(d=1, n=100_000, m=100))
        return Task("refused", lambda tw, seed: {}, run,
                    lambda tw, inputs, out: None, canonical=repr)

    def fine():
        def run(tw, inputs):
            return tw.optimal_value(tw.Problem(d=1, n=10, m=2))[0]
        return Task("fine", lambda tw, seed: {}, run,
                    lambda tw, inputs, out: None, canonical=repr)

    def tasks():
        return [refused(), fine()]

    built = build_tasks(tw, _small_workload(tasks), 1)
    passes = [run_pass(tw, built)[2] for _ in range(2)]
    failed, failures = check_passes(tw, built, passes)
    assert failed == 2
    assert {f["task"] for f in failures} == {"refused"}
    assert "BudgetError" in failures[0]["reason"]
    _, outputs, values, _, _ = _traced_pass(tasks)
    assert outputs[0][0] == "error" and outputs[1][0] == "ok"
    assert values["exact.budget_refusals"] == 1
    assert values["exact.errors"] == 1


def test_reference_checks_reject_wrong_outputs():
    task = optimal_task("optimal_d2_n300_m8", 2, 300, 8)
    pinned = references.EXACT["optimal_d2_n300_m8"]
    assert task.check(tw, {}, (pinned, 0, 0)) is None
    assert task.check(tw, {}, (pinned * (1 + 1e-9), 0, 0)) is not None

    class Report:
        p_hat = 0.0
    task = mc_task("lazy_max_d1_m64", 1, 2 ** 16, 64, {"name": "lazy_max"}, 200_000, 2)
    assert "standard errors" in task.check(tw, {}, Report())
    Report.p_hat = tw.ssrw_return_probability(2 ** 16 // 64, 1)
    assert task.check(tw, {}, Report()) is None


def test_missing_targets_are_marked_absent(monkeypatch):
    monkeypatch.delattr(tw.samplers, "LazySprintSampler")
    monkeypatch.delattr(tw.rng, "bit_sum_walk")

    def tasks():
        return [mc_task("windowed_1d", 1, 10_000, 100, {"name": "windowed_1d", "eta": 0.5},
                        50, 1)]

    _, outputs, values, absent, _ = _traced_pass(tasks)
    assert outputs[0][0] == "ok"
    assert absent["samplers.lazy_sprint.us_per_trial"] == \
        "missing targetwalk.samplers.LazySprintSampler"
    assert absent["rng.words"] == "missing targetwalk.rng.bit_sum_walk"
    assert values["rng.words"] == 0
    assert "samplers.windowed_d1.us_per_trial" not in absent
    assert values["samplers.windowed_d1.us_per_trial"] > 0
    assert tracing.leftover_wrappers() == []


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in tracing.LAYER_METRICS]
    names = [m["name"] for m in bench["end_to_end"]]
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_staged",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_tasks_build(name):
    tasks = build_tasks(tw, WORKLOADS[name], 3)
    assert tasks and all(t.setup_error is None for t in tasks)
