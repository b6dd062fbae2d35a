"""Run one workload in this process and print one JSON line about it.

Started by ``run.py`` in a fresh interpreter, so that imports, set-up and
peak memory belong to one workload.  The passes repeat the workload's fixed
task list with the same inputs until ``--seconds`` would be exceeded; each
pass is timed, and outputs are checked after the last pass.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the time the tracing overhead is measured against, the traced ones the
per-layer metrics.  ``--setup-only`` stops once the first task is ready.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package():
    import targetwalk
    import targetwalk.verify  # noqa: F401  (run_suite is reached as tw.verify)

    expected = os.path.join(ROOT, "src", "targetwalk")
    if os.path.dirname(os.path.abspath(targetwalk.__file__)) != expected:
        raise ImportError(f"targetwalk was imported from {targetwalk.__file__}, "
                          f"not from {expected}")
    return targetwalk


def build_tasks(tw, workload, seed, tracer=None):
    """Build every task's inputs; a task whose set-up raises keeps the error."""
    tasks = workload.tasks()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        try:
            task.inputs = task.build(tw, seed)
        except Exception:
            task.setup_error = traceback.format_exc(limit=-1).strip()
    return tasks


def run_pass(tw, tasks, tracer=None):
    """Run the task list once: (wall seconds, per-task seconds, outputs)."""
    outputs, seconds = [], {}
    t_pass = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        t0 = time.perf_counter()
        if task.setup_error is not None:
            outputs.append(("error", task.setup_error))
            continue
        try:
            outputs.append(("ok", task.run(tw, task.inputs)))
        except Exception:
            outputs.append(("error", traceback.format_exc(limit=-1).strip()))
        seconds[task.name] = time.perf_counter() - t0
    return time.perf_counter() - t_pass, seconds, outputs


def task_medians(per_pass: list[dict]) -> dict:
    """Median seconds of each task over the passes in which it ran."""
    names = dict.fromkeys(name for seconds in per_pass for name in seconds)
    return {name: statistics.median(s[name] for s in per_pass if name in s)
            for name in names}


def check_passes(tw, tasks, passes):
    """Count failed (task, pass) pairs: raised, missed the reference, or
    differed from the first pass (every pass runs the same inputs)."""
    failed, failures = 0, []
    for i, task in enumerate(tasks):
        verdicts = {}
        first = None
        for outputs in passes:
            status, out = outputs[i]
            if status == "error":
                reason = out
            else:
                text = task.canonical(out)
                first = text if first is None else first
                if text != first:
                    reason = "output differs from the first pass"
                else:
                    if text not in verdicts:
                        try:
                            verdicts[text] = task.check(tw, task.inputs, out)
                        except Exception:
                            verdicts[text] = traceback.format_exc(limit=-1).strip()
                    reason = verdicts[text]
            if reason is not None:
                failed += 1
                failures.append({"task": task.name, "reason": reason})
    return failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    tw = _import_package()
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        setup_rec = tracer.start("setup")
    tasks = build_tasks(tw, workload, args.seed, tracer)
    ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # Alternate untraced and traced passes when tracing; stop before a pass
    # that would end after the time budget, keeping at least one of each.
    kinds = ("plain", "traced") if tracer is not None else ("plain",)
    walls = {kind: [] for kind in kinds}
    task_seconds = {kind: [] for kind in kinds}
    passes, traced_layers = [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        if kind == "traced":
            tracer.install()
            rec = tracer.start(f"pass{k}")
        try:
            wall, seconds, outputs = run_pass(tw, tasks, tracer if kind == "traced" else None)
        finally:
            if kind == "traced":
                tracer.uninstall()
        walls[kind].append(wall)
        task_seconds[kind].append(seconds)
        passes.append(outputs)
        if kind == "traced":
            traced_layers.append(rec)
        k += 1
        nxt = kinds[k % len(kinds)]
        predicted = walls[nxt][-1] if walls[nxt] else walls[kind][-1]
        if all(walls.values()) and time.perf_counter() + predicted > deadline:
            break

    failed, failures = check_passes(tw, tasks, passes)
    medians = {kind: task_medians(task_seconds[kind]) for kind in kinds}
    import numpy
    import scipy
    result = {
        "ready": ready,
        "walls": walls,
        # the task list's time: a slow spell that hits different tasks in
        # different passes does not reach a sum of per-task medians
        "wall_s": sum(medians["plain"].values()),
        "task_seconds": medians["plain"],
        "attempted": len(tasks) * len(passes),
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "threads": workload.threads,
    }
    if tracer is not None:
        from tracing import layer_metrics, write_spans
        spans_file = os.path.join(ROOT, ".bench_trace",
                                  f"{args.workload}-seed{args.seed}.jsonl")
        write_spans(spans_file, [setup_rec, traced_layers[0]])
        per_pass = [layer_metrics([setup_rec, rec], tracer.missing)
                    for rec in traced_layers]
        absent = per_pass[0][1]
        layers = {name: statistics.median(values[name] for values, _ in per_pass)
                  for name in per_pass[0][0]}
        traced = sum(medians["traced"].values())
        layers["trace.overhead"] = (traced / result["wall_s"] - 1.0
                                    if result["wall_s"] else 0.0)
        result.update(layers=layers, absent=absent, missing=tracer.missing,
                      spans_file=os.path.relpath(spans_file, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
