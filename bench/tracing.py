"""Tracing for the benchmark's traced run, from outside the package.

``Tracer.install`` wraps the public functions of each layer where their
callers look them up: every ``targetwalk`` module attribute bound to a
target function is replaced, and methods are replaced on the classes that
define them.  Coarse calls record spans (name, start, end, parent span,
task); hot calls (``trial_generator``, ``run_trajectory``) are only counted
and timed, and ``decide`` is only counted.  ``uninstall`` puts every
original back.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics listed in ``layers.json``.

A target that no longer exists is skipped and the metrics that need it are
reported as 0 and named in ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("rng", "samplers", "mc", "schedule", "strategies", "exact", "walk",
          "analysis", "verify")

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "layers.json")) as _fh:
    LAYER_METRICS = json.load(_fh)["metrics"]


def _bound_args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _words_attrs(bind):
    def attrs(args, kwargs):
        a = bind(args, kwargs)
        return {"rows": len(a["trial_indices"]), "words": (a["n_steps"] + 63) // 64}
    return attrs


def _problem_attrs(bind):
    def attrs(args, kwargs):
        a = bind(args, kwargs)
        p = a["problem"]
        out = {"d": p.d, "n": p.n, "m": p.m}
        if "keep" in a:
            out["full"] = a["keep"] == "full" or bool(a.get("want_policy"))
        return out
    return attrs


def _chunk_attrs(bind):
    def attrs(args, kwargs):
        a = bind(args, kwargs)
        sampler = a["self"]
        problem = getattr(sampler, "problem", None)
        return {"cls": type(sampler).__name__, "trials": a["hi"] - a["lo"],
                "d": getattr(problem, "d", None)}
    return attrs


def _suite_attrs(bind):
    return lambda args, kwargs: {"suite": bind(args, kwargs)["name"]}


def _steps_count(bind):
    return lambda args, kwargs: {"walk.steps": bind(args, kwargs)["problem"].n}


# (qualified name, kind, metric name, layer, per-call hook factory)
# kind: "span" records a span, "timed" counts and times, "count" counts.
FUNCTION_TARGETS = (
    ("targetwalk.rng.trial_generator", "timed", "rng.trial_generator", "rng", None),
    ("targetwalk.walk.trial_generator", "timed", "rng.trial_generator", "rng", None),
    ("targetwalk.verify.trial_generator", "timed", "rng.trial_generator", "rng", None),
    ("targetwalk.rng.bit_sum_walk", "span", "rng.bit_sum_walk", "rng", _words_attrs),
    ("targetwalk.mc.make_sampler", "span", "mc.make_sampler", "mc", None),
    ("targetwalk.mc.estimate_success", "span", "mc.estimate_success", "mc", None),
    ("targetwalk.verify.estimate_success", "span", "mc.estimate_success", "mc", None),
    ("targetwalk.schedule.build_schedule_1d", "span", "schedule.build", "schedule", None),
    ("targetwalk.schedule.build_schedule_2d", "span", "schedule.build", "schedule", None),
    ("targetwalk.strategies.strategy_from_spec", "span", "strategies.from_spec",
     "strategies", None),
    ("targetwalk.exact.optimal_value", "span", "exact.optimal_value", "exact",
     _problem_attrs),
    ("targetwalk.exact.evaluate_strategy_exact", "span", "exact.evaluate", "exact",
     _problem_attrs),
    ("targetwalk.walk.run_trajectory", "timed", "walk.run_trajectory", "walk",
     _steps_count),
    ("targetwalk.analysis.check_reflection", "span", "analysis.check_reflection",
     "analysis", None),
    ("targetwalk.analysis.check_local_time_ratio", "span",
     "analysis.check_local_time_ratio", "analysis", None),
    ("targetwalk.analysis.check_hoeffding", "span", "analysis.check_hoeffding",
     "analysis", None),
    ("targetwalk.verify.run_suite", "span", "verify.suite", "verify", _suite_attrs),
)

# (module, base class, method, kind, metric name, layer, hook factory):
# the method is wrapped on every subclass of the base that defines it.
METHOD_TARGETS = (
    ("targetwalk.samplers", "Sampler", "run_chunk", "span", "samplers.run_chunk",
     "samplers", _chunk_attrs),
    ("targetwalk.strategies", "Strategy", "decide", "count", "strategies.decide",
     "strategies", None),
)


def resolve(qualname: str):
    """The object a dotted name refers to, or None if it no longer exists."""
    parts = qualname.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "attrs", "hot")

    def __init__(self, name, parent, task, attrs):
        self.name = name
        self.parent = parent
        self.task = task
        self.attrs = attrs or {}
        self.hot = defaultdict(float)
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recording:
    """Spans, counts and hot-call times of one phase of a run.

    Counts and times are kept per thread, so the hot wrappers update them
    without taking a lock; ``counts`` and ``timed`` sum the threads.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._threads: dict[int, tuple[dict, dict]] = {}

    def mine(self) -> tuple[dict, dict]:
        """The calling thread's (counts, seconds) tables."""
        ident = threading.get_ident()
        tables = self._threads.get(ident)
        if tables is None:
            tables = self._threads.setdefault(
                ident, (defaultdict(int), defaultdict(float)))
        return tables

    def _sum(self, which: int) -> dict:
        out = defaultdict(int if which == 0 else float)
        for tables in list(self._threads.values()):
            for key, value in tables[which].items():
                out[key] += value
        return out

    @property
    def counts(self) -> dict:
        return self._sum(0)

    @property
    def timed(self) -> dict:
        return self._sum(1)


class Tracer:
    def __init__(self):
        self.recording = Recording()
        self.task = None
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _error(self, layer: str, exc: BaseException) -> None:
        counts, _ = self.recording.mine()
        counts[f"{layer}.errors"] += 1
        if layer == "exact" and type(exc).__name__ == "BudgetError":
            counts["exact.budget_refusals"] += 1

    def _span_wrapper(self, fn, name, layer, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span belongs to the call that started it
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(name, parent, tracer.task,
                        attrs(args, kwargs) if attrs else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.recording.spans.append(span)
        return wrapper

    def _timed_wrapper(self, fn, name, layer, counts):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise
            finally:
                dt = time.perf_counter() - t0
                for span in tracer._stack():
                    span.hot[name] += dt
                mine, seconds = tracer.recording.mine()
                mine[key] += 1
                seconds[name] += dt
                if counts:
                    for extra, value in counts(args, kwargs).items():
                        mine[extra] += value
        return wrapper

    def _count_wrapper(self, fn, name, layer, _hook):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.recording.mine()[0][key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(layer, exc)
                raise
        return wrapper

    def _wrap(self, fn, kind, name, layer, hook):
        factory = {"span": self._span_wrapper, "timed": self._timed_wrapper,
                   "count": self._count_wrapper}[kind]
        wrapper = factory(fn, name, layer, hook(_bound_args(fn)) if hook else None)
        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "targetwalk" or name.startswith("targetwalk.")]
        for qualname, kind, name, layer, hook in FUNCTION_TARGETS:
            fn = resolve(qualname)
            if not callable(fn):
                self.missing.append(qualname)
                continue
            if hasattr(fn, "__bench_wrapped__"):
                continue            # an alias of a target wrapped above
            wrapper = self._wrap(fn, kind, name, layer, hook)
            # patch every alias, so each caller's lookup finds the wrapper
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)
        for modname, basename, method, kind, name, layer, hook in METHOD_TARGETS:
            base = resolve(f"{modname}.{basename}")
            if not isinstance(base, type):
                self.missing.append(f"{modname}.{basename}")
                continue
            for cls in vars(sys.modules[modname]).values():
                if (isinstance(cls, type) and issubclass(cls, base)
                        and method in vars(cls)):
                    self._set(cls, method,
                              self._wrap(vars(cls)[method], kind, name, layer, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start(self, task=None) -> Recording:
        """Begin a fresh recording; returns it."""
        self.recording = Recording()
        self.task = task
        return self.recording


def write_spans(path: str, recordings: list[Recording]) -> None:
    """Write the spans as JSON lines, times in seconds from the first start."""
    spans = sorted((s for r in recordings for s in r.spans), key=lambda s: s.start)
    ids = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                "parent": ids.get(id(s.parent)), "task": s.task, "attrs": s.attrs,
                "hot": dict(s.hot)}) + "\n")


def leftover_wrappers() -> list[str]:
    """Names in ``targetwalk`` still bound to a tracing wrapper."""
    out = []
    for modname, module in list(sys.modules.items()):
        if modname != "targetwalk" and not modname.startswith("targetwalk."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__bench_wrapped__"):
                out.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                out += [f"{modname}.{attr}.{m}" for m, v in vars(value).items()
                        if hasattr(v, "__bench_wrapped__")]
    return out


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(recordings: list[Recording], missing: list[str]):
    """Per-layer metric values over the recordings, and the absent ones."""
    spans = [s for r in recordings for s in r.spans]
    counts, timed = defaultdict(int), defaultdict(float)
    for r in recordings:
        for k, v in r.counts.items():
            counts[k] += v
        for k, v in r.timed.items():
            timed[k] += v
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in by_name[name] if keep(s))

    def descendants(span, name):
        out, todo = [], list(children[id(span)])
        while todo:
            s = todo.pop()
            if s.name == name:
                out.append(s)
            todo.extend(children[id(s)])
        return out

    def self_us_per_trial(keep):
        """run_chunk self time minus trial_generator time, per trial."""
        chunks = [s for s in by_name["samplers.run_chunk"] if keep(s.attrs)]
        busy = sum(s.duration
                   - _union_length((c.start, c.end) for c in children[id(s)])
                   - s.hot["rng.trial_generator"]
                   for s in chunks)
        return _ratio(busy * 1e6, sum(s.attrs["trials"] for s in chunks))

    chunk_trials = defaultdict(int)
    for s in by_name["samplers.run_chunk"]:
        chunk_trials[s.attrs["cls"]] += s.attrs["trials"]
    bits = by_name["rng.bit_sum_walk"]
    words = sum(s.attrs["rows"] * s.attrs["words"] for s in bits)
    estimates = by_name["mc.estimate_success"]
    estimate_chunks = [(e, descendants(e, "samplers.run_chunk")) for e in estimates]
    dp = by_name["exact.optimal_value"]
    evals = by_name["exact.evaluate"]

    def dp_cells(s):
        a = s.attrs
        return a["n"] * a["m"] * (2 * a["n"] + 1) ** a["d"]

    def dp_rate(d):
        keep = [s for s in dp if s.attrs["d"] == d]
        return _ratio(sum(dp_cells(s) for s in keep), sum(s.duration for s in keep))

    def eval_cells(s):
        return (2 * s.attrs["n"] + 1) ** s.attrs["d"] * s.attrs["n"]

    suites = defaultdict(float)
    for s in by_name["verify.suite"]:
        suites[s.attrs["suite"]] += s.duration
    values = {
        "rng.trial_generator.calls": counts["rng.trial_generator.calls"],
        "rng.trial_generator.us_per_call": _ratio(
            timed["rng.trial_generator"] * 1e6, counts["rng.trial_generator.calls"]),
        "rng.bit_sum_walk.calls": len(bits),
        "rng.words": words,
        "rng.words_per_s": _ratio(words, total("rng.bit_sum_walk")),
        "rng.word_bytes_peak": max((s.attrs["rows"] * s.attrs["words"] * 8
                                    for s in bits), default=0),
        "samplers.run_chunk.s": total("samplers.run_chunk"),
        "samplers.chunks": len(by_name["samplers.run_chunk"]),
        "samplers.generic_trials": chunk_trials["GenericSampler"],
        "samplers.windowed_d1.us_per_trial": self_us_per_trial(
            lambda a: a["cls"] == "WindowedSampler" and a["d"] == 1),
        "samplers.windowed_d2.us_per_trial": self_us_per_trial(
            lambda a: a["cls"] == "WindowedSampler" and a["d"] == 2),
        "samplers.lazy_sprint.us_per_trial": self_us_per_trial(
            lambda a: a["cls"] == "LazySprintSampler"),
        "samplers.endpoint.us_per_trial": _ratio(
            total("samplers.run_chunk", lambda s: s.attrs["cls"] == "EndpointSampler")
            * 1e6, chunk_trials["EndpointSampler"]),
        "mc.estimate_success.s": total("mc.estimate_success"),
        "mc.self_s": sum(e.duration - _union_length(
            (max(c.start, e.start), min(c.end, e.end)) for c in cs)
            for e, cs in estimate_chunks),
        "mc.parallelism": _ratio(
            sum(c.duration for _, cs in estimate_chunks for c in cs),
            total("mc.estimate_success")),
        "schedule.build.calls": len(by_name["schedule.build"]),
        "schedule.build.s": total("schedule.build"),
        "strategies.from_spec.s": total("strategies.from_spec"),
        "strategies.decide.calls": counts["strategies.decide.calls"],
        "exact.optimal_value.s": total("exact.optimal_value"),
        "exact.dp.cell_updates": sum(dp_cells(s) for s in dp),
        "exact.dp_d1.cell_updates_per_s": dp_rate(1),
        "exact.dp_d2.cell_updates_per_s": dp_rate(2),
        "exact.full_table.bytes": max(
            ((s.attrs["n"] + 1) * (2 * s.attrs["n"] + 3) ** s.attrs["d"]
             * s.attrs["m"] * 9 for s in dp if s.attrs["full"]), default=0),
        "exact.evaluate.s": total("exact.evaluate"),
        "exact.evaluate.cell_steps": sum(eval_cells(s) for s in evals),
        "exact.evaluate.cell_steps_per_s": _ratio(
            sum(eval_cells(s) for s in evals), total("exact.evaluate")),
        "exact.budget_refusals": counts["exact.budget_refusals"],
        "walk.run_trajectory.calls": counts["walk.run_trajectory.calls"],
        "walk.steps": counts["walk.steps"],
        "walk.steps_per_s": _ratio(counts["walk.steps"], timed["walk.run_trajectory"]),
        "analysis.check_reflection.s": total("analysis.check_reflection"),
        "analysis.check_local_time_ratio.s": total("analysis.check_local_time_ratio"),
        "analysis.check_hoeffding.s": total("analysis.check_hoeffding"),
    }
    for cls in ("EndpointSampler", "WindowedSampler", "LazySprintSampler",
                "DelayedEndpointSampler"):
        values[f"samplers.trials.{cls}"] = chunk_trials[cls]
    for suite in ("reflection", "localtime", "invariants", "dominance"):
        values[f"verify.suite.{suite}.s"] = suites[suite]
    for layer in LAYERS:
        values[f"{layer}.errors"] = counts[f"{layer}.errors"]

    absent = {}
    for metric in LAYER_METRICS:
        gone = [q for q in metric["needs"] if q in missing or resolve(q) is None]
        if gone:
            values[metric["name"]] = 0
            absent[metric["name"]] = f"missing {', '.join(gone)}"
    return values, absent
