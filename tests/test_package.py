import ast
import inspect
import shlex
from pathlib import Path

import pytest

import targetwalk
import targetwalk.verify  # noqa: F401  (the benchmark reaches run_suite as tw.verify)
from targetwalk.cli import build_parser

_ROOT = Path(__file__).resolve().parents[1]
_BENCH = _ROOT / "bench"


def test_all_lists_exactly_the_imported_names():
    """``__all__`` names what ``__init__`` imports from the package's modules,
    plus ``__version__``, each once, and every name resolves: an export
    deleted from a module cannot leave a stale name behind."""
    tree = ast.parse(inspect.getsource(targetwalk))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    names = targetwalk.__all__
    assert len(names) == len(set(names))
    assert set(names) == imported | {"__version__"}
    assert [name for name in names if not hasattr(targetwalk, name)] == []


def _dotted(node) -> str | None:
    """``a.b`` for an attribute chain ``tw.a.b``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id == "tw":
        return ".".join(reversed(parts))
    return None


def _bench_uses() -> tuple[set, set]:
    """Dotted names ``tw.<name>`` that the benchmark's workloads and
    references read, and the (name, keyword) pairs of their calls."""
    names, keywords = set(), set()
    for path in (_BENCH / "workloads.py", _BENCH / "references.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = _dotted(node)
            if name is not None:
                names.add(name)
            if isinstance(node, ast.Call) and _dotted(node.func) is not None:
                keywords.update((_dotted(node.func), kw.arg) for kw in node.keywords)
    return names, keywords


def _resolve(name: str):
    obj = targetwalk
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_benchmark_api_resolves():
    """Every ``tw.<name>`` the benchmark uses resolves in the package, and
    every keyword it passes to a ``tw.<name>(...)`` call is a parameter of
    that callable: deleting or renaming one would leave the tests green and
    fail every benchmark run."""
    names, keywords = _bench_uses()
    assert {"lazy_then_sprint", "delayed_wrapper", "verify.run_suite"} <= names
    assert {("McConfig", "per_window"), ("McConfig", "threads"),
            ("optimal_value", "want_policy"), ("evaluate_strategy_exact", "budget"),
            ("ScheduleParams2D", "epsilon")} <= keywords
    assert [name for name in sorted(names) if _resolve(name) is None] == []
    assert [(name, kw) for name, kw in sorted(keywords)
            if kw not in inspect.signature(_resolve(name)).parameters] == []


def _bench_constants(*names) -> list:
    """The literal values that ``bench/references.py`` assigns to ``names``,
    read from its source without importing it."""
    tree = ast.parse((_BENCH / "references.py").read_text())
    found = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in names}
    return [found[name] for name in names]


def test_exact_solve_pins_hold():
    """Every value the benchmark pins for its ``exact_solve`` tasks,
    recomputed as ``bench/references.py`` does, at its tolerance: a kernel
    change that moves one fails here, not only in a benchmark run."""
    rtol, exact, optimal = _bench_constants("EXACT_RTOL", "EXACT", "OPTIMAL_FOR_EVALUATE")
    tw = targetwalk

    def windowed(p, delayed=False):
        sched = tw.build_schedule_1d(tw.ScheduleParams1D(n=p.n, m=p.m, eta=0.5))
        spec = {"name": "windowed_1d", "eta": 0.5, "delayed": delayed}
        return tw.strategy_from_spec(spec, p, sched)

    p1, p2 = tw.Problem(d=1, n=10_000, m=100), tw.Problem(d=2, n=300, m=8)
    optimal_p2 = tw.optimal_value(p2)[0]
    got = {
        "optimal_d1_n3000_m64": tw.optimal_value(tw.Problem(d=1, n=3000, m=64))[0],
        "optimal_d2_n300_m8": optimal_p2,
        "optimal_full_d1_n400_m64": tw.optimal_value(
            tw.Problem(d=1, n=400, m=64), keep="full", want_policy=True)[0],
        "evaluate_windowed_1d": tw.evaluate_strategy_exact(windowed(p1), p1),
        "evaluate_windowed_1d_delayed": tw.evaluate_strategy_exact(
            windowed(p1, delayed=True), p1),
        "evaluate_always_step_d2": tw.evaluate_strategy_exact(tw.always_step(), p2),
        (1, 10_000, 100): tw.optimal_value(p1, budget=float("inf"))[0],
        (2, 300, 8): optimal_p2,
    }
    pins = {**exact, **optimal}
    assert len(pins) == 8 and set(got) == set(pins)
    for key, value in got.items():
        assert value == pytest.approx(pins[key], rel=rtol, abs=0), key


def _readme_commands() -> list[list[str]]:
    """Argument lists of the commands in README's "Command line" block, with
    continuation lines joined, comments dropped and the ``targetwalk`` or
    ``PYTHONPATH=src python -m targetwalk`` prefix cut."""
    block = (_ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```")[1].replace("\\\n", " ")
    prefixes = (["targetwalk"], ["PYTHONPATH=src", "python", "-m", "targetwalk"])
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words:
            prefix = next(p for p in prefixes if words[:len(p)] == p)
            commands.append(words[len(prefix):])
    return commands


def test_readme_commands_parse():
    """Every command README shows parses with the CLI's own parser: a
    renamed or deleted flag fails here instead of leaving stale docs."""
    commands = _readme_commands()
    assert len(commands) == 9
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
