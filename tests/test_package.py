import ast
import dataclasses
import inspect
from pathlib import Path

import targetwalk
import targetwalk.verify  # noqa: F401  (the benchmark reaches run_suite as tw.verify)

_BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def _bench_uses() -> tuple[set, set]:
    """Dotted names ``tw.<name>`` that the benchmark's workloads and
    references read, and the keywords they pass to ``tw.McConfig``."""
    names, keywords = set(), set()
    for path in (_BENCH / "workloads.py", _BENCH / "references.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                parts, base = [node.attr], node.value
                while isinstance(base, ast.Attribute):
                    parts.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id == "tw":
                    names.add(".".join(reversed(parts)))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "McConfig"):
                keywords.update(kw.arg for kw in node.keywords)
    return names, keywords


def test_benchmark_api_resolves():
    """Every ``tw.<name>`` the benchmark uses resolves in the package, and
    every keyword it passes to ``McConfig`` is a field: deleting one would
    leave the tests green and fail every benchmark run."""
    names, keywords = _bench_uses()
    assert {"lazy_then_sprint", "delayed_wrapper", "verify.run_suite"} <= names
    assert "per_window" in keywords
    missing = []
    for name in sorted(names):
        obj = targetwalk
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert missing == []
    assert keywords <= {f.name for f in dataclasses.fields(targetwalk.McConfig)}
