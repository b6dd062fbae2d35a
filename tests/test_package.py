import ast
import inspect

import targetwalk


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
