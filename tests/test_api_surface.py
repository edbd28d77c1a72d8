"""Every public function in the package has a caller inside it.

A public module-level function, or a public method of a top-level class,
counts as called when some ``ast.Name`` or ``ast.Attribute`` anywhere
under ``src/bridgecap`` names it. Import lines and ``__all__`` strings do
not count: a function only tests reach belongs in ``tests/``.
"""

import ast
from pathlib import Path

import bridgecap

PACKAGE = Path(bridgecap.__file__).parent

# Wrapped by name by the benchmark's span tracer
# (``perfbench/spans.py::NETWORK_METHODS``), which nothing in the package
# calls.
ALLOWED = {"learner.network.Network.logits"}


def _public_defs(tree):
    """(qualified name, bare name) of each public function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def uncalled(root: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    found = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for qualified, name in _public_defs(tree):
            if not name.startswith("_") and name not in named:
                found.append(f"{module}.{qualified}")
    return found


def test_every_public_function_has_a_caller():
    # Equality, not a subset: a name that gains a caller leaves the list.
    assert sorted(uncalled(PACKAGE)) == sorted(ALLOWED)


def test_every_learner_export_resolves():
    # ``__all__`` strings are not uses, so the guard above cannot see a
    # stale one; ``from bridgecap.learner import *`` would fail on it.
    from bridgecap import learner

    assert [name for name in learner.__all__ if not hasattr(learner, name)] == []


def test_imports_and_all_strings_are_not_calls(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
                                   "class K:\n    def m(self):\n        pass\n\n"
                                   "    def _private(self):\n        pass\n")
    (tmp_path / "b.py").write_text("from a import unused, used\n\n__all__ = ['unused']\n\n"
                                   "used()\nK().m\n")
    assert uncalled(tmp_path) == ["a.unused"]
