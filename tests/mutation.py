"""Mutation survey: change one operator or constant of a module at a
time, run the tests, and report each change no test notices. Such a
survivor is dead code, behaviour no test pins, or an equivalent mutant.

Run from the repository root, for example::

    python3 tests/mutation.py --module bridgecap/evaluation.py \\
        --tests tests/test_evaluation.py tests/test_golden.py

``--module`` is relative to ``src/``. The committed tree (``HEAD``) is
exported with ``git archive`` into a temporary directory and mutated
only there; the working tree is never written. Each mutant runs
``pytest -x -q -p no:cacheprovider`` on the given tests, and a run that
times out counts as killed. Standard library only; pytest does not
collect this file.
"""

import argparse
import ast
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# ast operator type -> (the text it is written as, the text it becomes)
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.FloorDiv: ("//", "/"), ast.And: ("and", "or"), ast.Or: ("or", "and"),
}
# An operator's text, not part of a longer operator or name.
_TOKEN = {text: re.compile(rb"(?<![\w<>=!*/])" + re.escape(text).replace(r"\ ", r"\s+").encode()
                           + rb"(?![\w<>=*/])") for text, _ in SWAPS.values()}


def mutants(source: bytes) -> list[tuple[int, str, bytes]]:
    """``(line, operator, mutated source)`` for every mutant of ``source``,
    by line. A node whose position does not lead to its operator's text
    gives none."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def start(node):  # ast columns count UTF-8 bytes
        return starts[node.lineno - 1] + node.col_offset

    def end(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    def swap(node, left, right, op):
        """The mutant that swaps ``op``, written between left and right."""
        old, new = SWAPS[type(op)]
        found = _TOKEN[old].search(source, end(left), start(right))
        if found:
            mutated = source[:found.start()] + new.encode() + source[found.end():]
            return node.lineno, f"{old} -> {new}", mutated

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(swap(node, node.left, node.right, node.op))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += (swap(node, a, b, op) for a, b, op in zip(operands, operands[1:], node.ops))
        elif isinstance(node, ast.BoolOp):
            found += (swap(node, a, b, node.op) for a, b in zip(node.values, node.values[1:]))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            lo, hi = start(node), start(node.operand)
            if source.startswith(b"not", lo):
                found.append((node.lineno, "drop not", source[:lo] + source[hi:]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo, hi = start(node), end(node)
            if source[lo:hi] == str(node.value).encode():
                found.append((node.lineno, f"{node.value} -> {node.value + 1}",
                              source[:lo] + str(node.value + 1).encode() + source[hi:]))
    return sorted((m for m in found if m), key=lambda m: m[0])


def run_tests(root: Path, tests, timeout: float | None) -> bool:
    """True when the tests pass in ``root``; a timeout is a failure."""
    # No .pyc: a mutant of the same size, written within the same second
    # as the file before it, would run from the stale one.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def survey(root: Path, module: str, tests) -> list[tuple[int, str, str]]:
    """Run ``tests`` in ``root`` once per mutant of ``root/src/module``
    and return the survivors as ``(line, operator, source line)``. The
    module's bytes are restored afterwards."""
    path = root / "src" / module
    original = path.read_bytes()
    began = time.monotonic()
    if not run_tests(root, tests, timeout=None):
        raise SystemExit(f"the tests fail on the unmutated {module}")
    timeout = 10 + 5 * (time.monotonic() - began)
    lines = original.decode().splitlines()
    survivors = []
    try:
        for line, operator, text in mutants(original):
            path.write_bytes(text)
            if run_tests(root, tests, timeout):
                survivors.append((line, operator, lines[line - 1].strip()))
    finally:
        path.write_bytes(original)
    return survivors


def export_head(repo: Path, dest: Path) -> None:
    """Write the files of ``repo``'s HEAD commit under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=repo,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="module path under src/")
    parser.add_argument("--tests", nargs="+", required=True,
                        help="test paths, as pytest takes them")
    args = parser.parse_args(argv)
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        export_head(Path(__file__).resolve().parents[1], Path(tmp))
        total = len(mutants((Path(tmp) / "src" / args.module).read_bytes()))
        survivors = survey(Path(tmp), args.module, args.tests)
    for line, operator, source in survivors:
        print(f"{args.module}:{line}: {operator}: {source}")
    print(f"{total} mutants, {total - len(survivors)} killed, {len(survivors)} survived, "
          f"{time.monotonic() - began:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
