"""Every public function and every private name in the package is read
inside it, every defaulted parameter of a public function is passed by a
call inside it, text is split into lines and CSV rows only by the shared
readers, a digit in text means an ASCII digit, images are loaded only
through ``imaging.load_batch``, JSON is parsed and serialized only by
``_records``, every text file is opened with an explicit encoding, and
each method the benchmark's span tracer wraps is defined in its class's
own body.

A public module-level function, or a public method of a top-level class,
counts as called when some ``ast.Name`` or ``ast.Attribute`` anywhere
under ``src/bridgecap`` reads its name. So does a private name: a
module-level constant, function or class, or a method of a top-level
class, whose name starts with ``_`` and is not a dunder. Assignments,
import lines and ``__all__`` strings do not count: a name only tests
reach belongs in ``tests/``, and one nothing reads is dead. Likewise a
parameter value only tests pass belongs in the tests, or is a constant.
"""

import ast
from pathlib import Path

import bridgecap

PACKAGE = Path(bridgecap.__file__).parent

# Wrapped by name by the benchmark's span tracer
# (``perfbench/spans.py::NETWORK_METHODS``), which nothing in the package
# calls.
ALLOWED = {"learner.network.Network.logits"}

ALLOWED_UNPASSED = {
    # The console entry point reads sys.argv when given no argv.
    "cli.main(argv)",
    # The early-stopping tests drive fit with canned validation numbers.
    "learner.train.fit(evaluate_fn)",
    # The chunk-boundary property tests drive other chunk sizes.
    "learner.train.predict_proba(batch_size)",
    # The finite-difference gradient checks build float64 networks.
    "learner.network.Network.__init__(dtype)",
}


def _trees(root: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}


def _module(root: Path, path: Path) -> str:
    return ".".join(path.relative_to(root).with_suffix("").parts)


def _public_defs(tree):
    """(qualified name, the name a call uses, def node, count of leading
    parameters a call does not pass) of each module-level function and
    each method of a top-level class. A constructor is called by its
    class's name, and a method other than a staticmethod is passed its
    instance or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, 0 if static else 1


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_names(tree):
    """(qualified name, name) of each private module-level constant,
    function and class, and of each private method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = []
        yield from ((name, name) for name in names if _private(name))
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _private(item.name))


def uncalled(root: Path) -> list[str]:
    trees = _trees(root)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = []
    for path, tree in trees.items():
        public = [(q, name) for q, name, _, _ in _public_defs(tree) if not name.startswith("_")]
        for qualified, name in public + list(_private_names(tree)):
            if name not in read:
                found.append(f"{_module(root, path)}.{qualified}")
    return found


def _passes(call: ast.Call, position, param: str) -> bool:
    """Whether ``call`` passes ``param``, the parameter at ``position``
    (None when keyword-only), or may pass it through ``*`` or ``**``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, param) for keyword in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unpassed(root: Path) -> list[str]:
    """``module.Qualified(param)`` for each defaulted parameter of a
    public function or method that no call under ``root`` passes. A call
    is matched to a definition by the name it calls, as ``uncalled``
    matches names."""
    trees = _trees(root)
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, tree in trees.items():
        for qualified, name, node, skip in _public_defs(tree):
            if name.startswith("_"):
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[skip:]
            first_default = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first_default]
            defaulted += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for position, param in defaulted:
                if not any(_passes(call, position, param) for call in calls.get(name, ())):
                    found.append(f"{_module(root, path)}.{qualified}({param})")
    return found


def line_rule_breaches(root: Path) -> list[str]:
    """The modules under ``root`` that split lines themselves: any that
    calls ``str.splitlines``, which breaks at ``\\r``, ``\\x85``,
    ``\\u2028`` and more, and any but ``_records.py`` that builds a
    ``csv.reader``. ``_records`` holds the one line rule."""
    return [path.relative_to(root).as_posix() for path in sorted(root.rglob("*.py"))
            if "splitlines(" in path.read_text()
            or ("csv.reader(" in path.read_text() and path.name != "_records.py")]


DIGIT_TESTS = (".isdigit(", ".isdecimal(", ".isnumeric(")


def digit_tests(root: Path) -> list[tuple[str, str]]:
    """(module, stripped line) of each line under ``root`` that calls
    ``isdigit``, ``isdecimal`` or ``isnumeric``. On a str each is true for
    other scripts' digits, and ``isdigit`` for superscripts; on bytes
    ``isdigit`` means ASCII digits."""
    return [(path.relative_to(root).as_posix(), line.strip())
            for path in sorted(root.rglob("*.py"))
            for line in path.read_text().split("\n")
            if any(test in line for test in DIGIT_TESTS)]


PER_IMAGE_STEPS = {"load_image", "resize_bilinear", "to_pixels"}


def per_image_callers(root: Path) -> list[str]:
    """``module.step`` for each call of a per-image step outside
    ``imaging.py``: a module that makes one loads images itself, where
    ``imaging.load_batch`` fills every batch."""
    return [f"{_module(root, path)}.{name}"
            for path, tree in _trees(root).items() if path.name != "imaging.py"
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            if name in PER_IMAGE_STEPS]


JSON_CODECS = ("json.loads(", "json.load(", "JSONDecoder(", "JSONEncoder(", "json.dumps(")


def json_codec_lines(root: Path) -> list[tuple[str, str]]:
    """(module, stripped line) of each line outside ``_records.py`` that
    parses or serializes JSON with the json module, where
    ``_records.loads`` and ``_records.dumps`` hold the one number rule."""
    return [(path.relative_to(root).as_posix(), line.strip())
            for path in sorted(root.rglob("*.py")) if path.name != "_records.py"
            for line in path.read_text(encoding="utf-8").split("\n")
            if any(codec in line for codec in JSON_CODECS)]


# Call -> the index of its positional ``encoding`` parameter.
TEXT_IO = {"open": 3, "read_text": 0, "write_text": 1}


def unencoded_text_io(root: Path) -> list[str]:
    """``module:line`` of each call under ``root`` of the builtin ``open``
    in text mode, or of ``read_text`` or ``write_text``, that passes no
    encoding: such a file is read or written in the locale's encoding."""
    found = []
    for path, tree in _trees(root).items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                name = "open"
            elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
                name = func.attr
            else:
                continue
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[1] if name == "open" and len(node.args) > 1 else None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            if len(node.args) <= TEXT_IO[name] and not any(
                    k.arg in ("encoding", None) for k in node.keywords):
                found.append(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    return found


# Module -> class -> the methods the benchmark's span tracer
# (``perfbench/spans.py``) wraps through the class's own ``vars``, which
# a method a base class defined instead would fail.
OWN_METHODS = {
    "learner/layers.py": dict.fromkeys(
        ("Conv", "Relu", "MaxPool", "Flatten", "FullyConnected", "Softmax"),
        ("forward", "backward")),
    "learner/network.py": {"Network": ("forward", "logits", "loss_and_grads", "get_weights",
                                       "set_weights", "from_checkpoint")},
}


def unowned_methods(root: Path) -> list[str]:
    """``Class.method`` for each method of ``OWN_METHODS`` that its
    class's own body under ``root`` neither defines nor assigns."""
    found = []
    for module, classes in OWN_METHODS.items():
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        bodies = {node.name: node.body for node in tree.body if isinstance(node, ast.ClassDef)}
        for cls, methods in classes.items():
            owned = set()
            for item in bodies.get(cls, ()):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owned.add(item.name)
                elif isinstance(item, ast.Assign):
                    owned.update(t.id for t in item.targets if isinstance(t, ast.Name))
            found.extend(f"{cls}.{method}" for method in methods if method not in owned)
    return found


def test_traced_methods_are_defined_in_their_own_class():
    assert unowned_methods(PACKAGE) == []


def test_unowned_methods_are_listed(tmp_path):
    (tmp_path / "learner").mkdir()
    layer = ("(_Layer):\n    def forward(self, x):\n        pass\n\n"
             "    def backward(self, d):\n        pass\n")
    (tmp_path / "learner" / "layers.py").write_text(
        "".join(f"class {cls}{layer}\n" for cls in ("Conv", "Relu", "MaxPool", "Softmax"))
        + "class _Weighted(_Layer):\n    def forward(self, x):\n        pass\n\n"
        "class FullyConnected(_Weighted):\n    def backward(self, d):\n        pass\n",
        encoding="utf-8")
    (tmp_path / "learner" / "network.py").write_text(
        "class Network:\n    from_checkpoint = staticmethod(load)\n\n"
        + "".join(f"    def {m}(self):\n        pass\n\n"
                  for m in ("forward", "loss_and_grads", "get_weights", "set_weights")),
        encoding="utf-8")
    assert unowned_methods(tmp_path) == ["Flatten.forward", "Flatten.backward",
                                         "FullyConnected.forward", "Network.logits"]


def test_json_is_parsed_and_serialized_only_by_records():
    # config.check renders a bad value in its message, which need not be
    # a document: the one use of the json module left outside _records.
    assert json_codec_lines(PACKAGE) == [
        ("config.py",
         'raise ConfigError(f"{where} must be {_describe(shape)}, got {json.dumps(value)}")')]


def test_json_codec_lines_are_listed(tmp_path):
    (tmp_path / "_records.py").write_text("import json\n\nv = json.loads(t)\n")
    (tmp_path / "a.py").write_text("import json\n\nv = json.load(f)\nt = json.dumps(v)\n")
    (tmp_path / "b.py").write_text("d = json.JSONDecoder()\ne = JSONEncoder(indent=2)\n")
    (tmp_path / "c.py").write_text('"""Not ``json.loads``."""\nv = _records.loads(t, "x")\n')
    assert json_codec_lines(tmp_path) == [
        ("a.py", "v = json.load(f)"), ("a.py", "t = json.dumps(v)"),
        ("b.py", "d = json.JSONDecoder()"), ("b.py", "e = JSONEncoder(indent=2)")]


def test_every_text_file_is_opened_with_an_encoding():
    assert unencoded_text_io(PACKAGE) == []


def test_unencoded_text_io_is_listed(tmp_path):
    (tmp_path / "a.py").write_text(
        'f = open(p)\ng = open(p, "w")\nh = open(p, mode="wt")\n'
        't = path.read_text()\npath.write_text(t)\n'
        'ok = open(p, "rb"), open(p, mode="wb"), open(p, encoding="utf-8")\n'
        'ok = open(p, "r", -1, "utf-8"), path.read_text("utf-8"), open(p, **kw)\n'
        'ok = path.write_text(t, encoding="utf-8"), path.write_text(t, "utf-8")\n'
        'ok = Image.open(p), path.read_bytes()\n')
    assert unencoded_text_io(tmp_path) == ["a.py:1", "a.py:2", "a.py:3", "a.py:4", "a.py:5"]


def test_digits_are_ascii_digits():
    assert digit_tests(PACKAGE) == [("imaging.py", "if not token.isdigit():")]


def test_digit_tests_are_listed(tmp_path):
    (tmp_path / "a.py").write_text("ok = code.isdigit()\nn = s.isnumeric() or s.isdecimal()\n")
    (tmp_path / "b.py").write_text('"""Not ``str.isdigit``."""\nok = code.isascii()\n')
    assert digit_tests(tmp_path) == [("a.py", "ok = code.isdigit()"),
                                     ("a.py", "n = s.isnumeric() or s.isdecimal()")]


def test_images_are_loaded_only_by_load_batch():
    assert per_image_callers(PACKAGE) == []


def test_per_image_callers_are_listed(tmp_path):
    (tmp_path / "imaging.py").write_text("def load_batch(p):\n    return to_pixels(load_image(p))\n")
    (tmp_path / "a.py").write_text("import imaging\n\nx = imaging.resize_bilinear(i, 2, 2)\n"
                                   "y = imaging.load_batch(p)\n")
    (tmp_path / "b.py").write_text("from imaging import load_image\n\nimg = load_image(p)\n")
    assert per_image_callers(tmp_path) == ["a.resize_bilinear", "b.load_image"]


def test_lines_are_split_only_by_the_shared_readers():
    assert line_rule_breaches(PACKAGE) == []


def test_line_rule_breaches_are_listed(tmp_path):
    (tmp_path / "_records.py").write_text("import csv\n\nrows = csv.reader(f)\n")
    (tmp_path / "a.py").write_text("lines = text.splitlines()\n")
    (tmp_path / "b.py").write_text("import csv\n\nrows = csv.reader(f)\n")
    (tmp_path / "c.py").write_text('"""Not ``str.splitlines`` or ``csv.reader``."""\n')
    assert line_rule_breaches(tmp_path) == ["a.py", "b.py"]


def test_every_public_function_has_a_caller():
    # Equality, not a subset: a name that gains a caller leaves the list.
    assert sorted(uncalled(PACKAGE)) == sorted(ALLOWED)


def test_every_defaulted_parameter_is_passed():
    found = set(unpassed(PACKAGE))
    assert not found - ALLOWED_UNPASSED, (
        f"no call in the package passes {sorted(found - ALLOWED_UNPASSED)}")
    # A parameter that gains a passer leaves the list.
    assert sorted(ALLOWED_UNPASSED - found) == []


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
    assert uncalled(tmp_path) == ["a.unused", "a.K._private"]


def test_private_names_nothing_reads_are_listed(tmp_path):
    (tmp_path / "a.py").write_text(
        "_READ = 1\n_STORED = 2\n_A, _B = 3, 4\n_T: int = 5\n__all__ = []\n\n\n"
        "def _helper():\n    pass\n\n\n"
        "class _Unused:\n    pass\n\n\n"
        "class K:\n"
        "    def __init__(self):\n        self._used()\n\n"
        "    def _used(self):\n        return _READ + _A\n\n"
        "    def _unused(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text("from a import K, _helper\n\n_STORED = K()\n")
    assert uncalled(tmp_path) == ["a._STORED", "a._B", "a._T", "a._helper", "a._Unused",
                                  "a.K._unused", "b._STORED"]


def test_a_parameter_is_passed_by_keyword_position_or_star(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
        "def g(a=1, b=2):\n    pass\n\n\n"
        "class K:\n"
        "    def __init__(self, a=1, b=2):\n        pass\n\n"
        "    def m(self, a=1, b=2):\n        pass\n\n"
        "    @staticmethod\n"
        "    def s(a=1, b=2):\n        pass\n\n"
        "    def _private(self, a=1):\n        pass\n"
    )
    (tmp_path / "b.py").write_text(
        "f(0, 1, e=5)\ng(*args)\nK(0)\nK().m(b=0)\nK.s(0)\n"
    )
    assert unpassed(tmp_path) == ["a.f(c)", "a.f(d)", "a.K.__init__(b)", "a.K.m(a)", "a.K.s(b)"]
