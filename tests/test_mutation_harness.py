"""The mutation survey harness (``tests/mutation.py``) on a toy tree."""

import mutation

TOY = """def double(x):
    return x * 2


def is_negative(x):
    return x < 0
"""
TOY_TEST = """from toy import double, is_negative


def test_toy():
    assert double(3) == 6
    assert is_negative(-1) and not is_negative(0.5)
"""


def test_mutants_of_each_operator_and_constant():
    assert [(line, operator) for line, operator, _ in mutation.mutants(TOY.encode())] == [
        (2, "* -> /"), (2, "2 -> 3"), (6, "< -> <="), (6, "0 -> 1")]
    source = b"if not a in b and c:\n    pass\n"
    assert sorted(text for _, _, text in mutation.mutants(source)) == [
        b"if a in b and c:\n    pass\n", b"if not a in b or c:\n    pass\n",
        b"if not a not in b and c:\n    pass\n"]


def test_survey_reports_the_one_mutant_no_test_tells_apart(tmp_path, monkeypatch):
    # The toy test needs no plugin, and loading Hypothesis's would take
    # most of each of the five pytest runs.
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    # x < 0 and x <= 0 differ only at 0, which the test never passes.
    module = tmp_path / "src" / "toy.py"
    module.parent.mkdir()
    module.write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST)
    assert mutation.survey(tmp_path, "toy.py", ["test_toy.py"]) == [(6, "< -> <=", "return x < 0")]
    assert module.read_text() == TOY
