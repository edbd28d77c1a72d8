import tempfile
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def nbi_fixture_path() -> Path:
    return DATA_DIR / "nbi_fixture.csv"


@pytest.fixture(scope="session")
def nbi_fixture_records(nbi_fixture_path):
    from bridgecap import nbi

    profile = nbi.load_builtin_profile("standard")
    return nbi.parse_nbi(nbi_fixture_path.read_bytes().decode("latin-1"), profile)


_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """Hypothesis caches the constants it finds in the source under its
    home directory, ``.hypothesis/`` in the working directory by default,
    from collection on. Point it at a temporary one so a test run leaves
    the tree clean."""
    from hypothesis.configuration import set_hypothesis_home_dir

    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()
