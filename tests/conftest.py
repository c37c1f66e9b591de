import pytest

from make_golden import VERIFY_ARGV, run_case
from maxface import weierstrass as wst


@pytest.fixture(scope="session")
def genus1():
    """Genus-1 surface at its solved period constant (cached per session)."""
    return wst.catalog_get("genus_k", k=1)


@pytest.fixture(scope="session")
def genus2_reduced():
    return wst.catalog_get("genus_k_reduced", k=2)


@pytest.fixture(scope="session")
def cone25():
    return wst.catalog_get("cone", a=2.5)


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """`maxface verify --jobs 1`, run once per session: its exit code and
    the bytes of verify.json.  The acceptance tests and the golden test
    share it."""
    return run_case(VERIFY_ARGV, tmp_path_factory.mktemp("verify"))
