import pytest

from weakhopf import zoo


@pytest.fixture(scope="session")
def diag2():
    return zoo.fixture("diag2")


@pytest.fixture(scope="session")
def kz2():
    return zoo.fixture("kz2")


@pytest.fixture(scope="session")
def pair2():
    return zoo.fixture("pair2")


@pytest.fixture(scope="session")
def kd4():
    return zoo.fixture("kd4")


@pytest.fixture(scope="session")
def kd4_diag2():
    return zoo.fixture("kd4_diag2")


@pytest.fixture(scope="session")
def corpus():
    return [zoo.fixture(name) for name in zoo.fixture_names()]
