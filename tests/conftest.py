import numpy as np
import pytest

from opcal import faithful, gns
from opcal.quantum import max_entangled

# the fixtures of reference.py, such as fake_generators
pytest_plugins = ("reference",)


@pytest.fixture(scope="session")
def phi2():
    return max_entangled(2)


@pytest.fixture(scope="session")
def phi3():
    return max_entangled(3)


@pytest.fixture(scope="session")
def space2(phi2):
    return gns.gns_space(gns.TransposeSolver(faithful.Calibration(phi2)))


@pytest.fixture(scope="session")
def space3(phi3):
    return gns.gns_space(gns.TransposeSolver(faithful.Calibration(phi3)))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
