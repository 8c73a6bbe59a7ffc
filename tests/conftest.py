import numpy as np
import pytest

from catlab import SymplecticMatrix, build_scar, metaplectic_sl2
from catlab.hilbert import StateSpace
from catlab.metaplectic import tensor_propagator


B_CAT = SymplecticMatrix([[2, 1], [1, 1]])


@pytest.fixture(scope="session")
def space144():
    return StateSpace(1, 144)


@pytest.fixture(scope="session")
def prop144(space144):
    return metaplectic_sl2(space144, B_CAT)


@pytest.fixture(scope="session")
def scar6():
    return build_scar(B_CAT, 6)


@pytest.fixture(scope="session")
def scar12():
    return build_scar(B_CAT, 12)


@pytest.fixture(scope="session")
def tensor144(space144, prop144):
    return tensor_propagator(StateSpace(2, 144), prop144, prop144)
