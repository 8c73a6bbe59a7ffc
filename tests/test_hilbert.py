import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (TrigObservable, position_density, project_gaussian,
                    tensor, translation, weyl_quantize)
from catlab.hilbert import (LatticeTranslation, StateSpace, basis_state,
                            sigma_lattice)

SP = StateSpace(1, 34)


def test_translation_zero_is_identity():
    U = LatticeTranslation(SP, (0, 0))
    assert np.abs(U.dense() - np.eye(34)).max() < 1e-14


def test_translation_unitary():
    for m in [(1, 0), (0, 1), (3, -2), (-5, 7)]:
        D = LatticeTranslation(SP, m).dense()
        assert np.abs(D.conj().T @ D - np.eye(34)).max() < 1e-12


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=25, deadline=None)
def test_translation_group_law_and_commutator(m1, m2):
    N = SP.N
    U1 = LatticeTranslation(SP, m1).dense()
    U2 = LatticeTranslation(SP, m2).dense()
    U12 = LatticeTranslation(SP, (m1[0] + m2[0], m1[1] + m2[1])).dense()
    s = sigma_lattice(m1, m2)
    # group law with half the commutator phase
    assert np.abs(U1 @ U2 - np.exp(1j * np.pi * s / N) * U12).max() < 1e-12
    assert np.abs(U1 @ U2
                  - np.exp(2j * np.pi * s / N) * U2 @ U1).max() < 1e-12


def test_integer_translations_fix_the_space():
    G = project_gaussian(SP)
    for l in [(SP.N, 0), (0, SP.N), (SP.N, SP.N)]:
        moved = LatticeTranslation(SP, l).apply_array(G.coeffs)
        assert np.abs(moved - G.coeffs).max() < 1e-12


def test_translation_rejects_off_lattice_and_theta():
    with pytest.raises(ValueError):
        translation(SP, (0.123456, 0.0))
    from fractions import Fraction
    sp_theta = StateSpace(1, 34, (Fraction(1, 3), Fraction(0)))
    with pytest.raises(ValueError):
        LatticeTranslation(sp_theta, (1, 0))


def test_weyl_quantize_identity_adjoint_and_norm():
    one = TrigObservable.from_dict({(0, 0): 1.0})
    op = weyl_quantize(SP, one)
    assert np.abs(op.dense - np.eye(34)).max() < 1e-14
    # real observable -> self-adjoint operator
    a = TrigObservable.from_dict({(1, 2): 0.5 - 0.25j, (-1, -2): 0.5 + 0.25j,
                                  (0, 0): 1.0})
    assert a.is_real()
    op = weyl_quantize(SP, a)
    assert np.abs(op.dense - op.dense.conj().T).max() < 1e-12
    assert np.linalg.norm(op.dense, 2) <= a.coeff_sum() + 1e-12


def test_weyl_quantize_dense_is_lazy():
    a = TrigObservable.from_dict({(1, 2, 0, 1): 0.5, (0, 0, -3, 1): 2j,
                                  (0, 0, 0, 0): 1.0})
    sp = StateSpace(2, 40)  # a 1600 x 1600 matrix, 41 MB
    tracemalloc.start()
    try:
        op = weyl_quantize(sp, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    expect = np.zeros((sp.dim, sp.dim), dtype=np.complex128)
    for j, c in a.terms:
        expect += c * LatticeTranslation(sp, j).dense()
    assert np.array_equal(op.dense, expect)
    assert op.dense is op.dense
    with pytest.raises(ValueError):
        weyl_quantize(StateSpace(2, 65), a).dense  # dim 4225 > DENSE_LIMIT


def test_weyl_quantize_linear():
    a = TrigObservable.from_dict({(1, 0): 2.0})
    b = TrigObservable.from_dict({(0, 1): -1.5j})
    ab = TrigObservable.from_dict({(1, 0): 2.0, (0, 1): -1.5j})
    lhs = weyl_quantize(SP, ab).dense
    rhs = weyl_quantize(SP, a).dense + weyl_quantize(SP, b).dense
    assert np.abs(lhs - rhs).max() < 1e-13


def test_projected_gaussian_shape():
    G = project_gaussian(SP)
    c = G.coeffs
    assert np.abs(c.imag).max() == 0.0
    assert (c.real > 0).all()
    sym = c[(-np.arange(SP.N)) % SP.N]
    assert np.abs(c - sym).max() < 1e-14
    with pytest.raises(ValueError):
        project_gaussian(StateSpace(1, 33))


def test_tensor_basis_norm_and_factorization():
    u = basis_state(SP, (3,))
    v = basis_state(SP, (5,))
    uv = tensor(u, v)
    assert uv.coeffs[3 * SP.N + 5] == 1.0
    assert abs(np.linalg.norm(uv.coeffs) - 1.0) < 1e-14
    rng = np.random.default_rng(0)
    from catlab.hilbert import QuantumState
    a = QuantumState(SP, rng.normal(size=SP.N) + 1j * rng.normal(size=SP.N))
    b = QuantumState(SP, rng.normal(size=SP.N) + 1j * rng.normal(size=SP.N))
    ab = tensor(a, b)
    assert abs(ab.norm() - a.norm() * b.norm()) < 1e-10
    # inner products factor through the tensor translation
    Uj = LatticeTranslation(SP, (1, -2))
    Uk = LatticeTranslation(SP, (0, 3))
    lhs = np.vdot(ab.coeffs, np.outer(Uj.apply_array(a.coeffs),
                                      Uk.apply_array(b.coeffs)).ravel())
    rhs = (np.vdot(a.coeffs, Uj.apply_array(a.coeffs))
           * np.vdot(b.coeffs, Uk.apply_array(b.coeffs)))
    assert abs(lhs - rhs) < 1e-10


def test_position_density_sums_and_centering():
    u = basis_state(SP, (3,))
    v = basis_state(SP, (5,))
    uv = tensor(u, v)
    grid = position_density(uv)
    assert grid[3, 5] == 1.0 and grid.sum() == 1.0
    centered = position_density(uv, center=True)
    assert centered[(3 + SP.N // 2) % SP.N, (5 + SP.N // 2) % SP.N] == 1.0
    rng = np.random.default_rng(1)
    from catlab.hilbert import QuantumState
    w = QuantumState(StateSpace(2, 8),
                     rng.normal(size=64) + 1j * rng.normal(size=64))
    assert abs(position_density(w).sum() - w.norm() ** 2) < 1e-12
