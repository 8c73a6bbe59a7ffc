import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import position_density, project_gaussian
from catlab.hilbert import (LatticeTranslation, QuantumState, StateSpace,
                            _lattice_residue)
from catlab.symplectic import _sigma

SP = StateSpace(1, 34)


def basis_state(space, index):
    c = np.zeros(space.dim, dtype=np.complex128)
    c[int(np.ravel_multi_index(tuple(index), (space.N,) * space.n))] = 1.0
    return QuantumState(space, c)


def tensor(u, v):
    """Tensor product state; index (j1, j2) row-major."""
    space = StateSpace(u.space.n + v.space.n, u.space.N)
    return QuantumState(space, np.outer(u.coeffs, v.coeffs).ravel())


def rolled_translation(space, m, c):
    """U_{m/N} c per tensor axis: a roll by p, then that axis's phases."""
    N, n = space.N, space.n
    m = _lattice_residue(m, N)
    batch = c.shape[:-1]
    c = c.reshape(batch + (N,) * n)
    j = np.arange(N)
    for axis in range(n):
        p, q = m[2 * axis], m[2 * axis + 1]
        ph = np.exp(1j * np.pi * ((2 * q * j - p * q) % (2 * N)) / N)
        shape = [1] * n
        shape[axis] = N
        c = np.roll(c, p, axis=len(batch) + axis) * ph.reshape(shape)
    return c.reshape(batch + (N ** n,))


@pytest.mark.parametrize("n,N", [(1, 34), (1, 144), (2, 10), (2, 34)])
def test_translation_monomial_matches_rolled_apply(n, N):
    # bit for bit at n = 1; at n = 2 the monomial multiplies by the
    # product of the two axes' phases, the roll by each in turn, so the
    # two agree to rounding relative to the largest entry
    space = StateSpace(n, N)
    rng = np.random.default_rng(N + n)
    c = (rng.standard_normal((3, space.dim))
         + 1j * rng.standard_normal((3, space.dim)))
    for _ in range(20):
        m = tuple(int(v) for v in rng.integers(-3 * N + 1, 3 * N, 2 * n))
        got = LatticeTranslation(space, m).apply_array(c)
        want = rolled_translation(space, m, c)
        if n == 1:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()


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
    s = _sigma(m1, m2)
    # group law with half the commutator phase
    assert np.abs(U1 @ U2 - np.exp(1j * np.pi * s / N) * U12).max() < 1e-12
    assert np.abs(U1 @ U2
                  - np.exp(2j * np.pi * s / N) * U2 @ U1).max() < 1e-12


def test_integer_translations_fix_the_space():
    G = project_gaussian(SP)
    for l in [(SP.N, 0), (0, SP.N), (SP.N, SP.N)]:
        moved = LatticeTranslation(SP, l).apply_array(G.coeffs)
        assert np.abs(moved - G.coeffs).max() < 1e-12


def test_translation_reduces_m_mod_2N():
    N = SP.N
    c = np.random.default_rng(0).standard_normal((3, N)) + 0j
    for m in [(1, 0), (0, 1), (3, -2), (-5, 7), (N - 1, 1 - N), (N, N)]:
        for k in range(2):
            far = list(m)
            far[k] += 2 * N * 10 ** 4
            assert np.array_equal(LatticeTranslation(SP, far).apply_array(c),
                                  LatticeTranslation(SP, m).apply_array(c))
    # entries near 1e5, as A^-1 j reaches for long words: the group-law
    # phase must survive products p q near 1e10
    m1 = (98765, -123457)
    m2 = (-54321, 67891)
    U1 = LatticeTranslation(SP, m1).dense()
    U2 = LatticeTranslation(SP, m2).dense()
    U12 = LatticeTranslation(SP, (m1[0] + m2[0], m1[1] + m2[1])).dense()
    s = _sigma(m1, m2)
    assert np.abs(U1 @ U2 - np.exp(1j * np.pi * (s % (2 * N)) / N)
                  * U12).max() < 1e-12


def test_projected_gaussian_shape():
    G = project_gaussian(SP)
    c = G.coeffs
    assert np.abs(c.imag).max() == 0.0
    assert (c.real > 0).all()
    sym = c[(-np.arange(SP.N)) % SP.N]
    assert np.abs(c - sym).max() < 1e-14
    with pytest.raises(ValueError):
        project_gaussian(StateSpace(1, 33))


@pytest.mark.parametrize("N", [34, 144, 610, 6930, 46368])
def test_projected_gaussian_equals_every_ring_on_every_point(N):
    # each ring evaluated on all N points, where float64 exp underflows
    # to exactly 0.0 outside the windows project_gaussian evaluates
    space = StateSpace(1, N)
    j = np.arange(N) / N
    total = np.zeros(N)
    k = 0
    while True:
        ring = np.exp(-(k + j) ** 2 / (2 * space.h))
        if k > 0:
            ring = ring + np.exp(-(-k + j) ** 2 / (2 * space.h))
        total += ring
        if k > 1 and ring.max() < 1e-16 * total.max():
            break
        k += 1
    full = (math.pi * space.h) ** (-0.25) * total / math.sqrt(N)
    assert np.array_equal(project_gaussian(space).coeffs, full)


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
