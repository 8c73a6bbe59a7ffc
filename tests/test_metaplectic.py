import tracemalloc

import numpy as np
import pytest

from catlab import (SymplecticMatrix, TrigObservable, egorov_defect,
                    metaplectic_adjoint, metaplectic_sl2, period_phase,
                    rotation_propagator, tensor_propagator, weyl_quantize)
from catlab.hilbert import LatticeTranslation, StateSpace
from catlab.metaplectic import rotation_classical

CAT = SymplecticMatrix([[2, 1], [1, 1]])
SP34 = StateSpace(1, 34)
# b = 1, 2, 3, 12: the Gauss sum runs over N b points
SL2_BY_B = [[[2, 1], [1, 1]], [[5, 2], [2, 1]], [[2, 3], [3, 5]],
            [[29, 12], [12, 5]]]


def _conjugated(sp2, T):
    """R T R^3 = R T R^-1 for the block rotation R."""
    R = rotation_propagator(sp2)
    return R.compose(T).compose(R.compose(R).compose(R))


def _batch_cases():
    """(name, apply_array, dim) for every apply_array in the package."""
    cases = []
    for A in SL2_BY_B:
        M = metaplectic_sl2(SP34, A)
        Mh = metaplectic_adjoint(SP34, A)
        cases += [("sl2 %s" % A, M.apply_array, 34),
                  ("adjoint %s" % A, Mh.apply_array, 34),
                  ("compose %s" % A, M.compose(Mh).compose(M).apply_array, 34)]
    sp1, sp2 = StateSpace(1, 10), StateSpace(2, 10)
    T = tensor_propagator(sp2, metaplectic_sl2(sp1, SL2_BY_B[0]),
                          metaplectic_sl2(sp1, SL2_BY_B[3]))
    cases += [("rotation", rotation_propagator(sp2).apply_array, 100),
              ("tensor", T.apply_array, 100),
              ("conj", _conjugated(sp2, T).apply_array, 100),
              ("translation n=1",
               LatticeTranslation(SP34, (3, -5)).apply_array, 34),
              ("translation n=2",
               LatticeTranslation(sp2, (1, -2, 3, 4)).apply_array, 100),
              ("observable", weyl_quantize(sp2, TrigObservable.from_dict(
                  {(1, -2, 3, 4): 0.5, (0, 1, 0, 0): -2j})).apply_array,
               100)]
    return cases


def test_batched_apply_equals_stacked_single_applies():
    rng = np.random.default_rng(5)
    for name, apply_array, dim in _batch_cases():
        X = rng.normal(size=(2, 3, dim)) + 1j * rng.normal(size=(2, 3, dim))
        single = np.array([[apply_array(x) for x in row] for row in X])
        assert np.array_equal(apply_array(X[0]), single[0]), name
        assert np.array_equal(apply_array(X), single), name


def test_dense_equals_column_by_column_build():
    sp1, sp2 = StateSpace(1, 10), StateSpace(2, 10)
    props = [metaplectic_sl2(SP34, A) for A in SL2_BY_B]
    props += [metaplectic_adjoint(SP34, SL2_BY_B[3]),
              rotation_propagator(sp2),
              tensor_propagator(sp2, metaplectic_sl2(sp1, SL2_BY_B[0]),
                                metaplectic_sl2(sp1, SL2_BY_B[1]))]
    for P in props:
        eye = np.eye(P.space.dim, dtype=np.complex128)
        cols = np.stack([P.apply_array(eye[:, k])
                         for k in range(P.space.dim)], axis=1)
        assert np.array_equal(P.dense, cols)
    for U in [LatticeTranslation(SP34, (3, -5)),
              LatticeTranslation(sp2, (1, -2, 3, 4))]:
        eye = np.eye(U.space.dim)
        cols = np.stack([U.apply_array(eye[:, k])
                         for k in range(U.space.dim)], axis=1)
        assert np.array_equal(U.dense(), cols)


def test_egorov_defect_matches_triple_product():
    def triple_product_defect(P, window):
        space = P.space
        M = P.dense
        Mh = M.conj().T
        A_inv = P.classical.inverse()
        ranges = np.stack(np.meshgrid(
            *[np.arange(-window, window + 1)] * (2 * space.n),
            indexing="ij"), axis=-1).reshape(-1, 2 * space.n)
        worst = 0.0
        for j in ranges:
            U = LatticeTranslation(space, j).dense()
            target = LatticeTranslation(space, A_inv.apply(j)).dense()
            worst = max(worst, float(np.abs(Mh @ U @ M - target).max()))
        return worst

    sp1, sp2 = StateSpace(1, 10), StateSpace(2, 10)
    T = tensor_propagator(sp2, metaplectic_sl2(sp1, CAT),
                          metaplectic_sl2(sp1, CAT))
    for P, window in [(metaplectic_sl2(SP34, CAT), 2),
                      (rotation_propagator(sp2), 1), (T, 1),
                      (_conjugated(sp2, T), 1)]:
        assert abs(egorov_defect(P, window)
                   - triple_product_defect(P, window)) <= 1e-14


def test_dense_build_memory_is_one_matrix():
    # The identity columns go through the apply in blocks written in place;
    # a column list and np.stack held 3x the result, one unblocked batch 26x.
    P = metaplectic_sl2(StateSpace(1, 610), [[29, 12], [12, 5]])
    tracemalloc.start()
    try:
        D = P.dense
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * D.nbytes


def test_propagator_unitary():
    M = metaplectic_sl2(SP34, CAT).dense
    assert np.abs(M.conj().T @ M - np.eye(34)).max() < 1e-12


def test_adjoint_inverts():
    M = metaplectic_sl2(SP34, CAT)
    Mh = metaplectic_adjoint(SP34, CAT)
    assert Mh.classical.entries == CAT.inverse().entries
    assert np.abs(Mh.dense @ M.dense - np.eye(34)).max() < 1e-12


def test_composition_matches_square_up_to_phase():
    M = metaplectic_sl2(SP34, CAT)
    M2 = M.compose(M).dense
    Msq = metaplectic_sl2(SP34, CAT @ CAT).dense
    phase = M2[0, 0] / Msq[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(M2 - phase * Msq).max() < 1e-11


def test_entry_formula_rejections():
    with pytest.raises(ValueError):
        metaplectic_sl2(StateSpace(1, 33), CAT)  # odd N
    with pytest.raises(ValueError):
        metaplectic_sl2(SP34, [[1, 1], [0, 1]])  # non-positive entry
    with pytest.raises(ValueError):
        metaplectic_sl2(StateSpace(2, 34), CAT)  # n = 1 only


def test_egorov_intertwining_sl2():
    M = metaplectic_sl2(SP34, CAT)
    assert egorov_defect(M, 2) < 1e-12


def test_rotation_propagator_order_four_and_egorov():
    sp = StateSpace(2, 10)
    R = rotation_propagator(sp)
    D = R.dense
    assert np.abs(D.conj().T @ D - np.eye(100)).max() < 1e-14
    assert np.abs(np.linalg.matrix_power(D, 4) - np.eye(100)).max() < 1e-14
    assert rotation_classical().power(4).entries == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))
    assert egorov_defect(R, 1) < 1e-13


def test_tensor_propagator_matches_kron_and_egorov():
    sp1 = StateSpace(1, 10)
    sp2 = StateSpace(2, 10)
    M1 = metaplectic_sl2(sp1, CAT)
    M2 = metaplectic_sl2(sp1, SL2_BY_B[1])  # distinct factors fix the order
    T = tensor_propagator(sp2, M1, M2)
    assert np.abs(T.dense - np.kron(M1.dense, M2.dense)).max() < 1e-13
    assert egorov_defect(T, 1) < 1e-12


def test_block_rotation_conjugate_is_metaplectic_of_conjugate():
    # R (M (x) M) R^{-1} intertwines with the rotated classical matrix
    sp1 = StateSpace(1, 10)
    sp2 = StateSpace(2, 10)
    M = metaplectic_sl2(sp1, CAT)
    T = tensor_propagator(sp2, M, M)
    R = rotation_propagator(sp2)
    conj = R.compose(T).compose(
        rotation_propagator(sp2).compose(R).compose(R))  # R T R^3 = R T R^-1
    expect = (rotation_classical() @ T.classical
              @ rotation_classical().inverse())
    assert conj.classical.entries == (
        rotation_classical() @ T.classical
        @ rotation_classical().power(3)).entries
    assert expect.entries == conj.classical.entries
    assert egorov_defect(conj, 1) < 1e-12


def test_period_phase_dense(prop144):
    pp = period_phase(prop144, 12)
    assert pp.P == 12
    assert abs(pp.phi) < 1e-8
    assert pp.defect < 1e-10


def test_period_phase_wrong_period_raises(prop144):
    with pytest.raises(AssertionError):
        period_phase(prop144, 5)


def test_period_phase_streamed_matches_dense():
    # force the streamed path with a tiny materialization limit
    import catlab.metaplectic as mp
    sp = StateSpace(1, 144)
    M = metaplectic_sl2(sp, CAT)
    dense_pp = period_phase(M, 12)
    old = mp.DENSE_LIMIT
    mp.DENSE_LIMIT = 8
    try:
        rng = np.random.default_rng(7)
        probes = [rng.normal(size=144) + 1j * rng.normal(size=144)]
        streamed_pp = period_phase(M, 12, probes=probes)
    finally:
        mp.DENSE_LIMIT = old
    assert abs(streamed_pp.phi - dense_pp.phi) < 1e-9
    assert streamed_pp.defect < 1e-9
