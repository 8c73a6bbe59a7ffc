import tracemalloc

import numpy as np
import pytest

import catlab.metaplectic
from catlab import (SymplecticMatrix, egorov_defect, metaplectic_adjoint,
                    metaplectic_sl2, period_phase, rotation_propagator,
                    tensor_propagator)
from catlab.hilbert import LatticeTranslation, StateSpace, _dense_matrix
from catlab.metaplectic import (Propagator, _chirp, _matrix_power,
                                _parity_kernel, _parity_order, _parity_split,
                                rotation_classical)
from catlab.symplectic import quantum_period

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
               LatticeTranslation(sp2, (1, -2, 3, 4)).apply_array, 100)]
    return cases


def test_batched_apply_equals_stacked_single_applies():
    rng = np.random.default_rng(5)
    for name, apply_array, dim in _batch_cases():
        X = rng.normal(size=(2, 3, dim)) + 1j * rng.normal(size=(2, 3, dim))
        single = np.array([[apply_array(x) for x in row] for row in X])
        assert np.array_equal(apply_array(X[0]), single[0]), name
        assert np.array_equal(apply_array(X), single), name


def test_chirp_is_np_exp_bit_for_bit():
    # The mirrored cos/sin chirp against np.exp(1j pi r / L) at every
    # length n <= L that straddles the mirror point L/2, for the Gauss-sum
    # widths b = 1, 2, 3, both signs of c and c beyond 2L.
    for N in (2, 34, 144, 610):
        for b in (1, 2, 3):
            L = N * b
            for c in (1, 2, 3, 5, 12, 29, -7, 2 * L + 3):
                for n in {1, N, L // 2, L // 2 + 1, min(L // 2 + 2, L),
                          L - 1, L}:
                    k = np.arange(n)
                    r = k * k % (2 * L) * (c % (2 * L)) % (2 * L)
                    want = np.exp(1j * np.pi * r / L)
                    got = _chirp(c, n, L)
                    for x, y in [(got.real, want.real),
                                 (got.imag, want.imag)]:
                        assert np.array_equal(x, y), (N, b, c, n)
                        assert np.array_equal(np.signbit(x), np.signbit(y))


def test_dense_equals_column_by_column_build():
    # metaplectic_sl2 evaluates its kernel instead (test_sl2_kernel_...)
    sp1, sp2 = StateSpace(1, 10), StateSpace(2, 10)
    M = metaplectic_sl2(SP34, SL2_BY_B[1])
    props = [metaplectic_adjoint(SP34, SL2_BY_B[3]),
             M.compose(M),
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
        src, phase = U.monomial()  # U[i, src[i]] = phase[i], else 0
        mono = np.zeros_like(cols)
        mono[np.arange(U.space.dim), src] = phase
        assert np.array_equal(mono, cols)


@pytest.mark.parametrize("N", [34, 144, 204, 610])
def test_sl2_kernel_matches_apply_and_parity_order(N):
    # The kernel, evaluated entry by entry, against the batched apply on
    # identity columns; in parity order it is the gathered matrix bit for
    # bit, and at b = 1 it is parity-symmetric bit for bit, so ||C||_F = 0.
    space = StateSpace(1, N)
    order = _parity_order(space)[0]
    for A in SL2_BY_B:
        P = metaplectic_sl2(space, A)
        reference = _dense_matrix(P.apply_array, N, "propagator")
        assert np.abs(P.dense - reference).max() <= 1e-14, A
        assert np.array_equal(P._kernel(order),
                              P.dense[np.ix_(order, order)]), A
        if A[0][1] == 1:
            assert _parity_split(*_parity_kernel(P))[3] == 0.0
    with pytest.raises(ValueError, match="materialization limit"):
        metaplectic_sl2(StateSpace(1, 4098), CAT).dense


def test_sl2_construction_builds_no_kernel():
    # The two chirps (16 N bytes each) and one chirp-sized temporary, as
    # before the kernel: nothing of it is evaluated until dense is read.
    N = 46368
    tracemalloc.start()
    try:
        metaplectic_sl2(StateSpace(1, N), CAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * N + 1024


def test_matrix_power_is_numpys_bit_for_bit():
    # on copies and on the parity blocks as period_phase has them, views
    # into one matrix that _matrix_power overwrites
    P = metaplectic_sl2(StateSpace(1, 144), SL2_BY_B[1])
    for n in (1, 2, 3, 7, 8, 12, 30, 186):
        for k in (1, 2):  # E and O
            block = _parity_split(*_parity_kernel(P))[k]
            want = np.linalg.matrix_power(block, n)
            assert np.array_equal(_matrix_power(block.copy(), n), want), n
            assert np.array_equal(_matrix_power(block, n), want), n


def _triple_product_defect(P, window):
    """egorov_defect unsplit: max |M^H U_j M - U_{A^-1 j}| from dense U."""
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


def _matrix_power_phase(P, period):
    """period_phase unsplit: (phi, defect) from the dense M^period."""
    Mp = np.linalg.matrix_power(P.dense, period)
    phi = float(np.angle(np.trace(Mp) / P.space.dim))
    return phi, float(np.abs(Mp - np.exp(1j * phi) * np.eye(P.space.dim)).max())


def test_egorov_defect_matches_triple_product():
    sp1, sp2 = StateSpace(1, 10), StateSpace(2, 10)
    T = tensor_propagator(sp2, metaplectic_sl2(sp1, CAT),
                          metaplectic_sl2(sp1, CAT))
    for P, window in [(metaplectic_sl2(SP34, CAT), 2),
                      (rotation_propagator(sp2), 1), (T, 1),
                      (_conjugated(sp2, T), 1)]:
        assert abs(egorov_defect(P, window)
                   - _triple_product_defect(P, window)) <= 1e-14


def _parity_cases():
    """(propagator, period) of every kind of propagator, with ids."""
    cases = [pytest.param(metaplectic_sl2(StateSpace(1, N), CAT),
                          quantum_period(CAT, N), id="sl2 N=%d" % N)
             for N in (34, 144, 204, 610)]
    cases += [pytest.param(metaplectic_sl2(StateSpace(1, N), SL2_BY_B[1]), 8,
                           id="sl2 b=2 N=%d" % N) for N in (34, 204)]
    M = metaplectic_sl2(SP34, SL2_BY_B[3])
    Mh = metaplectic_adjoint(SP34, SL2_BY_B[3])
    period = quantum_period(SymplecticMatrix(SL2_BY_B[3]), 34)
    cases += [pytest.param(Mh, period, id="adjoint"),
              pytest.param(M.compose(Mh).compose(M), period, id="compose")]
    sp1, sp2 = StateSpace(1, 10), StateSpace(2, 10)
    T = tensor_propagator(sp2, metaplectic_sl2(sp1, CAT),
                          metaplectic_sl2(sp1, CAT))
    cases += [pytest.param(rotation_propagator(sp2), 4, id="rotation"),
              pytest.param(T, quantum_period(CAT, 10), id="tensor"),
              pytest.param(_conjugated(sp2, T), quantum_period(CAT, 10),
                           id="conj")]
    return cases


@pytest.mark.parametrize("P,period", _parity_cases())
def test_parity_split_oracles_match_unsplit_references(P, period):
    # The split adds the proven bounds P ||C||_F and ||C||_F, so each
    # defect is an upper bound on the unsplit one and close to it.
    pp = period_phase(P, period)
    phi, defect = _matrix_power_phase(P, period)
    assert abs(np.angle(np.exp(1j * (pp.phi - phi)))) <= 1e-13
    assert defect - 1e-15 <= pp.defect <= defect + 1e-13
    reference = _triple_product_defect(P, 1)
    assert reference - 1e-15 <= egorov_defect(P, 1) <= reference + 1e-13


@pytest.mark.parametrize("N,period", [(144, 48), (610, 186)])
def test_period_phase_bound_grows_with_the_period(N, period):
    # b = 2 has long periods (M^24 is not proportional to I at N = 144,
    # M^48 is), and there the added P ||C||_F passes 1e-13: the defect
    # reads 1.6e-13 against 1.5e-14 unsplit at P = 48, and 8.9e-13 against
    # 1.7e-14 at P = 186, far below the 1e-8 of criterion 3.
    P = metaplectic_sl2(StateSpace(1, N), SL2_BY_B[1])
    cross = _parity_split(*_parity_kernel(P))[3]
    pp = period_phase(P, period)
    phi, defect = _matrix_power_phase(P, period)
    assert abs(np.angle(np.exp(1j * (pp.phi - phi)))) <= 1e-13
    assert defect - 1e-15 <= pp.defect <= defect + period * cross + 1e-14
    assert pp.defect <= 1e-11


def test_oracles_refuse_a_propagator_that_breaks_parity():
    # swapping e_1 and e_2 is an involution that does not commute with
    # x -> -x, so no defect bounded through the parity blocks would hold
    sp = StateSpace(1, 10)
    swap = np.arange(10)
    swap[[1, 2]] = [2, 1]
    S = Propagator(sp, CAT, lambda c: c[..., swap])
    with pytest.raises(ValueError, match="cross-block bound"):
        period_phase(S, 2)
    with pytest.raises(ValueError, match="cross-block bound"):
        egorov_defect(S, 0)


def test_parity_oracles_memory_at_most_unsplit():
    # tracemalloc peaks of the unsplit oracles at N = 610, each with the
    # dense build from a fresh propagator: 22.7 and 28.4 MiB
    for oracle, bound in [(lambda P: period_phase(P, 30), 22.7),
                          (lambda P: egorov_defect(P, 1), 28.4)]:
        P = metaplectic_sl2(StateSpace(1, 610), CAT)
        tracemalloc.start()
        try:
            oracle(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20


# egorov_defect(P, 1) at window 1 when it also built P.dense for its
# row gathers: CAT, then [[5,2],[2,1]], at N = 34, 144, 204, 610
EGOROV_BEFORE_ONE_BUILD = {
    0: [1.159106867033638e-15, 1.5353625799562712e-15,
        1.1433814963738287e-15, 1.577923392343183e-15],
    1: [2.847072255032227e-15, 4.332705848307551e-15,
        4.052245346248142e-15, 6.763492429438743e-15]}


@pytest.mark.parametrize("b", [0, 1])
def test_egorov_defect_builds_the_kernel_once(b):
    # U M is gathered from the parity-ordered matrix, so the kernel is
    # evaluated once per call and no identity-order P.dense is built;
    # columns in parity order leave the max as it was
    for N, before in zip((34, 144, 204, 610), EGOROV_BEFORE_ONE_BUILD[b]):
        P = metaplectic_sl2(StateSpace(1, N), SL2_BY_B[b])
        kernel, calls = P._kernel, []
        P._kernel = lambda idx: calls.append(len(idx)) or kernel(idx)
        assert abs(egorov_defect(P, 1) - before) <= 1e-15
        assert calls == [N] and P._dense is None
        egorov_defect(P, 0)
        assert calls == [N, N]


def test_egorov_defect_memory_at_one_build():
    # 22.9 MiB at CAT N = 610 with both builds and a separate |diff|
    # buffer; 20.0 MiB measured with one build
    P = metaplectic_sl2(StateSpace(1, 610), CAT)
    tracemalloc.start()
    try:
        egorov_defect(P, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 2 ** 20


def test_egorov_defect_forms_one_product_per_pm_pair(monkeypatch):
    # j = 0 and one j of each +-j pair: 5 of 9 shifts at window 1 and 13
    # of 25 at window 2.  Each shift builds its translation, then its
    # target U_{A^-1 j}.
    P = metaplectic_sl2(SP34, CAT)
    P.dense
    made = []

    class Counted(LatticeTranslation):
        def __init__(self, space, m):
            made.append(tuple(int(v) for v in m))
            super().__init__(space, m)

    monkeypatch.setattr(catlab.metaplectic, "LatticeTranslation", Counted)
    for window, products in [(1, 5), (2, 13)]:
        made.clear()
        egorov_defect(P, window)
        shifts = made[0::2]
        assert len(shifts) == products
        assert (0, 0) in shifts
        assert not any((-j1, -j2) in shifts for j1, j2 in shifts
                       if (j1, j2) != (0, 0))


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


def test_quantum_period_need_not_be_a_period_of_m():
    # ord(B mod N) = 24 for B = [[5, 2], [2, 1]] at N = 144, but
    # B^24 = [[1 + N, N], [N, 1 + N]] mod 2N: M^24 is no multiple of the
    # identity, while B^48 = I mod 2N and M^48 is.
    B = SymplecticMatrix(SL2_BY_B[1])
    N = 144
    assert quantum_period(B, N) == 24
    assert [[v % (2 * N) for v in row] for row in B.power(24).entries] \
        == [[1 + N, N], [N, 1 + N]]
    M = metaplectic_sl2(StateSpace(1, N), B)
    with pytest.raises(AssertionError, match="not proportional"):
        period_phase(M, 24)
    assert period_phase(M, 48).defect <= 1e-12


def test_oracles_refuse_degenerate_arguments(prop144):
    # an empty window and M^0 = I would each pass vacuously
    with pytest.raises(ValueError):
        egorov_defect(prop144, -1)
    for period in (0, -12):
        with pytest.raises(ValueError):
            period_phase(prop144, period)


def test_period_phase_streamed_matches_dense():
    # force the streamed path with a tiny materialization limit
    import catlab.metaplectic as mp
    sp = StateSpace(1, 144)
    M = metaplectic_sl2(sp, CAT)
    dense_pp = period_phase(M, 12)
    old = mp.DENSE_LIMIT
    mp.DENSE_LIMIT = 8
    try:
        streamed_pp = period_phase(M, 12)
    finally:
        mp.DENSE_LIMIT = old
    assert abs(streamed_pp.phi - dense_pp.phi) < 1e-9
    assert streamed_pp.defect < 1e-9
