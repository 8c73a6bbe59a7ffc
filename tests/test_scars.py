import math
import tracemalloc

import numpy as np
import pytest

import catlab.scars
from catlab import (S1, build_scar, gaussian_autocorrelation,
                    lattice_overlap_sum, make_scar_config, metaplectic_sl2,
                    overlap_closed_form, overlap_quadrature,
                    project_gaussian, semiclassical_scan,
                    torus_autocorrelation)
from catlab.hilbert import LatticeTranslation, StateSpace
from catlab.scars import TORUS_SUM_TOL, leading_eigenvalue, measure_target
from conftest import B_CAT

LAM = leading_eigenvalue(B_CAT)  # (3 + sqrt 5) / 2


def test_autocorrelation_shape():
    assert gaussian_autocorrelation(LAM, 0) == 1.0
    for t in range(1, 6):
        a = gaussian_autocorrelation(LAM, t)
        assert a == gaussian_autocorrelation(LAM, -t)
        assert a < gaussian_autocorrelation(LAM, t - 1)
    with pytest.raises(ValueError):
        gaussian_autocorrelation(0.5, 1)


def test_S1_value_and_series_consistency():
    total = sum(gaussian_autocorrelation(LAM, t) ** 2 for t in range(-60, 61))
    assert abs(S1(LAM) - total) < 1e-14
    assert abs(S1(LAM) - 3.2647) < 1e-4


# Symmetric positive-entry matrices with b = 1, 2, 3, 12; b enters the
# kernel scale h b and the chirps of the quadrature.
OVERLAP_MATRICES = [[[2, 1], [1, 1]], [[5, 2], [2, 1]], [[2, 3], [3, 5]],
                    [[29, 12], [12, 5]]]


def test_overlap_closed_form_matches_quadrature():
    for B in OVERLAP_MATRICES:
        for N in (34, 144):
            h = 1.0 / (2 * math.pi * N)
            for omega in [(0.0, 0.0), (0.2, -0.1), (-0.15, 0.25),
                          (1.3, -0.9)]:
                cf = overlap_closed_form(B, omega, h)
                quad = overlap_quadrature(B, omega, h)
                assert abs(cf - quad) < 1e-9
    # omega = 0 reduces to the autocorrelation amplitude
    h = 1.0 / (2 * math.pi * 34)
    assert abs(overlap_closed_form(B_CAT, (0, 0), h)
               - math.sqrt(2.0 / 3.0)) < 1e-14


def dense_trapezoid_overlap(B, omega, h, npts=1600):
    """The trapezoid sum of overlap_quadrature with its npts^2 kernel."""
    ((a, b), (_, d)) = B
    y, eta = float(omega[0]), float(omega[1])
    half = 10.0 * math.sqrt(h)
    x = np.linspace(min(0.0, y) - half, max(0.0, y) + half, npts)
    yy = np.linspace(-half, half, npts)

    def g(x):
        return (math.pi * h) ** (-0.25) * np.exp(-x * x / (2 * h))

    kernel = np.exp(1j * (d * x[:, None] ** 2 - 2 * x[:, None] * yy[None, :]
                          + a * yy[None, :] ** 2) / (2 * h * b))
    MG = (np.exp(-1j * np.pi / 4) / math.sqrt(2 * np.pi * h * b)
          * np.trapezoid(kernel * g(yy)[None, :], yy, axis=1))
    UG = np.exp(1j / h * (eta * x - y * eta / 2)) * g(x - y)
    return complex(np.trapezoid(UG * np.conj(MG), x))


def test_overlap_quadrature_matches_dense_trapezoid():
    # Every call converges at 1600 points, so the chirp-z factoring must
    # reproduce the dense double sum there up to rounding.
    rng = np.random.default_rng(7)
    for B in OVERLAP_MATRICES:
        for N in (34, 144):
            h = 1.0 / (2 * math.pi * N)
            w = rng.uniform(-1.4, 1.4, size=2)
            ref = dense_trapezoid_overlap(B, w, h)
            assert abs(overlap_quadrature(B, w, h) - ref) <= 1e-12


def test_overlap_quadrature_memory_is_linear():
    # A level holds a few arrays of the FFT length (4096 points at 1600),
    # far below the 41 MB of one 1600 x 1600 complex kernel.
    h = 1.0 / (2 * math.pi * 144)
    tracemalloc.start()
    try:
        overlap_quadrature(B_CAT, (0.7, -1.1), h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_overlap_quadrature_cap_raises(monkeypatch):
    # Below 1600 points the refinement cannot confirm convergence.
    monkeypatch.setattr(catlab.scars, "QUADRATURE_MAX_POINTS", 1000)
    h = 1.0 / (2 * math.pi * 34)
    with pytest.raises(RuntimeError, match="failed to converge"):
        overlap_quadrature(B_CAT, (0.2, -0.1), h)


def test_overlap_requires_symmetric_hyperbolic():
    with pytest.raises(ValueError):
        overlap_closed_form([[2, 3], [1, 2]], (0, 0), 0.01)  # b != c
    with pytest.raises(ValueError):
        overlap_closed_form([[1, 0], [0, 1]], (0, 0), 0.01)  # trace 2


def test_lattice_overlap_sum_small_h_is_dominated_by_l0():
    h = 1.0 / (2 * math.pi * 144)
    total, l0, rest = lattice_overlap_sum(B_CAT, 0, (0.0, 0.0), h)
    assert abs(l0 - 1.0) < 1e-15
    assert rest < 1e-12 * total
    # each sum is dominated by its own l = 0 amplitude for q <= 5; from
    # q = 6 on (total / l0 = 2.24) the lattice points along the expanding
    # eigendirection of B^q are not small
    for q in range(0, 6):
        tq, l0q, _ = lattice_overlap_sum(B_CAT, q, (0.0, 0.0), h)
        assert tq / l0q < 1.5
    t6, l06, _ = lattice_overlap_sum(B_CAT, 6, (0.0, 0.0), h)
    assert t6 / l06 > 2
    with pytest.raises(ValueError):
        lattice_overlap_sum(B_CAT, -1, (0.0, 0.0), h)


def test_lattice_overlap_sum_matches_box_sum():
    # |l| <= 600 box sums; c = (3, -2) / 10 keeps 100 Q(l + c) an exact
    # integer form in the box
    N = 144
    h = 1.0 / (2 * math.pi * N)
    l = np.arange(-600, 601)
    for q in range(0, 7):
        ((p, b), (_, s)) = B_CAT.power(q).entries
        tr = p + s
        for c10 in [(0, 0), (3, -2)]:
            u1 = 10 * l[:, None] + c10[0]
            u2 = 10 * l[None, :] + c10[1]
            Q100 = s * u1 * u1 - 2 * b * u1 * u2 + p * u2 * u2
            box = math.sqrt(2.0 / tr) * np.exp(-Q100 / (200 * h * tr))
            c = (c10[0] / 10, c10[1] / 10)
            total, l0, rest = lattice_overlap_sum(B_CAT, q, c, h)
            assert abs(total - box.sum()) <= 1e-13 * box.sum()
            assert abs(l0 - box[600, 600]) <= 1e-13 * l0
            assert rest == total - l0 and rest >= 0
    with pytest.raises(ValueError):
        lattice_overlap_sum(B_CAT, 30, (0.0, 0.0), h)  # beyond TORUS_SUM_LIMIT


def test_torus_autocorrelation_matches_propagator():
    # At N = 144, t = 8 the sum needs |l| far beyond 60 (a |l| <= 60 box
    # is off by 0.07), so agreement shows the enumeration does not truncate.
    for N in (34, 144):
        space = StateSpace(1, N)
        M = metaplectic_sl2(space, B_CAT)
        G = project_gaussian(space).coeffs
        v = G
        for t in range(0, 9):
            res = torus_autocorrelation(B_CAT, t, N)
            assert abs(np.vdot(G, v) - res.value) < 1e-12
            back = torus_autocorrelation(B_CAT, -t, N)
            assert back.value == res.value.conjugate()
            amp = math.sqrt(2.0 / B_CAT.power(t).trace())
            assert 0 < res.tail_bound <= TORUS_SUM_TOL * amp
            v = M.apply_array(v)
    with pytest.raises(ValueError):
        torus_autocorrelation(B_CAT, 2, 35)
    with pytest.raises(ValueError):
        torus_autocorrelation(B_CAT, 40, 34)  # beyond TORUS_SUM_LIMIT


def test_make_scar_config_validation():
    with pytest.raises(ValueError):
        make_scar_config([[2, 3], [1, 2]], 6)  # not symmetric
    with pytest.raises(ValueError):
        make_scar_config(B_CAT, 4)  # odd trace needs k = 0 mod 6


def test_scar_config_values(scar6):
    cfg = scar6.config
    assert (cfg.k, cfg.N, cfg.P) == (6, 144, 12)
    assert abs(cfg.phi) < 1e-8
    assert abs(cfg.lam - LAM) < 1e-14


def test_factored_matches_materialized(scar6):
    u = scar6.materialize()
    n2 = scar6.norm_squared()
    assert abs(n2 - np.vdot(u.coeffs, u.coeffs).real) < 1e-10
    sp2 = StateSpace(2, scar6.N)
    for j, k in [((1, 0), (0, 0)), ((0, 1), (2, -1)), ((1, 1), (1, 1))]:
        U = LatticeTranslation(sp2, (j[0], j[1], k[0], k[1]))
        dense_me = complex(np.vdot(u.coeffs, U.apply_array(u.coeffs)))
        assert abs(scar6.matrix_element(j, k) - dense_me) < 1e-10


def test_ensemble_holds_one_orbit_array(scar12):
    # Building the ensemble and its matrix elements allocates at most the
    # P x N array V plus row blocks and length-N FFT work arrays: no
    # second orbit array, no P x N copy of U V or conj(V).
    tracemalloc.start()
    try:
        scar = build_scar(scar12.config)
        me = scar.matrix_element((1, 2), (0, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(me - scar12.matrix_element((1, 2), (0, -1))) < 1e-12
    assert peak < 1.5 * scar.V.nbytes


def test_scar_is_tensor_eigenfunction(scar6, tensor144):
    assert scar6.eigen_residual(tensor144) < 1e-10


def test_swap_symmetry(scar6):
    # u is built so the two tensor factors differ by half a period;
    # swapping the factors of the materialized state reproduces it.
    u = scar6.materialize().coeffs.reshape(scar6.N, scar6.N)
    assert np.abs(u - u.T).max() / np.abs(u).max() < 1e-10


def test_partial_norms_increase_to_total(scar6):
    vals = [scar6.partial_norm_squared(w) for w in range(1, scar6.P + 1)]
    assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - scar6.norm_squared()) < 1e-12


def test_measure_target_table():
    assert measure_target((0, 0), (0, 0)) == 1.0
    assert measure_target((1, 0), (0, 0)) == 0.5
    assert measure_target((0, 0), (0, 2)) == 0.5
    assert measure_target((1, 0), (0, 2)) == 0.0


def test_semiclassical_scan_window_one(scar6):
    rows = semiclassical_scan(scar6, 1)
    assert len(rows) == 81
    errs = {(r[0], r[1], r[2], r[3]): r[6] for r in rows}
    assert errs[(0, 0, 0, 0)] < 1e-12
    assert max(errs.values()) < 0.25
