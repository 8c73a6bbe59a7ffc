import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import catlab.scars
from catlab import (S1, ScarEnsemble, SymplecticMatrix, admissible_N,
                    build_scar, gaussian_autocorrelation,
                    lattice_overlap_sum, metaplectic_sl2,
                    overlap_closed_form, overlap_quadrature,
                    position_density, project_gaussian, semiclassical_scan,
                    torus_autocorrelation)
from catlab.hilbert import LatticeTranslation, StateSpace
from catlab.metaplectic import Propagator, period_phase
from catlab.scars import (TORUS_SUM_TOL, _gaussian_window, _half_period_map,
                          _reduce, leading_eigenvalue, measure_target)
from catlab.symplectic import quantum_period
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


def test_lattice_overlap_sum_pinned_bits():
    # float.hex of (total, l0_term, rest): the README example, an offset
    # case with b = 3, and an offset case with many lattice points
    cases = [
        ([[2, 1], [1, 1]], 2, 144, (0.0, 0.0),
         ["0x1.11acee560242ap-1", "0x1.11acee560242ap-1", "0x0.0p+0"]),
        ([[2, 3], [3, 5]], 2, 144, (0.2981, 0.157),
         ["0x1.76e30bc77966cp-5", "0x1.879b83abb7cd5p-22",
          "0x1.76e247f9b790ep-5"]),
        ([[2, 1], [1, 1]], 6, 144, (0.3, -0.2),
         ["0x1.6a14f5ae2ed04p-3", "0x1.22c5737d2e6e1p-74",
          "0x1.6a14f5ae2ed04p-3"]),
    ]
    for B, q, N, c, bits in cases:
        h = 1.0 / (2 * math.pi * N)
        got = lattice_overlap_sum(B, q, c, h)
        assert [v.hex() for v in got] == bits


def test_lattice_overlap_sum_is_periodic_in_c():
    # The total runs over every l, so it is periodic in c: the box is
    # centred on W c less its nearest integer vector, and (1000.25, 0) is
    # not refused.  For dyadic c the shift by m is exact in W c, and the
    # totals agree.  l0_term stays the l = 0 term at the shifted c, from
    # the box when it holds l = 0 and in closed form when it does not.  At
    # q = 6, W c = (0.25, 0.5) for c = (7.25, 4.5) and (1.25, 0.5) for
    # c + (13, 8), so l = 0 is y' = (1, 0), inside the box.
    h = 1.0 / (2 * math.pi * 144)
    for B, q, c, m in [(B_CAT, 2, (0.25, 0.0), (1000, 0)),
                       (B_CAT, 6, (7.25, 4.5), (13, 8)),
                       (B_CAT, 6, (0.4375, -0.375), (1, -1)),
                       (B_CAT, 6, (0.4375, -0.375), (3, -7)),
                       (SymplecticMatrix([[2, 3], [3, 5]]), 3,
                        (0.3125, 0.5), (-12, 5))]:
        total, _, _ = lattice_overlap_sum(B, q, c, h)
        x1, x2 = c[0] + m[0], c[1] + m[1]
        t, l0, rest = lattice_overlap_sum(B, q, (x1, x2), h)
        assert abs(t - total) <= 1e-15 * total
        assert rest == t - l0
        ((p, b), (_, s)) = B.power(q).entries
        Q = s * x1 * x1 - 2 * b * x1 * x2 + p * x2 * x2  # <A^-1 x, x>
        want = math.sqrt(2.0 / (p + s)) * math.exp(-Q / (2 * h * (p + s)))
        assert abs(l0 - want) <= 1e-13 * want
        assert (l0 > 0) == (m == (13, 8))


def _mp_lattice_sum(B, q, N, c):
    """
    ((total, x), (l0_term, x0)) of lattice_overlap_sum at 50 digits, x
    the exponent a Q(l + c) of the largest term and x0 that of l = 0:
    every l with a Q(l + c) <= a Q(c) + 60, for a dyadic offset c.  As
    Q(l + c) = |y + d|^2 for y = W l, d = W c and W = _reduce(A) (see
    test_reduce_brings_powers_to_the_identity), these l lie in the box
    |y_i + d_i| <= r, r^2 = Q(c) + 60 / a, of at most 1400 points here
    for every q; each term's Q is exact in integers at l = W^-1 y.
    """
    A = B.power(q).entries
    ((p, b), (_, s)) = A
    (w11, w12), (w21, w22) = _reduce(A)
    D = 1 << 10
    n1, n2 = (round(v * D) for v in c)
    assert (n1 / D, n2 / D) == tuple(c)

    def DDQ(u1, u2):  # D^2 Q(u / D)
        return s * u1 * u1 - 2 * b * u1 * u2 + p * u2 * u2

    with mpmath.workdps(50):
        k = mpmath.pi * N / ((p + s) * D * D)  # a / D^2
        Dr = math.isqrt(DDQ(n1, n2) + math.ceil(60 / k)) + 1
        e1, e2 = w11 * n1 + w12 * n2, w21 * n1 + w22 * n2  # D d
        x = {}
        for y1 in range((-Dr - e1) // D, (Dr - e1) // D + 1):
            for y2 in range((-Dr - e2) // D, (Dr - e2) // D + 1):
                l1, l2 = w22 * y1 - w12 * y2, w11 * y2 - w21 * y1
                x[l1, l2] = k * DDQ(D * l1 + n1, D * l2 + n2)
        amp = mpmath.sqrt(mpmath.mpf(2) / (p + s))
        total = amp * mpmath.fsum(mpmath.exp(-v) for v in x.values())
        return ((total, min(x.values())),
                (amp * mpmath.exp(-x[0, 0]), x[0, 0]))


def test_lattice_overlap_sum_matches_50_digits():
    # Rounding x = a Q(l + c) moves exp(-x) by about x 2^-53 relative, so
    # the total (x of its largest term) and l0 may differ from the 50-digit
    # sum by 8 such units or by 1e-14, whichever is larger, and by 2^-1072
    # where l0 underflows.  At q = 30, N = 10^12 (a = 0.9) a Q(l) form
    # evaluated at l = W^-1 y would cancel terms near 4e18.
    cases = list(itertools.product(
        (34, 144, 610), range(7), [(0.0, 0.0), (0.5, 0.5), (0.5, -0.5),
                                   (0.25, -0.375), (-0.5, 0.125)]))
    for N, q, c in cases + [(10 ** 12, 30, (0.0, 0.0))]:
        h = 1.0 / (2 * math.pi * N)
        got = lattice_overlap_sum(B_CAT, q, c, h)[:2]
        for v, (ref, x) in zip(got, _mp_lattice_sum(B_CAT, q, N, c)):
            tol = max(1e-14, 8 * x * 2 ** -53)
            assert abs(v - ref) <= tol * ref + 2 ** -1072, (N, q, c)


def _reference_autocorrelation(B, t, N):
    """
    The Python-int double loop that torus_autocorrelation replaced: the
    exact ellipse Q(l) <= r for the least integer r found whose tail
    bound is at most TORUS_SUM_TOL times sqrt(2 / Tr A).
    """
    ((p, b), (_, s)) = B.power(abs(t)).entries
    tr = p + s
    a = math.pi * N / tr
    amp = math.sqrt(2.0 / tr)
    g = math.sqrt(math.pi / (a * p))
    far_rows = (2 + math.sqrt(math.pi * p / a)) * (1 + g)

    def tail(r):
        rows = 2 * math.isqrt(p * r) + 1
        return amp * math.exp(-a * r) * (rows * (2 + g) + far_rows)

    target = TORUS_SUM_TOL * amp
    r = math.ceil(math.log(1 / TORUS_SUM_TOL) / a)
    while tail(r) > target:
        r += math.ceil(math.log(tail(r) / target) / a)
    quad, phase = [], []
    L = math.isqrt(p * r)
    for l1 in range(-L, L + 1):
        w = math.isqrt(p * r - l1 * l1)
        for l2 in range(-((w - b * l1) // p), (b * l1 + w) // p + 1):
            m = p * l2 - b * l1
            quad.append((m * m + l1 * l1) // p)
            form = -b * l1 * l1 + (p - s) * l1 * l2 + b * l2 * l2
            phase.append(N * form % (2 * tr))
    quad = np.array(quad, dtype=float)
    phase = np.array(phase, dtype=float)
    value = complex(amp * np.sum(np.exp(-a * quad + 1j * np.pi * phase / tr)))
    return value.conjugate() if t < 0 else value


def test_torus_autocorrelation_matches_reference_loop():
    # N = 34 up to t = 13, the largest t below TORUS_SUM_LIMIT.  At
    # N = 10^6, t = 18 the products N b l1^2 reach 2e23; at N = 10^9,
    # t = 22 the residue products (2 Tr A)^2 = 1e19 overflow int64 too;
    # at (N_24, 24) the ellipse Q(l) <= r spans 1.2e6 rows in l1.
    N24 = admissible_N(B_CAT, 24).value
    for N, ts in [(34, range(14)), (10 ** 6, (16, 18)), (10 ** 9, (22,)),
                  (N24, (24,))]:
        for t in ts:
            got = torus_autocorrelation(B_CAT, t, N)
            assert abs(got.value - _reference_autocorrelation(B_CAT, t, N)) \
                <= 1e-15
    with pytest.raises(ValueError):
        torus_autocorrelation(B_CAT, 14, 34)
    # At t = 41 the phase modulus 2 Tr B^t exceeds 2^57, and N = 10^24
    # leaves only l = 0, the plane value.  The (N_30, 30) value was
    # recorded from this box sum.
    amp = math.sqrt(2.0 / B_CAT.power(41).trace())
    res = torus_autocorrelation(B_CAT, 41, 10 ** 24)
    assert res.value == amp and 0 < res.tail_bound <= TORUS_SUM_TOL * amp
    amp = math.sqrt(2.0 / B_CAT.power(30).trace())
    res = torus_autocorrelation(B_CAT, 30, admissible_N(B_CAT, 30).value)
    assert abs(abs(res.value) - 1.05420981473e-6) < 1e-17
    assert 0 < res.tail_bound <= TORUS_SUM_TOL * amp


def test_torus_autocorrelation_enumerates_once(monkeypatch):
    # Its goal is fixed, so the box is found from the tail bound alone and
    # enumerated once.  float.hex of (value.real, value.imag), recorded
    # when every radius tried was enumerated by an ellipse walk, and of
    # (radius, tail_bound) for the box.
    cases = [
        (34, 12, ["-0x1.51ed73aec36b3p-2", "-0x1.b07b000000000p-53"],
         ["0x1.6b58b888d64dbp+15", "0x1.9ed048d1657cep-65"]),
        (144, 3, ["0x1.555555559ca65p-2", "0x0.0p+0"],
         ["0x1.a1944def3a31fp+0", "0x1.ebe9c5db3c60cp-59"]),
        (610, -5, ["0x1.0526baeb6ae24p-3", "0x1.72bdf0365261cp-76"],
         ["0x1.51b03f5c41c75p+1", "0x1.785bde69bc8dfp-60"]),
    ]
    box_sum = catlab.scars._box_sum
    calls = []

    def counted(a, amp, d, term, what):
        def counted_term(y1, y2):
            calls.append(y1.size * y2.size)
            return term(y1, y2)
        return box_sum(a, amp, d, counted_term, what)

    monkeypatch.setattr(catlab.scars, "_box_sum", counted)
    for N, t, value, bits in cases:
        calls.clear()
        res = torus_autocorrelation(B_CAT, t, N)
        assert len(calls) == 1
        assert abs(res.value - complex(*map(float.fromhex, value))) <= 1e-15
        assert [v.hex() for v in (res.radius, res.tail_bound)] == bits


def test_torus_sums_refuse_before_allocating():
    h = 1.0 / (2 * math.pi * 34)
    for refused in (lambda: torus_autocorrelation(B_CAT, 40, 34),
                    lambda: lattice_overlap_sum(B_CAT, 30, (0.0, 0.0), h)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="TORUS_SUM_LIMIT"):
                refused()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _object_array_autocorrelation(B, t, N):
    """
    (value, radius, tail bound) of the box sum with every phase residue
    in numpy object arrays of Python integers, the form the int64 kernel
    replaced: the same box, terms and operation order.
    """
    A = B.power(abs(t)).entries
    tr = A[0][0] + A[1][1]
    a = math.pi * N / tr
    amp = math.sqrt(2.0 / tr)
    T = 2 * tr
    (w11, w12), (w21, w22) = _reduce(A)
    nt = -N * (w11 * w21 + w12 * w22) % T
    nd = N * (w21 * w21 + w22 * w22 - w11 * w11 - w12 * w12) % T

    def cis(x):
        return np.exp(1j * np.pi * (x % T).astype(float) / tr)

    def term(y1, y2):
        o1, o2 = y1.astype(object), y2.astype(object)
        return (amp * np.exp(-a * y1 * y1) * cis(-nt * o1 * o1)
                * (np.exp(-a * y2 * y2) * cis(nt * o2 * o2))
                * cis(nd * o1 % T * o2))

    terms, _, R, bound = catlab.scars._box_sum(a, amp, (0.0, 0.0), term, "")
    value = complex(terms.sum())
    return value.conjugate() if t < 0 else value, R * R, bound


def _same_bits(x, y):
    """x == y for real or complex arrays, signs of zeros included."""
    x, y = np.asarray(x), np.asarray(y)
    return all(np.array_equal(u, v) and np.array_equal(np.signbit(u),
                                                       np.signbit(v))
               for u, v in [(x.real, y.real), (x.imag, y.imag)])


def test_torus_autocorrelation_is_the_object_array_sum_bit_for_bit():
    # (10^14, 40) puts 2 Tr A R^ at 0.988 * 2^63, next to the int64 guard;
    # at (10^40, 50) 2 Tr A exceeds 2^63 and the box is y = 0 alone.
    N24 = admissible_N(B_CAT, 24).value
    N30 = admissible_N(B_CAT, 30).value
    cases = ([(34, t) for t in range(14)]
             + [(144, 3), (144, -3), (610, -5), (10 ** 6, 16),
                (10 ** 6, 18), (10 ** 9, 22), (N24, 24), (N30, 30),
                (10 ** 24, 41), (10 ** 14, 40), (10 ** 40, 50)])
    for N, t in cases:
        got = torus_autocorrelation(B_CAT, t, N)
        value, radius, bound = _object_array_autocorrelation(B_CAT, t, N)
        assert _same_bits(got.value, value), (N, t)
        assert (got.radius, got.tail_bound) == (radius, bound), (N, t)


def test_torus_autocorrelation_int64_guard_refuses_before_allocating():
    # At (5 10^13, 40) the box is 251^2 points, within TORUS_SUM_LIMIT,
    # but 2 Tr A R^ = 1.42 * 2^63: the cross residues could wrap in int64.
    # A 2-D complex array of the box alone would be 1.0 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="t = 40, N = 50000000000000: "
                           ".* int64 guard"):
            torus_autocorrelation(B_CAT, 40, 5 * 10 ** 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_reduce_brings_powers_to_the_identity():
    for B in (B_CAT, SymplecticMatrix([[2, 3], [3, 5]]),
              SymplecticMatrix([[5, 2], [2, 1]])):
        for q in range(61):
            A = B.power(q).entries
            W = np.array(_reduce(A), dtype=object)
            assert W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0] == 1
            WAWt = W @ np.array(A, dtype=object) @ W.T
            assert WAWt.tolist() == [[1, 0], [0, 1]], (B, q)


def test_build_scar_validation():
    with pytest.raises(ValueError):
        build_scar([[2, 3], [1, 2]], 6)  # not symmetric
    with pytest.raises(ValueError):
        build_scar([[-2, 1], [1, -1]], 6)  # trace -3
    with pytest.raises(ValueError):
        build_scar(B_CAT, 4)  # odd trace needs k = 0 mod 6


def test_scar_config_values(scar6):
    assert (scar6.N, scar6.P) == (144, 12)
    assert abs(scar6.phi) < 1e-8
    assert abs(scar6.lam - LAM) < 1e-14


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
    # P x N array V plus window-sized and length-N FFT work arrays: no
    # second orbit array, no P x N copy of U V or conj(V).
    tracemalloc.start()
    try:
        scar = build_scar(B_CAT, 12)
        me = scar.matrix_element((1, 2), (0, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(me - scar12.matrix_element((1, 2), (0, -1))) < 1e-12
    assert peak < 1.5 * scar.V.nbytes


def _per_j_reference(scar, j):
    """
    The per-j D_j that the window kernel replaced: U_{j/N} applied to each
    row of V, then conj(D) = conj(U V) @ V^T in blocks of 8 rows.
    """
    U = LatticeTranslation(scar.M.space, j)
    V, P = scar.V, scar.P
    D = np.empty((P, P), dtype=np.complex128)
    for lo in range(0, P, 8):
        rows = np.conj(U.apply_array(V[lo:lo + 8]))
        D[lo:lo + len(rows)] = np.conj(rows @ V.T)
    return D


WINDOW2 = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
# The scan kernel's gate: the README and benchmark scars, and N = 34, where
# the Gaussian's window is the whole row.
KERNEL_CASES = [(B_CAT, 6), (B_CAT, 12), ([[5, 2], [2, 1]], 4),
                ([[5, 2], [2, 1]], 6), ([[2, 3], [3, 5]], 6),
                ([[1, 1], [1, 2]], 6), ([[29, 12], [12, 5]], 2)]
KERNEL_IDS = ["scar6", "scar12", "M5-k4", "M5-k6", "M7-k6", "CAT_T-k6",
              "M29-k2"]


@pytest.mark.parametrize("B,k", KERNEL_CASES, ids=KERNEL_IDS)
def test_window_kernel_matches_per_j_reference(B, k, scar12):
    # One pass fills the window and far vectors, whose entries reduce mod
    # 2N to large residues (at N = 46368, (98765, -123457) is
    # (6029, -30721)), and (N, N), which is its own negative.
    built = scar12 if (B, k) == (B_CAT, 12) else build_scar(B, k)
    scar = ScarEnsemble(built.B, built.N, built.P)  # empty caches
    N = scar.N
    far = [(7, -3), (98765, -123457), (-98765, 123457), (N, N), (3 * N, -N)]
    Ds = scar._dmats_of(WINDOW2 + far)
    for j, D in zip(WINDOW2 + far, Ds):
        assert np.abs(D - _per_j_reference(scar, j)).max() <= 1e-13, j
    # U_{-j} = U_j^dagger: one of each pair is computed, the other is
    # its conjugate transpose
    for j in WINDOW2 + far[:2]:
        Dj, Dneg = scar._dmats_of([j, (-j[0], -j[1])])
        if j != (0, 0):
            assert np.array_equal(Dneg, Dj.conj().T)
    far_j, same_residue = scar._dmats_of([(N + 2, -N - 1), (-N + 2, N - 1)])
    assert far_j is same_residue


@pytest.mark.parametrize("B,k", KERNEL_CASES, ids=KERNEL_IDS)
def test_gaussian_window_is_the_least_proven_radius(B, k):
    # The kernel reads G_N = V[P/2] on |w| <= R, R the least radius whose
    # omitted l2 mass is at most TORUS_SUM_TOL ||G_N||, or on the whole row
    # when 2R + 1 > N; the masses are summed here with fsum.
    scar = build_scar(B, k)
    N = scar.N
    G = project_gaussian(StateSpace(1, N)).coeffs
    assert np.array_equal(scar.V[scar.P // 2], G)
    dist = np.minimum(np.arange(N), N - np.arange(N))
    goal = TORUS_SUM_TOL * np.linalg.norm(G)

    def omitted(r):
        return math.sqrt(math.fsum(np.abs(G[dist > r]) ** 2))

    w, Gw = _gaussian_window(G.real)
    if len(w) == N:
        R = N // 2
        assert np.array_equal(w, np.arange(N))
    else:
        R = -w[0]
        assert np.array_equal(w, np.arange(-R, R + 1)) and 2 * R + 1 < N
    assert np.array_equal(Gw, G[w].real) and not G.imag.any()
    assert omitted(R) <= goal < omitted(R - 1)


def test_window_kernel_memory(scar12):
    # The k = 12 window-2 set is filled from the Gaussian's window in
    # blocks of residues: its work arrays stay far below one P x N array.
    scar = build_scar(B_CAT, 12)
    scar.V  # the orbit is built on first use, before the trace
    tracemalloc.start()
    try:
        scar._dmats_of(WINDOW2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * scar.V.nbytes


def test_scan_fills_its_window_in_one_pass(scar6, monkeypatch):
    passes = []
    grams = catlab.scars._translation_grams

    def counted(V, B, ms):
        passes.append(len(ms))
        return grams(V, B, ms)

    monkeypatch.setattr(catlab.scars, "_translation_grams", counted)
    scar = build_scar(B_CAT, 6)
    rows = semiclassical_scan(scar, 2)
    assert passes == [12]  # 24 vectors in 12 +- pairs; D_0 is the lattice's
    # each D_j is the same whatever else its pass filled
    assert rows == semiclassical_scan(scar6, 2)


def test_matrix_element_permutes_each_d_once(scar6):
    # a window-2 scan permutes its stack of the 25 D_k once, and
    # matrix_element permutes D_k with the same array operation
    scar = build_scar(B_CAT, 6)
    semiclassical_scan(scar, 2)
    w = scar.wperm
    for j, k in [((0, 0), (0, 0)), ((1, -2), (2, 1)), ((-2, 2), (0, -1))]:
        Dj, Dk = scar._dmats_of([j, k])
        direct = complex(np.sum(Dj * Dk[w][:, w]) / scar.P)
        assert scar.matrix_element(j, k) == direct


def test_scar_ensemble_can_refuse_an_n_other_than_n_k():
    # Away from N_k the lattice sums behind theta, phi and D_0 can exceed
    # TORUS_SUM_LIMIT: at N = 10, P = 30, A(13) needs radius 4.3e5.
    assert quantum_period(B_CAT, 10) == 30
    with pytest.raises(ValueError, match="t = 13, N = 10 .* TORUS_SUM_LIMIT"):
        ScarEnsemble(B_CAT, 10, 30)


def test_build_scar_checks_the_period_phase(scar6):
    # An orbit one step short has an odd period, for which no half-period
    # map T, and so no lattice theta, phi or D_0, exists.
    with pytest.raises(AssertionError, match="M\\^P G_N"):
        ScarEnsemble(scar6.B, scar6.N, scar6.P - 1)


@pytest.mark.parametrize("fixture", ["scar6", "scar12"])
def test_scar_phase_matches_period_phase(fixture, request):
    # period_phase measures phi independently: from the trace of the dense
    # M^P at k = 6 (N = 144), from M^P e_0 at k = 12 (N = 46368).
    scar = request.getfixturevalue(fixture)
    pp = period_phase(metaplectic_sl2(StateSpace(1, scar.N), B_CAT), scar.P)
    assert abs(scar.phi - pp.phi) <= 1e-9


@pytest.mark.parametrize("B,N,beta_gamma", [
    ([[29, 12], [12, 5]], 34, (0, 0)), ([[2, 1], [1, 1]], 144, (1, 1)),
    ([[1, 1], [1, 2]], 144, (1, 1)), ([[5, 2], [2, 1]], 204, (0, 0))])
def test_half_period_map_is_m_to_the_half_period(B, N, beta_gamma):
    # the analytic signed permutation T against the dense M^{P/2}, up to
    # its unit phase theta
    B = SymplecticMatrix(B)
    P = quantum_period(B, N)
    (_, b), (c, _) = B.power(P // 2).entries  # [[a, beta N], [gamma N, d]]
    assert (b // N % 2, c // N % 2) == beta_gamma
    src, weight = _half_period_map(B, N, P)
    T = np.zeros((N, N), dtype=np.complex128)
    T[np.arange(N), src] = weight
    half = np.linalg.matrix_power(metaplectic_sl2(StateSpace(1, N), B).dense,
                                  P // 2)
    theta = np.vdot(T, half)
    theta /= abs(theta)
    assert np.abs(np.conj(theta) * half - T).max() <= 1e-12


@pytest.mark.parametrize("fixture", ["scar6", "scar12"])
def test_half_orbit_matches_full_orbit(fixture, request):
    # The orbit built from M^{P/2} = theta T against P full applies,
    # phased the same way.
    scar = request.getfixturevalue(fixture)
    P, N = scar.P, scar.N
    G = project_gaussian(StateSpace(1, N)).coeffs
    ref = np.empty((P, N), dtype=np.complex128)
    g = G
    for s in range(P):
        ref[(s + P // 2) % P] = g
        g = scar.M.apply_array(g)
    phi = np.angle(np.vdot(G, g))
    ref *= np.exp(-1j * phi * scar.wperm / P)[:, None]
    assert np.abs(scar.V - ref).max() <= 1e-10


# The lattice gate: the matrices and admissible k of the README, the
# benchmark and the overlap tests, N from 6 to 46368.
GATE = [(B_CAT, 6), (B_CAT, 12), ([[5, 2], [2, 1]], 2), ([[5, 2], [2, 1]], 4),
        ([[5, 2], [2, 1]], 6), ([[2, 3], [3, 5]], 6),
        ([[29, 12], [12, 5]], 2), ([[1, 1], [1, 2]], 6)]


def _check_lattice_gram(scar):
    """theta, phi, D_0 and the norm of the lattice against the orbit."""
    P, N = scar.P, scar.N
    D0 = scar._dmats_of([(0, 0)])[0]
    assert "V" not in vars(scar)  # D_0 came from the lattice
    gram = scar.V @ scar.V.conj().T
    assert np.abs(D0 - gram).max() <= 1e-11
    w = scar.wperm
    norm2 = (gram * gram[w][:, w]).sum().real / P
    assert abs(scar.norm_squared() - norm2) <= 1e-11 * norm2
    phi = period_phase(scar.M, P).phi
    assert abs(np.angle(np.exp(1j * (scar.phi - phi)))) <= 1e-9
    # theta against the phase of vdot(T G_N, M^{P/2} G_N)
    src, weight = _half_period_map(scar.B, N, P)
    G = project_gaussian(StateSpace(1, N)).coeffs
    g = G
    for _ in range(P // 2):
        g = scar.M.apply_array(g)
    fit = np.vdot(weight * G[src], g)
    assert abs(scar.theta - fit / abs(fit)) <= 1e-9


@pytest.mark.parametrize("B,k", GATE)
def test_lattice_gram_matches_orbit(B, k):
    _check_lattice_gram(build_scar(B, k))


@pytest.mark.parametrize("B,N", [([[2, 1], [1, 1]], 8),
                                 ([[5, 2], [2, 1]], 12),
                                 ([[29, 12], [12, 5]], 18)])
def test_lattice_gram_with_theta_minus_one(B, N):
    # At these even N, not N_k, M^{P/2} = -T: the sign of theta reaches
    # both the orbit's half-step check and the second half of V.
    B = SymplecticMatrix(B)
    scar = ScarEnsemble(B, N, quantum_period(B, N))
    assert abs(scar.theta + 1) <= 1e-12
    _check_lattice_gram(scar)


def test_lattice_gram_checks_theta(monkeypatch):
    # A half-period map off by one index gives |theta| far from 1: the
    # lattice check raises before any orbit is built.
    half_period_map = catlab.scars._half_period_map

    def shifted(B, N, P):
        src, weight = half_period_map(B, N, P)
        return (src + 1) % N, weight

    monkeypatch.setattr(catlab.scars, "_half_period_map", shifted)
    with pytest.raises(AssertionError, match="M\\^P G_N: \\|theta\\|"):
        build_scar(B_CAT, 6)


@pytest.mark.parametrize("B", [B_CAT, [[1, 1], [1, 2]]])
def test_lattice_gram_folds_past_half_period(B):
    # D_0[q, 0] = e^{-i phi q / P} vdot(G_N, M^q G_N), which for q > P/2
    # is folded from A(P - q) by M^P G_N = e^{i phi} G_N.
    scar = build_scar(B, 6)
    P, N = scar.P, scar.N
    D0 = scar._dmats_of([(0, 0)])[0]
    G = project_gaussian(StateSpace(1, N)).coeffs
    g = G
    for q in range(1, P):
        g = scar.M.apply_array(g)
        if q > P // 2:
            want = np.vdot(G, g) * np.exp(-1j * scar.phi * q / P)
            assert abs(D0[q, 0] - want) <= 1e-12, q


def _reference_lattice_gram(B, N, P):
    """theta, phi and D_0 from object-array sums over B.power(q)."""
    src, weight = _half_period_map(B, N, P)
    G = project_gaussian(StateSpace(1, N)).coeffs
    TG = weight * G[src]
    A = np.array([_object_array_autocorrelation(B, q, N)[0]
                  for q in range(P // 2 + 1)])
    theta = A[-1] / np.vdot(G, TG)
    ratio = np.vdot(G, weight * TG[src]) / A[0]
    theta /= abs(theta)
    phi = float(np.angle(theta * theta * ratio))
    f = np.empty(P, dtype=np.complex128)
    f[:len(A)] = A * np.exp(-1j * phi * np.arange(len(A)) / P)
    f[len(A):] = f[P - len(A):0:-1].conj()
    i = np.arange(P)
    return theta, phi, f[(i[:, None] - i) % P]


def _reference_orbit(scar):
    """V from a fresh G_N and T, as before they were handed over."""
    N, P, h = scar.N, scar.P, scar.P // 2
    V = np.empty((P, N), dtype=np.complex128)
    G = project_gaussian(StateSpace(1, N)).coeffs
    V[h] = G
    for s in range(1, h):
        V[h + s] = scar.M.apply_array(V[h + s - 1])
    src, weight = _half_period_map(scar.B, N, P)
    weight *= scar.theta
    V[0] = G[src] * weight
    for i in range(1, h):
        V[i] = V[h + i][src] * weight
    V *= np.exp(-1j * scar.phi * scar.wperm / P)[:, None]
    return V


@pytest.mark.parametrize("B,k", KERNEL_CASES, ids=KERNEL_IDS)
def test_scar_setup_is_the_reference_bit_for_bit(B, k):
    # theta, phi and D_0 against per-q object-array sums, and V against
    # the orbit from a fresh G_N and T; M's chirps are gated against
    # np.exp in test_metaplectic.
    scar = build_scar(B, k)
    theta, phi, D0 = _reference_lattice_gram(scar.B, scar.N, scar.P)
    assert _same_bits(scar.theta, theta) and phi == scar.phi
    assert _same_bits(scar._dmats_of([(0, 0)])[0], D0)
    assert _same_bits(scar.V, _reference_orbit(scar))
    assert not hasattr(scar, "_orbit_seed")  # dropped with the orbit built


@pytest.mark.parametrize("k", [6, 12])
def test_scar_applies_m_once_per_period_step(k, monkeypatch):
    # Building a scar and its norm apply M zero times: theta, phi and D_0
    # come from the lattice.  The first access to V applies M exactly
    # P/2 + 1 times, each to one state: the orbit M^s G_N for s < P/2, the
    # half step M^{P/2} G_N checked against theta T G_N, and the closing
    # step; T fills the second half.  Later uses reuse V.
    shapes = []
    apply_array = Propagator.apply_array

    def counted(self, c):
        shapes.append(np.shape(c))
        return apply_array(self, c)

    monkeypatch.setattr(Propagator, "apply_array", counted)
    scar = build_scar(B_CAT, k)
    scar.norm_squared()
    assert shapes == []
    scar.V
    assert shapes == [(scar.N,)] * (scar.P // 2 + 1)
    scar.matrix_element((1, 0), (0, 1))
    assert len(shapes) == scar.P // 2 + 1


@pytest.mark.parametrize("center", [False, True])
def test_density_rows_match_position_density(scar6, center):
    # the streamed rows against the grid of the dense state
    rows = np.array(list(scar6.density_rows(center)))
    grid = position_density(scar6.materialize(), center)
    assert rows.shape == grid.shape == (scar6.N, scar6.N)
    assert np.abs(rows - grid).max() <= 1e-15 * grid.max()


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("B, k", [([[2, 1], [1, 1]], 6), ([[1, 1], [1, 2]], 6),
                                  ([[5, 2], [2, 1]], 4),
                                  ([[29, 12], [12, 5]], 2)])
def test_folded_density_matches_position_density(B, k, center):
    scar = build_scar(B, k)
    D, c = scar.folded_density(center)
    grid = position_density(scar.materialize(), center)
    assert D.shape == (scar.N // 2 + 1,) * 2 and c.shape == (scar.N,)
    assert np.abs(D[np.ix_(c, c)] - grid).max() <= 1e-15 * grid.max()
    assert np.array_equal(D, D.T)


def test_folded_density_refuses_an_odd_orbit():
    scar = build_scar(B_CAT, 6)
    scar.V[:, 1] += 1e-5
    with pytest.raises(AssertionError, match="not even"):
        scar.folded_density(False)


def test_scar_is_tensor_eigenfunction(scar6, tensor144):
    assert scar6.eigen_residual(tensor144) < 1e-10


def test_swap_symmetry(scar6):
    # u is built so the two tensor factors differ by half a period;
    # swapping the factors of the materialized state reproduces it.
    u = scar6.materialize().coeffs.reshape(scar6.N, scar6.N)
    assert np.abs(u - u.T).max() / np.abs(u).max() < 1e-10


def test_measure_target_table():
    assert measure_target((0, 0), (0, 0)) == 1.0
    assert measure_target((1, 0), (0, 0)) == 0.5
    assert measure_target((0, 0), (0, 2)) == 0.5
    assert measure_target((1, 0), (0, 2)) == 0.0


def test_semiclassical_scan_refuses_before_any_gram(scar6, monkeypatch):
    # window 40 is 81^4 = 43M rows, tens of GB; window 20 is 41^4 = 2.8M
    def unreachable(*a):
        raise AssertionError("a Gram was about to be built")
    monkeypatch.setattr(catlab.scars, "_translation_grams", unreachable)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="window-40 scan of 43046721 "
                           "rows .* SCAR_MAX_BYTES"):
            semiclassical_scan(scar6, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    with pytest.raises(ValueError, match="window-21"):
        semiclassical_scan(scar6, 21)
    with pytest.raises(AssertionError, match="Gram"):
        semiclassical_scan(scar6, 20)


def test_semiclassical_scan_window_one(scar6):
    rows = semiclassical_scan(scar6, 1)
    assert len(rows) == 81
    # the one product against the API, one matrix element at a time
    norm2 = scar6.norm_squared()
    for j1, j2, k1, k2, ratio, _, _ in rows:
        me = scar6.matrix_element((j1, j2), (k1, k2))
        assert abs(ratio - me / norm2) <= 1e-15
    errs = {(r[0], r[1], r[2], r[3]): r[6] for r in rows}
    assert errs[(0, 0, 0, 0)] < 1e-12
    assert max(errs.values()) < 0.25
