"""
The scarred-eigenfunction pipeline.

From a hyperbolic, symmetric, positive-entry B in SL(2,Z) and an
admissible index k, build_scar(B, k) builds the tensor eigenfunction

    u = P^{-1/2} sum_t v_t (x) w_t,
    v_t = e^{-i phi t / P} M^t G_N,   w_t = v_{t + P/2},

in factored form (P states of length N, never an N^2 vector unless
explicitly materialized).  theta (M^{P/2} = theta T, T a signed
permutation known in closed form), the period phase phi and the Gram
D_0, which gives the norm, come from P/2 + 1 exact torus
autocorrelations with no apply of M (_lattice_gram): one sequence of
integer powers B^q, each summed with exact integer phases held in int64.
The orbit is built on first use, from the G_N and T that _lattice_gram
computed; its second half is theta T applied to its first.  Together
with Gaussian overlap closed forms, lattice overlap sums, the exact torus
autocorrelation, matrix elements, and semiclassical-measure scans.
"""

from dataclasses import dataclass
import functools
import itertools
import math

import numpy as np

from . import hilbert
from .hilbert import QuantumState, StateSpace, _lattice_residue
from .metaplectic import PERIOD_PHASE_TOL, metaplectic_sl2
from .symplectic import SymplecticMatrix, admissible_N, quantum_period


def leading_eigenvalue(B):
    tr = float(B.trace())
    return (tr + math.sqrt(tr * tr - 4)) / 2


def gaussian_autocorrelation(lam, t):
    """sqrt(2 / (lambda^t + lambda^-t)); even in t."""
    if lam <= 1:
        raise ValueError("lambda must exceed 1")
    return math.sqrt(2.0 / (lam ** t + lam ** (-t)))


def S1(lam):
    """sum over integer t of 2 / (lambda^t + lambda^-t), to 1e-16."""
    total = 1.0  # t = 0 term: 2/2
    t = 1
    while True:
        term = 2.0 / (lam ** t + lam ** (-t))
        total += 2 * term
        if term < 1e-16:
            return total
        t += 1


def _check_overlap_matrix(B):
    """B, if 2 x 2 with b = c > 0 and a + d > 2; then a d = 1 + b^2
    makes a, d > 0."""
    if not isinstance(B, SymplecticMatrix):
        B = SymplecticMatrix(B)
    if B.n != 1:
        raise ValueError("the matrix must be 2 x 2, not %d x %d"
                         % (2 * B.n, 2 * B.n))
    ((a, b), (c, d)) = B.entries
    if b != c or b <= 0:
        raise ValueError("the matrix must be symmetric with b = c > 0")
    if a + d <= 2:
        raise ValueError("the matrix must be hyperbolic (trace > 2)")
    return B


def _powers(B, n):
    """[B^0, ..., B^n] for 2 x 2 B, as Python-int entries: n products."""
    ((p, b), (c, d)) = B.entries
    out = [((1, 0), (0, 1))]
    for _ in range(n):
        ((x, y), (z, w)) = out[-1]
        out.append(((x * p + y * c, x * b + y * d),
                    (z * p + w * c, z * b + w * d)))
    return out


def overlap_closed_form(B, omega, h):
    """
    <U_omega G_h, M_B G_h> in L2(R):
    sqrt(2/Tr B) exp(-<B^{-1} w, w> / (2 h Tr B))
                 exp( i <B R w, w> / (2 h Tr B)),  R = [[0, 1], [-1, 0]].
    """
    B = _check_overlap_matrix(B)
    tr = float(B.trace())
    Binv = np.array(B.inverse().entries, dtype=float)
    Barr = np.array(B.entries, dtype=float)
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    w = np.asarray(omega, dtype=float)
    quad = float(w @ Binv @ w)
    phase = float(w @ (Barr @ R) @ w)
    return (math.sqrt(2.0 / tr)
            * math.exp(-quad / (2 * h * tr))
            * np.exp(1j * phase / (2 * h * tr)))


def _chirp_z(f, theta):
    """
    S_i = sum_j f_j e^{-i theta i j}, i = 0..n-1, by Bluestein's
    chirp-z: i j = (i^2 + j^2 - (i - j)^2) / 2 turns the sum into a
    pre-chirp, one FFT convolution with e^{i theta k^2 / 2} for
    |k| < n, and a post-chirp.
    """
    n = len(f)
    L = 1 << (2 * n - 2).bit_length()  # least power of 2 >= 2n - 1
    k = np.arange(n, dtype=float)
    down = np.exp(-0.5j * theta * k * k)
    kern = np.zeros(L, dtype=np.complex128)
    kern[:n] = down.conj()
    kern[L - n + 1:] = kern[n - 1:0:-1]
    conv = np.fft.ifft(np.fft.fft(f * down, L) * np.fft.fft(kern))
    return down * conv[:n]


def overlap_quadrature(B, omega, h):
    """
    Independent trapezoid evaluation of <U_omega G_h, M_B G_h> in L2(R),
    refining the grid until the value stabilizes to QUADRATURE_RTOL
    (absolute floor 1e-12).  Used as the oracle for overlap_closed_form.

    The inner integral M_B G_h(x_i) = c sum_j w_j K(x_i, y_j) G_h(y_j)
    over the uniform grids x_i = lo + i dx, y_j = -half + j dy has the
    cross term e^{-i x_i y_j / (h b)}, and x_i y_j = lo y_j - i dx half
    + i j dx dy, so the whole x grid is one chirp-z transform with
    theta = dx dy / (h b): O(n log n) time and O(n) memory per level.
    Raises RuntimeError when the grid would exceed QUADRATURE_MAX_POINTS.
    """
    B = _check_overlap_matrix(B)
    ((a, b), (c, d)) = B.entries
    y, eta = float(omega[0]), float(omega[1])
    s = math.sqrt(h)
    half = 10.0 * s
    lo = min(0.0, y) - half
    hi = max(0.0, y) + half
    hb = h * b

    def g(x):
        return (math.pi * h) ** (-0.25) * np.exp(-x * x / (2 * h))

    prev = None
    npts = 800
    while True:
        x, dx = np.linspace(lo, hi, npts, retstep=True)
        yy, dy = np.linspace(-half, half, npts, retstep=True)
        # M_B G_h on the x grid: the trapezoid sum over yy, factored
        w = np.full(npts, dy)
        w[[0, -1]] = dy / 2
        f = w * g(yy) * np.exp(1j * (a * yy - 2 * lo) * yy / (2 * hb))
        idx = np.arange(npts)
        MG = (np.exp(-1j * np.pi / 4) / math.sqrt(2 * np.pi * hb)
              * np.exp(1j * (d * x * x + 2 * idx * dx * half) / (2 * hb))
              * _chirp_z(f, dx * dy / hb))
        UG = np.exp(1j / h * (eta * x - y * eta / 2)) * g(x - y)
        val = complex(np.trapezoid(UG * np.conj(MG), x))
        tol = max(QUADRATURE_RTOL * abs(val), 1e-12)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        npts *= 2
        if npts > QUADRATURE_MAX_POINTS:
            raise RuntimeError("overlap quadrature failed to converge")


def lattice_overlap_sum(B, q, c, h):
    """
    sum over l in Z^2 of |<M_B^q G_h, U_{l+c} G_h>| via the closed form.
    Returns (total, l0_term, rest).  Requires q >= 0.

    With A = B^q = [[p, b], [b, s]] (A = I at q = 0) and a = 1 / (2 h Tr A),
    the term at l is sqrt(2 / Tr A) exp(-a Q(l + c)), Q(w) = <A^-1 w, w>.
    With W = _reduce(A), Q(l + c) = |y + d|^2 for y = W l and d = W c,
    and is evaluated in that form, which does not cancel for any q.  y
    runs over all of Z^2, so the total is periodic in d: with n the
    nearest integer vector to d, _box_sum sums amp exp(-a |y' + d - n|^2)
    over a box in y' = y + n whose tail bound is at most TORUS_SUM_TOL
    times its largest term, at y' = 0.  l0_term is the term at l = 0,
    y' = n: the box's entry, or its closed form when n is outside.
    """
    B = _check_overlap_matrix(B)
    if q < 0:
        raise ValueError("lattice_overlap_sum supports q >= 0 only")
    A = _powers(B, q)[-1]
    tr = A[0][0] + A[1][1]
    a = 1.0 / (2 * h * tr)
    amp = math.sqrt(2.0 / tr)
    c1, c2 = float(c[0]), float(c[1])
    (w11, w12), (w21, w22) = _reduce(A)
    d1, d2 = w11 * c1 + w12 * c2, w21 * c1 + w22 * c2
    n1, n2 = round(d1), round(d2)
    e1, e2 = d1 - n1, d2 - n2

    def term(y1, y2):
        return amp * np.exp(-a * ((y1 + e1) ** 2 + (y2 + e2) ** 2))

    terms, lo, _, _ = _box_sum(a, amp, (e1, e2), term,
                               "lattice_overlap_sum at q = %d" % q)
    total = terms.sum()
    i, j = n1 - lo[0], n2 - lo[1]
    if 0 <= i < terms.shape[0] and 0 <= j < terms.shape[1]:
        l0 = terms[i, j]
    else:
        l0 = amp * math.exp(-a * (d1 * d1 + d2 * d2))
    return float(total), float(l0), float(total - l0)


# overlap_quadrature's relative convergence goal between grid doublings.
QUADRATURE_RTOL = 1e-10
# Largest grid overlap_quadrature refines to before it raises: the ladder
# 800, 1600, ... stops at 51,200 points, one 131,072-point FFT.
QUADRATURE_MAX_POINTS = 60000
# Most lattice points torus_autocorrelation and lattice_overlap_sum
# enumerate before they refuse.
TORUS_SUM_LIMIT = 10 ** 6
# Omitted terms are bounded by this fraction of the l = 0 term.
TORUS_SUM_TOL = 1e-17


def _reduce(A):
    """
    W in SL(2, Z) with W A W^T = I, for A = [[p, b], [b, s]] in SL(2, Z)
    positive definite, by Gauss reduction of the form with Gram matrix A:
    row 2 of W less the nearest integer to b / p times row 1 brings b to
    |b| <= p / 2, and while then s < p a rotation [[0, -1], [1, 0]] swaps
    p and s.  p falls at every swap, so the loop ends with |2 b| <= p <=
    s, and p s - b^2 = 1 forces p^2 <= 1 + p^2 / 4, so p = 1, b = 0 and
    s = 1: the class number h(-4) is 1.  Exact in Python integers.
    """
    ((p, b), (_, s)) = A
    r1, r2 = (1, 0), (0, 1)
    while True:
        k = (2 * b + p) // (2 * p)
        s -= k * (2 * b - k * p)
        b -= k * p
        r2 = (r2[0] - k * r1[0], r2[1] - k * r1[1])
        if p <= s:
            return r1, r2
        p, b, s = s, -b, p
        r1, r2 = (-r2[0], -r2[1]), r1


def _box_sum(a, amp, d, term, what):
    """
    Evaluates term(y1, y2), whose modulus is at most amp exp(-a |y + d|^2),
    over the integer y of the box |y_i + d_i| <= R, y1 a column and y2 a
    row.  R solves tail bound = TORUS_SUM_TOL amp exp(-a |d|^2), the goal
    set by the bound at y = 0, in closed form, and is rounded up until the
    bound is at most the goal in floating point too; the box holds y = 0
    and is enumerated once.  Returns (terms, lo, R, tail bound), where
    terms[i, j] is the term at y = (lo[0] + i, lo[1] + j).  Raises
    ValueError, naming `what`, before any array is allocated, when the
    box holds more than TORUS_SUM_LIMIT points.

    The tail bound is proven.  exp(-a |y + d|^2) is a product of two
    1-D Gaussians f(y_i + d_i), f(x) = exp(-a x^2).  Over all integers a
    1-D sum is at most 1 + g, g = sqrt(pi / a): its largest term plus the
    integral.  Over y_i + d_i > R it is at most f(R) plus the integral
    beyond R, and erfc(x) <= exp(-x^2) makes that exp(-a R^2) (1 + g / 2);
    so the points with |y_i + d_i| > R add at most exp(-a R^2) (2 + g).
    Every omitted point has such a coordinate, so by a union bound over
    the two coordinates the omitted terms add at most
    2 amp exp(-a R^2) (2 + g) (1 + g), for any offset d.
    """
    g = math.sqrt(math.pi / a)
    excess = 2 * (2 + g) * (1 + g)
    dd = d[0] * d[0] + d[1] * d[1]
    R = math.sqrt(dd + math.log(excess / TORUS_SUM_TOL) / a)
    while (rel := excess * math.exp(-a * (R * R - dd))) > TORUS_SUM_TOL:
        R = math.nextafter(R, math.inf)
    lo = [math.ceil(-R - x) for x in d]
    hi = [math.floor(R - x) for x in d]
    if (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) > TORUS_SUM_LIMIT:
        raise ValueError("%s needs radius >= %g, beyond TORUS_SUM_LIMIT"
                         % (what, R * R))
    terms = term(np.arange(lo[0], hi[0] + 1)[:, None],
                 np.arange(lo[1], hi[1] + 1))
    return terms, lo, R, amp * math.exp(-a * dd) * rel


@dataclass(frozen=True)
class TorusAutocorrelation:
    value: complex
    radius: float      # the sum covers every l with <B^-t l, l> <= radius
    tail_bound: float  # proven bound on |sum of the omitted terms|


def _check_torus(B, N):
    """B as _check_overlap_matrix checks it; raises ValueError for odd N."""
    if N <= 0 or N % 2 != 0:
        raise ValueError("torus_autocorrelation requires even N > 0")
    return _check_overlap_matrix(B)


def torus_autocorrelation(B, t, N):
    """
    Exact <G_N, M^t G_N> on T^2 for even N: the lattice sum

        sum over l in Z^2 of <U_l G_h, M_{B^t} G_h>,   h = 1/(2 pi N),

    of the closed-form overlaps of overlap_closed_form, extended to t = 0
    by B^0 = I; negative t gives the complex conjugate.  The plane value
    gaussian_autocorrelation is the l = 0 term alone.  Evaluated by
    _autocorrelation at A = B^|t|.  Raises ValueError for odd N and when
    the sum would exceed TORUS_SUM_LIMIT or its int64 guard.
    """
    B = _check_torus(B, N)
    return _autocorrelation(_powers(B, abs(t))[-1], t, N)


def _autocorrelation(A, t, N):
    """
    torus_autocorrelation(B, t, N) from the Python-int entries of
    A = B^|t|.  With a = pi N / Tr A, the term at l is
    sqrt(2 / Tr A) exp(-a <A^-1 l, l>) exp(i pi N <A R l, l> / Tr A).
    In y = W l, W = _reduce(A) and U = W^-1, <A^-1 l, l> = |y|^2 and,
    as U^T R U = R, <A R l, l> = <S R y, y> with S = U^T U; its N
    multiple is taken mod T = 2 Tr A exactly.  _box_sum sums the terms
    over the box |y_i| <= R whose tail bound is at most TORUS_SUM_TOL
    times sqrt(2 / Tr A).

    The phase residues -nt y^2, nt y^2 and nd y mod T are exact in
    Python integers on the 1-D axis and then held in int64; the one 2-D
    residue (nd y1 mod T) y2 mod T is formed in int64, where its product
    is below T R^ for R^ = max |y_i| in the box.  So the sum is refused,
    with a ValueError naming the int64 guard and before any 2-D array is
    allocated, unless T R^ < 2^63.
    """
    what = "torus_autocorrelation at t = %d, N = %d" % (t, N)
    tr = A[0][0] + A[1][1]
    a = math.pi * N / tr
    amp = math.sqrt(2.0 / tr)
    T = 2 * tr
    (w11, w12), (w21, w22) = _reduce(A)
    # S = (W W^T)^-1 = [[s1, tau], [tau, s2]]; N tau and N (s1 - s2) mod T
    nt = -N * (w11 * w21 + w12 * w22) % T
    nd = N * (w21 * w21 + w22 * w22 - w11 * w11 - w12 * w12) % T

    def cis(x):  # e^{i pi x / tr} for int64 residues 0 <= x < T
        return np.exp(1j * np.pi * x.astype(float) / tr)

    def term(y1, y2):
        # N <S R y, y> = N (tau (y2^2 - y1^2) + (s1 - s2) y1 y2) mod T.
        # The box is symmetric about y = 0, and y1 is the axis y2 as a column.
        rmax = int(y2[-1])
        if T * rmax >= 2 ** 63:
            raise ValueError("%s: 2 Tr A R^ = %d is beyond the int64 "
                             "guard 2^63" % (what, T * rmax))
        r = np.array([(-nt * v * v % T, nt * v * v % T, nd * v % T)
                      for v in y2.tolist()], dtype=np.int64)
        cross = r[:, 2:] * y2
        if rmax:  # at R^ = 0 the box is y = 0, and T may exceed int64
            cross %= T
        g = np.exp(-a * y2 * y2)
        e = cis(r[:, :2])
        return (amp * g[:, None] * e[:, :1] * (g * e[:, 1]) * cis(cross))

    terms, _, R, bound = _box_sum(a, amp, (0.0, 0.0), term, what)
    value = complex(terms.sum())
    if t < 0:
        value = value.conjugate()
    return TorusAutocorrelation(value=value, radius=R * R, tail_bound=bound)


# Largest P x N complex orbit array build_scar admits; it refuses before
# any array of length N is allocated.
SCAR_MAX_BYTES = 2 * 2 ** 30
# Peak RSS growth per row of a `scar-scan` run, the rows with their CSV
# tuples and text: 678-709 bytes measured at CAT k = 6, windows 6-12.
_SCAN_ROW_BYTES = 700
# Largest N^2 a scar materializes as a dense tensor state.
MATERIALIZE_LIMIT = 16_000_000


# Bytes of complex amplitudes per block of rows in density_rows.
_DENSITY_BLOCK_BYTES = 4 * 2 ** 20
# Bytes of complex phases per block of residues in _translation_grams.
_GRAM_BLOCK_BYTES = 2 ** 18


def _columns(V, start, count):
    """V[:, (start + arange(count)) mod N]; a view unless it wraps."""
    N = V.shape[1]
    start %= N
    if start + count <= N:
        return V[:, start:start + count]
    return np.concatenate((V[:, start:], V[:, :start + count - N]), axis=1)


def _gaussian_window(G):
    """
    (w, G[w]) for real G of even length N: w = -R..R for the least R whose
    omitted l2 mass ||G - G_R||, summed from the array, is at most
    TORUS_SUM_TOL ||G||, or w = 0..N-1 when 2R + 1 > N.
    """
    N = len(G)
    dist = np.minimum(np.arange(N), N - np.arange(N))
    outside = np.cumsum(np.bincount(dist, G * G)[::-1])[::-1]
    omitted = np.append(outside[1:], 0.0)  # l2 mass beyond each radius
    R = int(np.argmax(omitted <= TORUS_SUM_TOL ** 2 * outside[0]))
    w = np.arange(-R, R + 1) if 2 * R + 1 <= N else np.arange(N)
    return w, G[w]


def _translation_grams(V, B, ms):
    """
    [D_m for m in ms], D_m[t, t'] = <U_{m/N} v_t, v_t'> for the rows v_t of
    a ScarEnsemble orbit V (P x N) and residues m in (-N, N]^2.  Row t of V
    is e^{-i phi s / P} M^s G_N, s = (t + P/2) mod P, and exact Egorov
    U_m M = M U_{B^-1 m} (m mod 2N) moves U_m past M^s, so the row phases
    cancel and

        D_m[t, t'] = rho[B^-s m][(t' - t + P/2) mod P],
        rho[m'][i] = vdot(V[i], U_{m'} G_N),  m' = (p', q') mod 2N.

    The real G_N = V[P/2] is read on its _gaussian_window: U_{m'} is
    unitary and ||V[i]|| = ||G_N||, so by Cauchy-Schwarz each entry errs
    by |vdot(V[i], U_{m'} (G_N - G_R))| <= TORUS_SUM_TOL ||G_N||^2.  With
    (U_{m'} G_N)[p' + w] = e^{i pi (p' q' + 2 q' w) / N} G_N[w], phases
    reduced mod 2N in integers, each distinct residue B^-s m costs one
    P x len(w) product with the columns p' + w of V.
    """
    P, N = V.shape
    w, G = _gaussian_window(V[P // 2].real)
    Binv = np.array(B.inverse().entries, dtype=np.int64) % (2 * N)
    m = np.array(ms, dtype=np.int64) % (2 * N)
    res = np.empty((P, len(ms)), dtype=np.int64)
    for s in range(P):
        res[s] = m[:, 0] * (2 * N) + m[:, 1]
        m = m @ Binv.T % (2 * N)
    keys, inv = np.unique(res, return_inverse=True)
    p, q = divmod(keys, 2 * N)
    # e^{-2 pi i r / N} = hi[r // S] lo[r % S] for 0 <= r < N <= S^2
    S = math.isqrt(N - 1) + 1
    lo, hi = np.exp(-2j * np.pi * np.arange(S) * [[1], [S]] / N)
    rho = np.empty((len(keys), P), dtype=np.complex128)
    block = max(1, _GRAM_BLOCK_BYTES // (16 * len(w)))
    for b in range(0, len(keys), block):
        r_hi, r_lo = np.divmod(q[b:b + block, None] * w % N, S)
        for k, y in enumerate(G * hi[r_hi] * lo[r_lo], b):
            np.dot(_columns(V, p[k] + w[0], len(w)), y, out=rho[k])
    rho *= np.exp(-1j * np.pi * (p * q % (2 * N)) / N)[:, None]
    t = np.arange(P)
    rows = inv.reshape(res.shape)[(t + P // 2) % P].T[:, :, None]
    return list(rho.conj()[rows, (t - t[:, None] + P // 2) % P])


def _half_period_map(B, N, P):
    """
    The signed permutation T with M^{P/2} = theta T, |theta| = 1, as a
    gather (T x)[j] = weight[j] x[src[j]]: one index array and one complex
    weight array.  By exact Egorov at even N, B^{P/2} = [[a, beta N],
    [gamma N, d]] mod 2N gives

        (T x)[(a i + beta N/2) mod N] = (-1)^{a gamma i} x[i],

    and a d = 1 mod N inverts the index: src[j] = d (j - beta N/2) mod N.
    Raises AssertionError, naming M^P G_N, unless P is even and B^{P/2}
    is diagonal mod N.
    """
    ((a, b), (c, d)) = _powers(B, P // 2)[-1]
    if P % 2 or b % N or c % N:
        raise AssertionError("M^P G_N: P = %d is odd or B^{P/2} is not "
                             "diagonal mod N" % P)
    src = np.arange(N)
    src -= b // N % 2 * (N // 2)
    src *= d % N
    src %= N
    weight = np.ones(N, dtype=np.complex128)
    if a * (c // N) % 2:
        weight[src % 2 == 1] = -1.0
    return src, weight


def _lattice_gram(B, N, P):
    """
    (theta, phi, D_0, (G_N, src, weight)) for the scar of B at N and P
    from the exact A(q) = torus_autocorrelation(B, q, N).value =
    vdot(G_N, M^q G_N), q = 0..P/2, and the half-period map T,
    M^{P/2} = theta T, held as the gather (src, weight) of
    _half_period_map: theta = A(P/2) / vdot(G_N, T G_N) and, as
    M^P = theta^2 T^2, e^{i phi} = theta^2 vdot(G_N, T^2 G_N) / A(0).
    The powers B^q are one sequence of Python-integer products (_powers),
    each summed by _autocorrelation.  For the rows of ScarEnsemble.V,
    D_0[i, i'] = vdot(V[i'], V[i]) is f((i - i') mod P),
    f(q) = e^{-i phi q / P} vdot(G_N, M^q G_N): M^P G_N = e^{i phi} G_N
    makes f P-periodic, and f(-q) = conj f(q), so f(q) = conj f(P - q)
    for q > P/2.  Raises AssertionError, naming M^P G_N, unless |theta|
    and |vdot(G_N, T^2 G_N)| / A(0) are 1 within PERIOD_PHASE_TOL; by
    Cauchy-Schwarz the second holds iff M^P G_N is a unit multiple of G_N.
    """
    B = _check_torus(B, N)
    src, weight = _half_period_map(B, N, P)
    G = hilbert.project_gaussian(StateSpace(1, N)).coeffs
    TG = weight * G[src]
    A = np.array([_autocorrelation(Aq, q, N).value
                  for q, Aq in enumerate(_powers(B, P // 2))])
    theta = A[-1] / np.vdot(G, TG)
    ratio = np.vdot(G, weight * TG[src]) / A[0]
    if max(abs(abs(theta) - 1), abs(abs(ratio) - 1)) > PERIOD_PHASE_TOL:
        raise AssertionError("M^P G_N: |theta| = %.9f and |vdot(G_N, T^2 "
                             "G_N)| / A(0) = %.9f are not both 1"
                             % (abs(theta), abs(ratio)))
    theta /= abs(theta)
    phi = float(np.angle(theta * theta * ratio))
    f = np.empty(P, dtype=np.complex128)
    f[:len(A)] = A * np.exp(-1j * phi * np.arange(len(A)) / P)
    f[len(A):] = f[P - len(A):0:-1].conj()
    i = np.arange(P)
    return theta, phi, f[(i[:, None] - i) % P], (G, src, weight)


class ScarEnsemble:
    """
    Factored u = P^{-1/2} sum_t v_t (x) w_t for B, even N and the period
    P = ord(B mod N): B, N, P, lambda, theta and phi (from _lattice_gram,
    with the Gram D_0 that the norm reads), and, built on first use, the
    propagator M and the orbit V.  G_N and the half-period map T, which
    _lattice_gram computes, are held for V and dropped once it is built.
    build_scar validates the arguments first.  An even N other than N_k
    can be refused: a lattice sum up to q = P/2 can exceed
    TORUS_SUM_LIMIT (ValueError; B = [[2, 1], [1, 1]] at N = 10).
    """

    def __init__(self, B, N, P):
        self.B, self.N, self.P = B, N, P
        self.lam = leading_eigenvalue(B)
        self.theta, self.phi, D0, self._orbit_seed = _lattice_gram(B, N, P)
        # w_{i - P/2} = v at index (i + P/2) mod P, which is also the time
        # s of the orbit state in row i of V
        self.wperm = (np.arange(P) + P // 2) % P
        self._dmats = {(0, 0): D0}

    @functools.cached_property
    def M(self):
        return metaplectic_sl2(StateSpace(1, self.N), self.B)

    @functools.cached_property
    def V(self):
        """
        The P x N orbit: row i = (s + P/2) mod P holds e^{-i phi s / P} g_s,
        g_s = M^s G_N, which is v_t, t = i - P/2, as M^P G_N = e^{i phi} G_N.
        M is applied P/2 + 1 times; the half step is held to theta T G_N and
        the closing step to e^{i phi} G_N within PERIOD_PHASE_TOL
        (AssertionError naming M^P G_N).  g_s = theta T g_{s - P/2} for
        s > P/2 is one gather and multiply.  G_N and T are the ones
        _lattice_gram computed; the ensemble drops them once V is built.
        """
        N, P, h = self.N, self.P, self.P // 2
        G, src, weight = self._orbit_seed
        V = np.empty((P, N), dtype=np.complex128)
        V[h] = G
        for s in range(1, h):
            V[h + s] = self.M.apply_array(V[h + s - 1])
        # np.take in "clip" mode writes straight into the row; the default
        # mode would buffer a copy.
        half = self.M.apply_array(V[2 * h - 1])  # M g_{P/2 - 1}
        weight = weight * self.theta
        np.take(G, src, out=V[0], mode="clip")
        V[0] *= weight
        half -= V[0]
        defect = float(np.abs(half).max())
        if defect > PERIOD_PHASE_TOL:
            raise AssertionError("M^P G_N: the half step M^{P/2} G_N is not "
                                 "theta T G_N (defect %.3e)" % defect)
        for i in range(1, h):
            np.take(V[h + i], src, out=V[i], mode="clip")
            V[i] *= weight
        del half, src, weight
        g = self.M.apply_array(V[h - 1])
        defect = float(np.abs(g - np.exp(1j * self.phi) * G).max())
        if defect > PERIOD_PHASE_TOL:
            raise AssertionError("M^P G_N is not e^{i phi} G_N (defect %.3e)"
                                 % defect)
        V *= np.exp(-1j * self.phi * self.wperm / P)[:, None]
        del self._orbit_seed
        return V

    def materialize(self):
        """Dense N^2 tensor state V^T V[wperm] / sqrt(P); only for small N."""
        if self.N ** 2 > MATERIALIZE_LIMIT:
            raise ValueError("refusing to materialize an N^2 vector this large")
        u = self.V.T @ self.V[self.wperm] / math.sqrt(self.P)
        return QuantumState(StateSpace(2, self.N), u)

    def density_rows(self, center):
        """
        The rows j1 = 0..N-1 of position_density(materialize(), center),
        |V[:, j1]^T V[wperm]|^2 / P, computed by one GEMM per block of
        rows whose amplitudes fill _DENSITY_BLOCK_BYTES: no N^2 array is
        held.
        """
        N = self.N
        W = self.V[self.wperm]
        shift = N // 2 if center else 0
        cols = np.roll(np.arange(N), shift)  # (j1 - shift) mod N
        rows = max(1, _DENSITY_BLOCK_BYTES // (16 * N))
        for lo in range(0, N, rows):
            amp = self.V[:, cols[lo:lo + rows]].T @ W / math.sqrt(self.P)
            yield from np.roll(np.abs(amp) ** 2, shift, axis=1)

    def folded_density(self, center):
        """
        (D, c) with position_density(materialize(), center) = D[c][:, c].
        Every orbit row is even and wperm is an involution, so the density
        is invariant under j1 -> -j1, j2 -> -j2 and (j1, j2) -> (j2, j1):
        D is its (N/2 + 1)^2 block at j1, j2 <= N/2 from one GEMM,
        mirrored from the upper triangle so the three symmetries hold bit
        for bit, and c(j) = min(j, N - j), rolled by N/2 with center.
        Raises AssertionError when max |V[:, j] - V[:, -j]| exceeds
        PERIOD_PHASE_TOL.
        """
        N, h, V = self.N, self.N // 2, self.V
        defect = float(np.abs(V[:, 1:h] - V[:, :h:-1]).max(initial=0.0))
        if defect > PERIOD_PHASE_TOL:
            raise AssertionError("the orbit is not even (defect %.3e)"
                                 % defect)
        amp = V[:, :h + 1].T @ V[self.wperm, :h + 1] / math.sqrt(self.P)
        D = np.abs(amp) ** 2
        c = (np.arange(N) + (h if center else 0)) % N
        return np.triu(D) + np.triu(D, 1).T, np.minimum(c, N - c)

    def _dmats_of(self, js):
        """
        [D_j for j in js], D[t, s] = <U_{j/N} v_t, v_s> for lattice
        2-vectors j, cached by j mod 2N.  Every missing D is filled in one
        _translation_grams pass; U_{-j} = U_j^dagger, so of each +-j pair
        only one is computed and the other is its conjugate transpose.
        """
        N = self.N
        keys = [_lattice_residue(j, N) for j in js]
        todo = {}
        for m in keys:
            if m not in self._dmats:
                neg = _lattice_residue((-m[0], -m[1]), N)
                todo[max(m, neg)] = min(m, neg)
        if todo:
            for m, D in zip(todo, _translation_grams(self.V, self.B, [*todo])):
                self._dmats[todo[m]] = D.conj().T
                self._dmats[m] = D
        return [self._dmats[m] for m in keys]

    def matrix_element(self, j, k):
        """<(U_{j/N} (x) U_{k/N}) u, u> without forming the N^2 tensor."""
        Dj, Dk = self._dmats_of([j, k])
        w = self.wperm
        return complex((Dj * Dk[w][:, w]).sum() / self.P)

    def norm_squared(self):
        return self.matrix_element((0, 0), (0, 0)).real

    def eigen_residual(self, propagator):
        """
        ||T u - e^{2 i phi / P} u|| / ||u|| for a tensor-space propagator
        T, evaluated on the materialized state.
        """
        u = self.materialize()
        Tu = propagator.apply_array(u.coeffs)
        ev = np.exp(2j * self.phi / self.P)
        return float(np.linalg.norm(Tu - ev * u.coeffs)
                     / np.linalg.norm(u.coeffs))


def build_scar(B, k):
    """
    The scar of B at the admissible index k, N = N_k and P = ord(B mod N).
    Raises ValueError, before any array of length N is allocated, unless
    B is symmetric and hyperbolic, k is admissible, N is even and the
    P x N orbit fits in SCAR_MAX_BYTES.
    """
    B = _check_overlap_matrix(B)
    nk = admissible_N(B, k)
    if not nk.admissible:
        raise ValueError("index k = %d is not admissible for trace %d"
                         % (k, B.trace()))
    if not nk.even:
        raise ValueError("N_k must be even")
    N = nk.value
    P = quantum_period(B, N)
    need = 16 * P * N
    if need > SCAR_MAX_BYTES:
        raise ValueError("the P x N = %d x %d complex scar orbit needs %d "
                         "bytes, above SCAR_MAX_BYTES = %d"
                         % (P, N, need, SCAR_MAX_BYTES))
    return ScarEnsemble(B, N, P)


def measure_target(j, k):
    """The four-case semiclassical limit table."""
    jz = j[0] == 0 and j[1] == 0
    kz = k[0] == 0 and k[1] == 0
    if jz and kz:
        return 1.0
    if jz or kz:
        return 0.5
    return 0.0


def semiclassical_scan(scar, window):
    """
    Rows (j1, j2, k1, k2, ratio, target, error) over all lattice pairs
    with |j|_inf, |k|_inf <= window; ratio = matrix_element / ||u||^2,
    all (2 window + 1)^4 of them from one product of the stacked D_j with
    the stacked D_k in wperm order.  Raises ValueError for window < 0,
    and before any Gram is built when the rows at _SCAN_ROW_BYTES each,
    plus the D_j (cached and stacked) and the D_k (permuted from the
    stack, with one temporary), four P x P per lattice point, would
    exceed SCAR_MAX_BYTES.
    """
    if window < 0:
        raise ValueError("semiclassical_scan needs window >= 0")
    points = (2 * window + 1) ** 2
    need = points ** 2 * _SCAN_ROW_BYTES + 4 * points * 16 * scar.P ** 2
    if need > SCAR_MAX_BYTES:
        raise ValueError("a window-%d scan of %d rows needs about %d bytes, "
                         "above SCAR_MAX_BYTES = %d"
                         % (window, points ** 2, need, SCAR_MAX_BYTES))
    lattice = list(itertools.product(range(-window, window + 1), repeat=2))
    Dj = np.array(scar._dmats_of(lattice))  # the whole window in one pass
    w = scar.wperm
    Dk = Dj[:, w][:, :, w]  # k runs over the same lattice as j
    ratios = (np.tensordot(Dj, Dk, axes=([1, 2], [1, 2]))
              / (scar.P * scar.norm_squared()))
    rows = []
    for (j, k), ratio in zip(itertools.product(lattice, repeat=2),
                             ratios.ravel().tolist()):
        target = measure_target(j, k)
        rows.append((*j, *k, ratio, target, abs(ratio - target)))
    return rows
