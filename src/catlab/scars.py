"""
The scarred-eigenfunction pipeline.

From a hyperbolic, symmetric, positive-entry B in SL(2,Z) and an
admissible index k, builds the tensor eigenfunction

    u = P^{-1/2} sum_t v_t (x) w_t,
    v_t = e^{-i phi t / P} M^t G_N,   w_t = v_{t + P/2},

in factored form (P states of length N, never an N^2 vector unless
explicitly materialized), together with Gaussian overlap closed forms,
lattice overlap sums, the exact torus autocorrelation, matrix elements,
and semiclassical-measure scans.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import hilbert
from .hilbert import LatticeTranslation, QuantumState, StateSpace
from .metaplectic import metaplectic_sl2, period_phase
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
    if not isinstance(B, SymplecticMatrix):
        B = SymplecticMatrix(B)
    ((a, b), (c, d)) = B.entries
    if b != c or b <= 0:
        raise ValueError("overlap closed form requires a symmetric "
                         "positive-entry matrix")
    if a + d <= 2:
        raise ValueError("overlap closed form requires trace > 2")
    return B


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


def overlap_quadrature(B, omega, h, rtol=1e-10):
    """
    Independent trapezoid evaluation of <U_omega G_h, M_B G_h> in L2(R),
    refining the grid until the value stabilizes to rtol (absolute floor
    1e-12).  Used as the oracle for overlap_closed_form.

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
        if prev is not None and abs(val - prev) < max(rtol * abs(val), 1e-12):
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
    the term at l is sqrt(2 / Tr A) exp(-a Q(l + c)), Q(w) = <A^-1 w, w>,
    p Q(w) = (p w2 - b w1)^2 + w1^2.  The sum runs over the ellipse
    Q(l + c) <= radius, enumerated row by row in l1, each row widened by
    one point for the real offset c.  The radius grows until the proven
    tail bound (see _tail_bound) is at most TORUS_SUM_TOL times the total.
    Raises ValueError when the rows or the ellipse area pi * radius would
    exceed TORUS_SUM_LIMIT, rather than truncate.
    """
    B = _check_overlap_matrix(B)
    if q < 0:
        raise ValueError("lattice_overlap_sum supports q >= 0 only")
    ((p, b), (_, s)) = B.power(q).entries
    tr = p + s
    a = 1.0 / (2 * h * tr)
    amp = math.sqrt(2.0 / tr)
    c1, c2 = float(c[0]), float(c[1])

    def quad(w1, w2):
        return ((p * w2 - b * w1) ** 2 + w1 * w1) / p

    # l = 0 lies inside the first ellipse, so the total is never below it.
    r = quad(c1, c2) + math.log(1 / TORUS_SUM_TOL) / a
    while True:
        R = math.sqrt(p * r)
        first, last = math.floor(-R - c1), math.ceil(R - c1)
        bound = _tail_bound(p, a, r, last - first + 1, amp,
                            "lattice_overlap_sum at q = %d" % q)
        l1 = np.arange(first, last + 1)
        w1 = l1 + c1
        half = np.sqrt(np.maximum(p * r - w1 * w1, 0.0))
        lo = np.floor((b * w1 - half) / p - c2)
        counts = (np.ceil((b * w1 + half) / p - c2) - lo + 1).astype(int)
        starts = np.cumsum(counts) - counts
        L1 = np.repeat(l1, counts)
        L2 = np.arange(counts.sum()) - np.repeat(starts - lo, counts)
        terms = amp * np.exp(-a * quad(L1 + c1, L2 + c2))
        total = float(terms.sum())
        # total >= the l = 0 term >= e^39 amp exp(-a r), so total is 0
        # only when bound has underflowed to 0 as well.
        if bound <= TORUS_SUM_TOL * total:
            break
        # one unit of a r beyond the estimate, so that r always grows
        r += (1 + math.log(bound / (TORUS_SUM_TOL * total))) / a
    l0 = float(terms[(L1 == 0) & (L2 == 0)][0])
    return total, l0, total - l0


# Largest grid overlap_quadrature refines to before it raises: the ladder
# 800, 1600, ... stops at 51,200 points, one 131,072-point FFT.
QUADRATURE_MAX_POINTS = 60000
# Largest row count or ellipse area (pi * radius) torus_autocorrelation
# and lattice_overlap_sum enumerate before they refuse.
TORUS_SUM_LIMIT = 10 ** 6
# Omitted terms are bounded by this fraction of the l = 0 amplitude
# (torus_autocorrelation) or of the total (lattice_overlap_sum).
TORUS_SUM_TOL = 1e-17


def _tail_bound(p, a, r, rows, amp, what):
    """
    Proven bound on the terms amp exp(-a Q(w)) of a lattice sum,
    p Q(w) = (p w2 - b w1)^2 + w1^2, that a sum over `rows` rows in w1
    covering the ellipse Q(w) <= r omits.  Raises ValueError when the rows
    or the ellipse area pi r exceed TORUS_SUM_LIMIT.

    In w2 a row is a Gaussian exp(-a p (w2 - b w1 / p)^2) times
    exp(-a w1^2 / p).  The points a kept row omits lie beyond distance
    rho on either side, with a p rho^2 = a r - a w1^2 / p, so by
    sum <= f(rho) + integral and erfc(x) <= exp(-x^2) they add at most
    exp(-a r) (2 + g) per row, g = sqrt(pi / (a p)).  The rows
    |w1| > sqrt(p r) add at most exp(-a r) (2 + sqrt(pi p / a)) times the
    largest full row, 1 + g.  Both hold for any offset of the lattice.
    """
    if rows > TORUS_SUM_LIMIT or math.pi * r > TORUS_SUM_LIMIT:
        raise ValueError("%s needs radius >= %g, beyond TORUS_SUM_LIMIT"
                         % (what, r))
    g = math.sqrt(math.pi / (a * p))
    far_rows = (2 + math.sqrt(math.pi * p / a)) * (1 + g)
    return amp * math.exp(-a * r) * (rows * (2 + g) + far_rows)


@dataclass(frozen=True)
class TorusAutocorrelation:
    value: complex
    radius: int        # the sum covers <B^-t l, l> <= radius
    tail_bound: float  # proven bound on |sum of the omitted terms|


def torus_autocorrelation(B, t, N):
    """
    Exact <G_N, M^t G_N> on T^2 for even N: the lattice sum

        sum over l in Z^2 of <U_l G_h, M_{B^t} G_h>,   h = 1/(2 pi N),

    of the closed-form overlaps of overlap_closed_form, extended to t = 0
    by B^0 = I; negative t gives the complex conjugate.  The plane value
    gaussian_autocorrelation is the l = 0 term alone.

    With A = B^|t| = [[p, b], [b, s]] and a = pi N / Tr A, the term at l
    is sqrt(2 / Tr A) exp(-a Q(l)) exp(i pi N <A R l, l> / Tr A), where
    Q(l) = <A^-1 l, l> is an integer form with p Q(l) = m^2 + l1^2,
    m = p l2 - b l1.  The sum runs over the exact ellipse Q(l) <= radius,
    enumerated row by row in l1 in integer arithmetic, with the least
    radius found whose tail bound is at most TORUS_SUM_TOL times
    sqrt(2 / Tr A).  Raises ValueError for odd N, and when the rows or
    the ellipse area pi * radius would exceed TORUS_SUM_LIMIT, rather
    than truncate.
    """
    B = _check_overlap_matrix(B)
    if N <= 0 or N % 2 != 0:
        raise ValueError("torus_autocorrelation requires even N > 0")
    ((p, b), (_, s)) = B.power(abs(t)).entries
    tr = p + s
    a = math.pi * N / tr
    amp = math.sqrt(2.0 / tr)

    def tail(r):
        return _tail_bound(p, a, r, 2 * math.isqrt(p * r) + 1, amp,
                           "torus_autocorrelation at t = %d, N = %d" % (t, N))

    target = TORUS_SUM_TOL * amp
    r = math.ceil(math.log(1 / TORUS_SUM_TOL) / a)
    bound = tail(r)
    while bound > target:
        r += math.ceil(math.log(bound / target) / a)
        bound = tail(r)

    quad, phase = [], []
    L = math.isqrt(p * r)
    for l1 in range(-L, L + 1):
        w = math.isqrt(p * r - l1 * l1)
        for l2 in range(-((w - b * l1) // p), (b * l1 + w) // p + 1):
            m = p * l2 - b * l1
            quad.append((m * m + l1 * l1) // p)
            # <A R l, l>, reduced so that pi N <A R l, l> / Tr A is exact
            form = -b * l1 * l1 + (p - s) * l1 * l2 + b * l2 * l2
            phase.append(N * form % (2 * tr))
    quad = np.array(quad, dtype=float)
    phase = np.array(phase, dtype=float)
    value = complex(amp * np.sum(np.exp(-a * quad + 1j * np.pi * phase / tr)))
    if t < 0:
        value = value.conjugate()
    return TorusAutocorrelation(value=value, radius=r, tail_bound=bound)


@dataclass(frozen=True)
class ScarConfig:
    B: SymplecticMatrix
    k: int
    N: int
    P: int
    phi: float
    lam: float


# Largest P x N complex orbit array make_scar_config admits; it refuses
# before any array of length N is allocated.
SCAR_MAX_BYTES = 2 * 2 ** 30


def make_scar_config(B, k):
    """
    Validates admissibility and the orbit's size (SCAR_MAX_BYTES), and
    measures the period phase.
    """
    if not isinstance(B, SymplecticMatrix):
        B = SymplecticMatrix(B)
    ((a, b), (c, d)) = B.entries
    if b != c or min(a, b, c, d) <= 0 or a + d <= 2:
        raise ValueError("scar construction requires a hyperbolic, "
                         "symmetric, positive-entry matrix")
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
    space = StateSpace(1, N)
    M = metaplectic_sl2(space, B)
    G = hilbert.project_gaussian(space)
    pp = period_phase(M, P, probes=[G.coeffs])
    return ScarConfig(B=B, k=k, N=N, P=P, phi=pp.phi,
                      lam=leading_eigenvalue(B))


# Rows of U V per block in ScarEnsemble._dmat.
_DMAT_ROWS = 8


class ScarEnsemble:
    """Factored representation of u = P^{-1/2} sum_t v_t (x) w_t."""

    def __init__(self, config):
        self.config = config
        N, P, phi = config.N, config.P, config.phi
        self.space = StateSpace(1, N)
        M = metaplectic_sl2(self.space, config.B)
        # V[i] = v_{i - P/2} for i = 0..P-1, written as the orbit g_s =
        # M^s G_N is generated; negative times use M^t = e^{-i phi} M^{t+P}.
        # Only V is held, one P x N array.
        V = np.empty((P, N), dtype=np.complex128)
        g = hilbert.project_gaussian(self.space).coeffs
        for s in range(P):
            if s > 0:
                g = M.apply_array(g)
            i = (s + P // 2) % P
            t = i - P // 2
            if t >= 0:
                V[i] = np.exp(-1j * phi * t / P) * g
            else:
                V[i] = np.exp(-1j * phi * t / P - 1j * phi) * g
        self.V = V
        # w_{i - P/2} = v at index (i + P/2) mod P
        self.wperm = (np.arange(P) + P // 2) % P
        self._dmats = {}

    @property
    def P(self):
        return self.config.P

    @property
    def N(self):
        return self.config.N

    def materialize(self):
        """Dense N^2 tensor state; only for small N."""
        if self.N ** 2 > 16_000_000:
            raise ValueError("refusing to materialize an N^2 vector this large")
        u = np.zeros(self.N * self.N, dtype=np.complex128)
        W = self.V[self.wperm]
        for t in range(self.P):
            u += np.outer(self.V[t], W[t]).ravel()
        space2 = StateSpace(2, self.N)
        return QuantumState(space2, u / math.sqrt(self.P))

    def _dmat(self, j):
        """D[t, s] = <U_{j/N} v_t, v_s> for a 2-vector lattice j."""
        j = (int(j[0]), int(j[1]))
        if j not in self._dmats:
            U = LatticeTranslation(self.space, j)
            V, P, N = self.V, self.P, self.N
            # conj(D) = conj(U V) @ V^T, in blocks of _DMAT_ROWS rows of
            # U V, so that neither U V nor conj(V) is held as a P x N copy.
            D = np.empty((P, P), dtype=np.complex128)
            block = np.empty((min(P, _DMAT_ROWS), N), dtype=np.complex128)
            for lo in range(0, P, _DMAT_ROWS):
                rows = block[:min(_DMAT_ROWS, P - lo)]
                for r, v in enumerate(V[lo:lo + len(rows)]):
                    np.conj(U.apply_array(v), out=rows[r])
                np.conj(rows @ V.T, out=D[lo:lo + len(rows)])
            self._dmats[j] = D
        return self._dmats[j]

    def matrix_element(self, j, k):
        """<(U_{j/N} (x) U_{k/N}) u, u> without forming the N^2 tensor."""
        Dj = self._dmat(j)
        Dk = self._dmat(k)
        Dkw = Dk[self.wperm][:, self.wperm]
        return complex(np.sum(Dj * Dkw) / self.P)

    def norm_squared(self):
        return self.matrix_element((0, 0), (0, 0)).real

    def eigen_residual(self, propagator):
        """
        ||T u - e^{2 i phi / P} u|| / ||u|| for a tensor-space propagator
        T, evaluated on the materialized state.
        """
        u = self.materialize()
        Tu = propagator.apply_array(u.coeffs)
        ev = np.exp(2j * self.config.phi / self.P)
        return float(np.linalg.norm(Tu - ev * u.coeffs)
                     / np.linalg.norm(u.coeffs))

    def partial_norm_squared(self, window):
        """
        ||u_I||^2 for I the contiguous index block of the given length
        starting at t = -P/2 (u_I = P^{-1/2} sum_{t in I} v_t (x) w_t).
        """
        idx = np.arange(window)
        D0 = self._dmat((0, 0))
        D0w = D0[self.wperm][:, self.wperm]
        block = D0[np.ix_(idx, idx)] * D0w[np.ix_(idx, idx)]
        return float(np.sum(block).real / self.P)


def build_scar(config):
    return ScarEnsemble(config)


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
    with |j|_inf, |k|_inf <= window; ratio = matrix_element / ||u||^2.
    """
    norm2 = scar.norm_squared()
    rng = range(-window, window + 1)
    lattice = [(j1, j2) for j1 in rng for j2 in rng]
    rows = []
    for j in lattice:
        for k in lattice:
            ratio = scar.matrix_element(j, k) / norm2
            target = measure_target(j, k)
            rows.append((j[0], j[1], k[0], k[1], ratio, target,
                         abs(ratio - target)))
    return rows
