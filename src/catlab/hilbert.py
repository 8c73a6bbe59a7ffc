"""
Finite-dimensional quantum state spaces over the torus.

A state space with n degrees of freedom and inverse Planck scale N
(h = 1/(2 pi N)) has dimension N^n; states are coefficient vectors over
the orthonormal basis e_j, j in Z_N^n, stored row-major.  The Floquet
angle theta is 0 throughout.
"""

from dataclasses import dataclass
import math

import numpy as np

DENSE_LIMIT = 4096
# Identity columns per batched apply in _dense_matrix.
_DENSE_COLS = 16


@dataclass(frozen=True)
class StateSpace:
    n: int
    N: int

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError("n and N must be positive")

    @property
    def h(self):
        return 1.0 / (2 * math.pi * self.N)

    @property
    def dim(self):
        return self.N ** self.n


@dataclass
class QuantumState:
    space: StateSpace
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if c.size != self.space.dim:
            raise ValueError("coefficient length must be N^n")
        self.coeffs = c

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


def _check_dense(dim, what):
    if dim > DENSE_LIMIT:
        raise ValueError("dense %s exceeds materialization limit" % what)


def _dense_matrix(apply_array, dim, what):
    """
    The dim x dim matrix of a linear map given by its batched apply,
    filled in place from blocks of _DENSE_COLS identity columns so that
    no temporary larger than one block is held.  Refuses dim above
    DENSE_LIMIT.
    """
    _check_dense(dim, what)
    out = np.empty((dim, dim), dtype=np.complex128)
    for lo in range(0, dim, _DENSE_COLS):
        cols = min(_DENSE_COLS, dim - lo)
        eye = np.zeros((cols, dim), dtype=np.complex128)
        eye[np.arange(cols), np.arange(lo, lo + cols)] = 1.0
        out[:, lo:lo + cols] = apply_array(eye).T
    return out


def _lattice_residue(m, N):
    """Each entry of the integer vector m reduced mod 2N into (-N, N]."""
    return tuple(N - (N - int(v)) % (2 * N) for v in m)


class LatticeTranslation:
    """
    Quantum translation U_w for w = m/N, m an integer interleaved vector
    (p_1, q_1, ..., p_n, q_n).  Acts per factor as an index shift by p
    with diagonal phases:

        (U c)[i] = exp(2 pi i q i / N - i pi p q / N) c[(i - p) mod N].

    Satisfies the group law U_w U_w' = exp(i sigma(w, w')/2h) U_{w+w'}
    and the commutator relation with phase exp(i sigma(w, w')/h).
    U_m depends only on m mod 2N, so each entry is reduced to its
    residue in (-N, N] before the phase is formed in floats.  U is held
    as one monomial over the raveled index: the outer sum of the
    per-factor sources and the outer product of the per-factor phases.
    """

    def __init__(self, space, m):
        N = space.N
        m = _lattice_residue(m, N)
        if len(m) != 2 * space.n:
            raise ValueError("lattice vector must have length 2n")
        self.space = space
        j = np.arange(N)
        src = np.zeros(1, dtype=np.intp)
        phase = np.ones(1, dtype=np.complex128)
        for p, q in zip(m[0::2], m[1::2]):
            # the phase pi (2 q j - p q) / N, reduced mod 2 pi in integers
            ph = np.exp(1j * np.pi * ((2 * q * j - p * q) % (2 * N)) / N)
            src = np.add.outer(N * src, (j - p) % N).ravel()
            phase = np.multiply.outer(phase, ph).ravel()
        self._src, self._phase = src, phase

    def apply_array(self, c):
        """
        Apply to raveled coefficients of shape (..., N^n), any complex
        dtype; leading axes are a batch.
        """
        return np.asarray(c, dtype=np.complex128)[..., self._src] * self._phase

    def monomial(self):
        """
        U as a monomial matrix: (src, phase) with (U c)[i] = phase[i]
        c[src[i]] over the raveled index i, so U[i, src[i]] = phase[i].
        The arrays are the ones U holds; callers must not write to them.
        """
        return self._src, self._phase

    def dense(self):
        return _dense_matrix(self.apply_array, self.space.dim, "translation")


def project_gaussian(space):
    """
    The projected Gaussian G_N: coefficients
    G_N[j] = (pi h)^{-1/4} N^{-1/2} sum_k exp(-(k + j/N)^2 / 2h),
    tail truncated below 1e-16 relative contribution.  Each ring
    k + j/N, -k + j/N is evaluated only where its exponent is >= -750,
    a prefix and a suffix of j: below -745.2, float64 exp is exactly 0,
    so the sum is bit-identical to evaluating every ring on all N points.
    """
    if space.n != 1:
        raise ValueError("project_gaussian requires n = 1")
    if space.N % 2 != 0:
        raise ValueError("project_gaussian requires even N")
    N = space.N
    h = space.h
    reach = math.sqrt(1500 * h)  # |x| <= reach iff x^2 / 2h <= 750
    total = np.zeros(N)
    k = 0
    while True:
        # j/N <= reach - k for the k ring, j/N >= k - reach for the -k ring,
        # each widened by a point
        hi = min(N, max(0, math.ceil((reach - k) * N) + 1))
        lo = max(0, min(N, math.floor((k - reach) * N) - 1)) if k else N
        if lo < hi:  # the windows overlap: sum the two terms as one ring
            j = np.arange(N) / N
            ring = (np.exp(-(k + j) ** 2 / (2 * h))
                    + np.exp(-(-k + j) ** 2 / (2 * h)))
            total += ring
            top = ring.max()
        else:
            plus = np.exp(-(k + np.arange(hi) / N) ** 2 / (2 * h))
            minus = np.exp(-(-k + np.arange(lo, N) / N) ** 2 / (2 * h))
            total[:hi] += plus
            total[lo:] += minus
            top = max(plus.max(initial=0.0), minus.max(initial=0.0))
        if k > 1 and top < 1e-16 * total.max():
            break
        k += 1
    coeffs = (math.pi * h) ** (-0.25) * total / math.sqrt(N)
    return QuantumState(space, coeffs)


def position_density(u, center=False):
    """
    |coefficient|^2 grid of an n = 2 state; sums to the squared norm.
    With center=True the grid is circularly shifted so the origin sits
    at (N/2, N/2).
    """
    if u.space.n != 2:
        raise ValueError("position_density requires n = 2")
    N = u.space.N
    grid = np.abs(u.coeffs.reshape(N, N)) ** 2
    if center:
        grid = np.roll(grid, (N // 2, N // 2), axis=(0, 1))
    return grid
