"""
Finite-dimensional quantum state spaces over the torus.

A state space with n degrees of freedom and inverse Planck scale N
(h = 1/(2 pi N)) has dimension N^n; states are coefficient vectors over
the orthonormal basis e_j, j in Z_N^n, stored row-major.  Only theta = 0
is supported on the exact-matrix paths.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

DENSE_LIMIT = 4096
# Identity columns per batched apply in _dense_matrix.
_DENSE_COLS = 16


@dataclass(frozen=True)
class StateSpace:
    n: int
    N: int
    theta: tuple = None

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValueError("n and N must be positive")
        th = self.theta
        if th is None:
            th = (Fraction(0),) * (2 * self.n)
        object.__setattr__(self, "theta", tuple(Fraction(t) for t in th))

    @property
    def h(self):
        return 1.0 / (2 * math.pi * self.N)

    @property
    def dim(self):
        return self.N ** self.n

    def require_zero_theta(self):
        if any(t != 0 for t in self.theta):
            raise ValueError("only theta = 0 is supported on this path")


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

    def inner(self, other):
        """<self, other>, conjugate-linear in the second slot."""
        return complex(np.vdot(other.coeffs, self.coeffs))


def basis_state(space, index):
    c = np.zeros(space.dim, dtype=np.complex128)
    c[int(np.ravel_multi_index(tuple(index), (space.N,) * space.n))] = 1.0
    return QuantumState(space, c)


def _dense_matrix(apply_array, dim, what):
    """
    The dim x dim matrix of a linear map given by its batched apply,
    filled in place from blocks of _DENSE_COLS identity columns so that
    no temporary larger than one block is held.  Refuses dim above
    DENSE_LIMIT.
    """
    if dim > DENSE_LIMIT:
        raise ValueError("dense %s exceeds materialization limit" % what)
    out = np.empty((dim, dim), dtype=np.complex128)
    for lo in range(0, dim, _DENSE_COLS):
        cols = min(_DENSE_COLS, dim - lo)
        eye = np.zeros((cols, dim), dtype=np.complex128)
        eye[np.arange(cols), np.arange(lo, lo + cols)] = 1.0
        out[:, lo:lo + cols] = apply_array(eye).T
    return out


def sigma_lattice(m1, m2):
    """sigma(m1, m2) for integer interleaved vectors, exact."""
    n = len(m1) // 2
    return sum(m1[2 * i + 1] * m2[2 * i] - m2[2 * i + 1] * m1[2 * i]
               for i in range(n))


class LatticeTranslation:
    """
    Quantum translation U_w for w = m/N, m an integer interleaved vector
    (p_1, q_1, ..., p_n, q_n).  Acts per factor as an index shift by p
    with diagonal phases:

        (U c)[i] = exp(2 pi i q i / N - i pi p q / N) c[(i - p) mod N].

    Satisfies the group law U_w U_w' = exp(i sigma(w, w')/2h) U_{w+w'}
    and the commutator relation with phase exp(i sigma(w, w')/h).
    """

    def __init__(self, space, m):
        space.require_zero_theta()
        m = tuple(int(v) for v in m)
        if len(m) != 2 * space.n:
            raise ValueError("lattice vector must have length 2n")
        self.space = space
        self.m = m
        N = space.N
        self._phases = []
        self._shifts = []
        for i in range(space.n):
            p, q = m[2 * i], m[2 * i + 1]
            j = np.arange(N)
            ph = np.exp(2j * np.pi * q * j / N - 1j * np.pi * p * q / N)
            self._phases.append(ph)
            self._shifts.append(p)

    def apply_array(self, c):
        """
        Apply to raveled coefficients of shape (..., N^n), any complex
        dtype; leading axes are a batch.
        """
        N, n = self.space.N, self.space.n
        c = np.asarray(c, dtype=np.complex128)
        batch = c.shape[:-1]
        c = c.reshape(batch + (N,) * n)
        for axis in range(n):
            c = np.roll(c, self._shifts[axis], axis=len(batch) + axis)
            shape = [1] * n
            shape[axis] = N
            c = c * self._phases[axis].reshape(shape)
        return c.reshape(batch + (N ** n,))

    def apply(self, state):
        return QuantumState(state.space, self.apply_array(state.coeffs))

    def dense(self):
        return _dense_matrix(self.apply_array, self.space.dim, "translation")


def translation(space, w):
    """U_w for w in (1/N) Z^{2n}; w entries rational or float."""
    m = []
    for v in w:
        mv = Fraction(v).limit_denominator(10 ** 9) * space.N
        if mv.denominator != 1:
            raise ValueError("w must lie on the (1/N) lattice")
        m.append(int(mv))
    return LatticeTranslation(space, m)


@dataclass(frozen=True)
class TrigObservable:
    """a(z) = sum_j c_j exp(2 pi i sigma(j, z)), finitely many terms."""

    terms: tuple  # ((j tuple, complex coefficient), ...)

    @staticmethod
    def from_dict(d):
        return TrigObservable(tuple(sorted(
            (tuple(int(v) for v in j), complex(c)) for j, c in d.items())))

    def is_real(self):
        d = dict(self.terms)
        return all(tuple(-v for v in j) in d
                   and abs(np.conj(c) - d[tuple(-v for v in j)]) < 1e-12
                   for j, c in self.terms)

    def coeff_sum(self):
        return float(sum(abs(c) for _, c in self.terms))


class QuantizedObservable:
    """Op(a) = sum_j c_j U_{j/N}; streamed, with a lazy dense matrix."""

    def __init__(self, space, observable):
        space.require_zero_theta()
        self.space = space
        self.observable = observable
        self._translations = [(LatticeTranslation(space, j), c)
                              for j, c in observable.terms]
        self._dense = None

    def apply_array(self, c):
        """Apply to coefficients of shape (..., N^n); leading axes batch."""
        c = np.asarray(c, dtype=np.complex128)
        out = np.zeros(c.shape, dtype=np.complex128)
        for U, coef in self._translations:
            out += coef * U.apply_array(c)
        return out

    def apply(self, state):
        return QuantumState(state.space, self.apply_array(state.coeffs))

    @property
    def dense(self):
        if self._dense is None:
            self._dense = _dense_matrix(self.apply_array, self.space.dim,
                                        "observable")
        return self._dense


def weyl_quantize(space, observable):
    return QuantizedObservable(space, observable)


def project_gaussian(space):
    """
    The projected Gaussian G_N: coefficients
    G_N[j] = (pi h)^{-1/4} N^{-1/2} sum_k exp(-(k + j/N)^2 / 2h),
    tail truncated below 1e-16 relative contribution.
    """
    if space.n != 1:
        raise ValueError("project_gaussian requires n = 1")
    space.require_zero_theta()
    if space.N % 2 != 0:
        raise ValueError("project_gaussian requires even N")
    N = space.N
    h = space.h
    j = np.arange(N) / N
    total = np.zeros(N)
    k = 0
    while True:
        ring = np.exp(-(k + j) ** 2 / (2 * h))
        if k > 0:
            ring = ring + np.exp(-(-k + j) ** 2 / (2 * h))
        total += ring
        if k > 1 and ring.max() < 1e-16 * total.max():
            break
        k += 1
    coeffs = (math.pi * h) ** (-0.25) * total / math.sqrt(N)
    return QuantumState(space, coeffs)


def tensor(u, v):
    """Tensor product state; index (j1, j2) row-major."""
    if u.space.N != v.space.N or u.space.theta != v.space.theta:
        raise ValueError("tensor requires matching N and theta")
    space = StateSpace(u.space.n + v.space.n, u.space.N,
                       u.space.theta + v.space.theta)
    return QuantumState(space, np.outer(u.coeffs, v.coeffs).ravel())


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
