"""
Exact integer arithmetic on symplectic matrices.

Coordinates are interleaved: z = (x_1, xi_1, ..., x_n, xi_n).  The
symplectic form is sigma(z, w) = sum_i (xi_i y_i - eta_i x_i), i.e.
sigma(z, w) = z^T J w with J the block-diagonal matrix built from
[[0, -1], [1, 0]].  The quadratic form used by the parity vector is
Q(w) = sum_i y_i eta_i.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
import math

import numpy as np


def _as_object_array(entries):
    M = np.array([[int(v) for v in row] for row in entries], dtype=object)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    return M


def form_matrix(n):
    """The 2n x 2n symplectic form matrix J in interleaved coordinates."""
    J2 = np.array([[0, -1], [1, 0]], dtype=object)
    J = np.zeros((2 * n, 2 * n), dtype=object)
    for i in range(n):
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = J2
    return J


def is_symplectic(entries):
    """True iff M^T J M = J exactly, in integer arithmetic."""
    M = _as_object_array(entries)
    if M.shape[0] % 2 != 0:
        raise ValueError("symplectic matrices have even dimension")
    n = M.shape[0] // 2
    J = form_matrix(n)
    return bool((M.T @ J @ M == J).all())


@dataclass(frozen=True)
class SymplecticMatrix:
    """Integer 2n x 2n matrix with A^T J A = J, arbitrary precision."""

    entries: tuple

    def __post_init__(self):
        M = _as_object_array(self.entries)
        object.__setattr__(self, "entries",
                           tuple(tuple(int(v) for v in row) for row in M))
        # A^T J A = J already forces det A = 1 (the Pfaffian identity)
        if not is_symplectic(M):
            raise ValueError("matrix is not symplectic")

    @property
    def n(self):
        return len(self.entries) // 2

    def array(self):
        return _as_object_array(self.entries)

    def inverse(self):
        # A^{-1} = -J A^T J from A^T J A = J and J^2 = -I.
        J = form_matrix(self.n)
        return SymplecticMatrix((-J @ self.array().T @ J).tolist())

    def __matmul__(self, other):
        return SymplecticMatrix((self.array() @ other.array()).tolist())

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        out = np.eye(2 * self.n, dtype=object)
        A = self.array()
        for _ in range(k):
            out = out @ A
        return SymplecticMatrix(out.tolist())

    def trace(self):
        return sum(self.entries[i][i] for i in range(2 * self.n))

    def apply(self, vector):
        """Exact image of an integer/rational vector."""
        A = self.array()
        return tuple(sum(A[i, j] * vector[j] for j in range(2 * self.n))
                     for i in range(2 * self.n))


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, highest degree first."""

    coeffs: tuple
    reciprocal: bool

    def degree(self):
        return len(self.coeffs) - 1


def char_poly(A):
    """
    Exact characteristic polynomial sum_k c_k x^(2n-k) of a
    SymplecticMatrix by Faddeev-LeVerrier: c_0 = 1, M_0 = 0,
    M_k = A M_{k-1} + c_{k-1} I and c_k = -tr(A M_k) / k, where every
    division is exact over Z.
    """
    a = A.array()
    I = np.eye(len(a), dtype=object)
    M, coeffs = 0 * I, [1]
    for k in range(1, len(a) + 1):
        M = a @ M + coeffs[-1] * I
        coeffs.append(-int(np.trace(a @ M)) // k)
    coeffs = tuple(coeffs)
    return CharPoly(coeffs, coeffs == coeffs[::-1])


def _Q(w):
    return sum(w[2 * i] * w[2 * i + 1] for i in range(len(w) // 2))


def _sigma(z, w):
    n = len(z) // 2
    return sum(z[2 * i + 1] * w[2 * i] - w[2 * i + 1] * z[2 * i]
               for i in range(n))


def phi_A(A):
    """
    The unique parity vector phi in {0,1}^{2n} with
    Q(A^{-1} w) - Q(w) = sigma(phi, w) mod 2 for all integer w,
    found and verified by brute force over w in {0,1}^{2n}.
    """
    n = A.n
    Ainv = A.inverse()
    tests = list(product((0, 1), repeat=2 * n))
    targets = [(_Q(Ainv.apply(w)) - _Q(w)) % 2 for w in tests]
    solutions = []
    for phi in product((0, 1), repeat=2 * n):
        if all(_sigma(phi, w) % 2 == t for w, t in zip(tests, targets)):
            solutions.append(phi)
    if len(solutions) != 1:
        raise AssertionError(
            "parity vector not unique; input is not a valid symplectic matrix")
    return solutions[0]


def quantization_admissible(A, N, theta=None):
    """
    True iff (I - A) theta = N phi_A / 2 mod Z^{2n}, in exact rational
    arithmetic.  theta defaults to 0; entries must be rational.
    """
    n = A.n
    if theta is None:
        theta = (0,) * (2 * n)
    th = []
    for t in theta:
        if isinstance(t, float):
            raise ValueError("irrational/float theta unsupported; pass Fractions")
        th.append(Fraction(t))
    phi = phi_A(A)
    Aarr = A.array()
    for i in range(2 * n):
        lhs = th[i] - sum(Fraction(int(Aarr[i, j])) * th[j]
                          for j in range(2 * n))
        rhs = Fraction(N * phi[i], 2)
        if (lhs - rhs).denominator != 1:
            return False
    return True


def quantum_period(A, N, cap_factor=16):
    """
    Least k >= 1 with A^k = I mod N, by iterated modular multiplication.
    Requires a hyperbolic input (|trace| > 2 for n = 1).
    """
    if A.n == 1 and abs(A.trace()) <= 2:
        raise ValueError("quantum period requires a hyperbolic matrix")
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return 1
    dim = 2 * A.n
    I = np.eye(dim, dtype=object)
    Amod = A.array() % N
    M = I.copy()
    for k in range(1, cap_factor * N + 1):
        M = (M @ Amod) % N
        if (M == I).all():
            return k
    raise RuntimeError("period not found within cap %d" % (cap_factor * N))


@dataclass(frozen=True)
class AdmissibleN:
    """N_k = (lambda^k - lambda^-k)/(lambda - lambda^-1) with flags."""

    k: int
    value: int
    even: bool
    admissible: bool


def admissible_N(A, k):
    """
    Exact N_k via the integer recurrence N_{j+1} = Tr(A) N_j - N_{j-1},
    cross-checked against the floating eigenvalue formula.  Also reports
    whether k meets the admissibility rule (k = 0 mod 6 for odd trace,
    k = 0 mod 2 for even trace) and whether N_k is even.
    """
    tr = A.trace()
    if A.n != 1 or tr <= 2:
        raise ValueError("admissible_N requires a hyperbolic SL(2,Z) matrix")
    prev, cur = 0, 1
    for _ in range(k - 1):
        prev, cur = cur, tr * cur - prev
    if k == 0:
        cur = 0
    lam = (tr + math.sqrt(tr * tr - 4)) / 2
    if k * math.log(lam) < 700:
        approx = (lam ** k - lam ** (-k)) / (lam - 1 / lam)
        if abs(approx - cur) > 1e-9 * max(1.0, abs(approx)):
            raise AssertionError("recurrence and floating formula disagree")
    rule = (k % 6 == 0) if tr % 2 == 1 else (k % 2 == 0)
    return AdmissibleN(k=k, value=cur, even=cur % 2 == 0, admissible=rule)
