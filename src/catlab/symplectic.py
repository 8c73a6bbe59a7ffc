"""
Exact integer arithmetic on symplectic matrices.

Coordinates are interleaved: z = (x_1, xi_1, ..., x_n, xi_n).  The
symplectic form is sigma(z, w) = sum_i (xi_i y_i - eta_i x_i), i.e.
sigma(z, w) = z^T J w with J the block-diagonal matrix built from
[[0, -1], [1, 0]].  The quadratic form used by the parity vector is
Q(w) = sum_i y_i eta_i.
"""

from dataclasses import dataclass
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


def _preserves_form(M):
    """M^T J M == J for a square object array M of even dimension."""
    JM = np.empty_like(M)  # J M: rows (2i, 2i + 1) become (-M_2i+1, M_2i)
    JM[0::2] = -M[1::2]
    JM[1::2] = M[0::2]
    return bool((M.T @ JM == form_matrix(len(M) // 2)).all())


def is_symplectic(entries):
    """True iff M^T J M = J exactly, in integer arithmetic."""
    M = _as_object_array(entries)
    if M.shape[0] % 2 != 0:
        raise ValueError("symplectic matrices have even dimension")
    return _preserves_form(M)


@dataclass(frozen=True)
class SymplecticMatrix:
    """Integer 2n x 2n matrix with A^T J A = J, arbitrary precision."""

    entries: tuple

    def __post_init__(self):
        M = _as_object_array(self.entries)
        object.__setattr__(self, "entries", tuple(map(tuple, M.tolist())))
        # A^T J A = J already forces det A = 1 (the Pfaffian identity)
        if len(M) % 2 != 0 or not _preserves_form(M):
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
    SymplecticMatrix by Faddeev-LeVerrier: c_0 = 1, M_1 = I,
    M_k = A M_{k-1} + c_{k-1} I and c_k = -tr(A M_k) / k, where every
    division is exact over Z.  tr(A M_k) is the sum of the entries of
    A^T * M_k, so each step forms one product.
    """
    a = A.array()
    d = len(a)
    M, coeffs = np.eye(d, dtype=object), [1]
    for k in range(1, d + 1):
        if k > 1:
            M = a @ M
            M.flat[::d + 1] += coeffs[-1]
        coeffs.append(-int((a.T * M).sum()) // k)
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
    Q(A^{-1} w) - Q(w) = sigma(phi, w) mod 2 for all integer w.  Both
    sides depend on w mod 2 only, and sigma(phi, e_2i) = phi_2i+1,
    sigma(phi, e_2i+1) = -phi_2i: phi is read from the unit vectors and
    then verified on every w in {0,1}^{2n}.
    """
    dim = 2 * A.n
    inv = [[v % 2 for v in row] for row in A.inverse().entries]

    def target(w):
        v = [sum(a * b for a, b in zip(row, w)) for row in inv]
        return (_Q(v) - _Q(w)) % 2

    unit = [target([int(i == j) for j in range(dim)]) for i in range(dim)]
    phi = tuple(unit[i ^ 1] for i in range(dim))
    if any(_sigma(phi, w) % 2 != target(w)
           for w in product((0, 1), repeat=dim)):
        raise AssertionError(
            "no parity vector; input is not a valid symplectic matrix")
    return phi


# quantum_period gives up after PERIOD_CAP_FACTOR * N multiplications.
PERIOD_CAP_FACTOR = 16


def quantum_period(A, N):
    """
    Least k >= 1 with A^k = I mod N, by iterated modular multiplication.
    Requires a hyperbolic input (|trace| > 2 for n = 1).

    This is the period of A on (Z/N)^{2n}, which need not be a period of
    the quantized map M: exact Egorov, U_m M = M U_{A^-1 m}, holds for m
    mod 2N, so when A^k = I mod N but not mod 2N, M^k need not commute
    with every U_m.  For [[5, 2], [2, 1]] at N = 144 this returns 24,
    with A^24 = [[1 + N, N], [N, 1 + N]] mod 2N, and period_phase refuses
    24 but accepts 48.  At even N, A^{2k} = I mod 2N, so M^{2k} commutes
    with every U_m and 2k is always a period of M.  The value is kept: it
    is the P of the `periods` artifacts and of build_scar, whose scars
    check on G_N the period they use.
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
    cap = PERIOD_CAP_FACTOR * N
    for k in range(1, cap + 1):
        M = (M @ Amod) % N
        if (M == I).all():
            return k
    raise RuntimeError("period not found within cap %d" % cap)


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
    if k < 0:
        raise ValueError("admissible_N requires k >= 0")
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
