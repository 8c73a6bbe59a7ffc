"""
Unitary propagators quantizing integer symplectic maps.

The SL(2,Z) propagator is a finite Gauss-sum kernel

    M[j, k] = e^{-i pi/4} (N b)^{-1/2}
              sum_{m=0}^{b-1} exp(i pi (d j^2 - 2 j (k + m N)
                                        + a (k + m N)^2) / (N b))

for A = [[a, b], [c, d]] with positive entries, theta = 0, N even.
Applying it is a chirp - DFT - chirp on N b points, so the streamed path
costs O(N b log(N b)) per state with O(N b) workspace.  Its dense matrix
is not built through that apply: each entry is evaluated from the same
chirps with the DFT phase jk mod N b reduced in integers (_sl2_apply),
so the dense oracles do not share the apply's FFT rounding.

Every apply_array takes coefficients of shape (..., N^n) and acts on the
last axis; leading axes are a batch of states.

Every propagator here commutes with parity R: x -> -x, since -I is
central in Sp(2n, Z).  The dense oracles egorov_defect and period_phase
work on the even and odd blocks of M in the basis of the pairs {x, -x}
(_parity_split), at half the size, and add a proven bound for the cross
block they drop; at b = 1 the SL(2) kernel is parity-symmetric bit for
bit, and that block is exactly 0.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .hilbert import (DENSE_LIMIT, LatticeTranslation, _check_dense,
                      _dense_matrix)
from .symplectic import SymplecticMatrix

# Rows per block of a kernel evaluation: the block's residues and factors
# stay small enough for the allocator to reuse them.
_KERNEL_ROWS = 32


class Propagator:
    """
    Unitary on a state space; carries its classical matrix.  `kernel`, if
    given, is kernel(idx) = M[np.ix_(idx, idx)] evaluated entry by entry
    for a permutation idx of the basis; dense and the parity split read it
    instead of applying M to identity columns.
    """

    def __init__(self, space, classical, apply_array, kernel=None):
        self.space = space
        self.classical = classical
        self._apply_array = apply_array
        self._kernel = kernel
        self._dense = None

    def apply_array(self, c):
        return self._apply_array(np.asarray(c, dtype=np.complex128))

    @property
    def dense(self):
        if self._dense is None:
            self._dense = (
                _dense_matrix(self.apply_array, self.space.dim, "propagator")
                if self._kernel is None
                else self._kernel(np.arange(self.space.dim)))
        return self._dense

    def compose(self, other):
        """self applied after other (matrix product self @ other)."""
        if self.space is not other.space and self.space != other.space:
            raise ValueError("propagators live on different spaces")
        return Propagator(
            self.space, self.classical @ other.classical,
            lambda c: self.apply_array(other.apply_array(c)))


def _chirp(c, n, L):
    """
    e^{i pi c k^2 / L} for k < n <= L and even L, with r = c k^2 reduced
    mod 2L in integers: a float argument up to pi c L (3e5 at c = 2,
    L = 46368) would lose ~1e-16 of it per entry, and an orbit of applies
    would drift in phase.  r(L - k) = r(k) for even L, so cos and sin of
    (pi r) (1 / L) are evaluated for k <= L/2 only and mirrored.  numpy's
    complex division multiplies by the reciprocal, so this is the same
    array, bit for bit, as np.exp(1j * np.pi * r / L).
    """
    m = min(n, L // 2 + 1)
    k = np.arange(m)
    x = np.pi * (k * k % (2 * L) * (c % (2 * L)) % (2 * L)) * (1 / L)
    out = np.empty(n, dtype=np.complex128)
    np.cos(x, out=out.real[:m])
    np.sin(x, out=out.imag[:m])
    out[m:] = out[L - m:L - n:-1]
    return out


def _sl2_apply(N, a, b, d):
    """
    The batched apply of the Gauss-sum kernel, and the kernel itself.
    With L = N b and the apply's DFT over n = k + m N split as
    e^{-2 pi i j k / L} e^{-2 pi i j m / b},

        M[j, k] = chirp_out[j] e^{-2 pi i (j k mod L) / L} h_{j mod b}[k],
        h_r[k] = sum_{m < b} e^{-2 pi i r m / b} chirp_in[k + m N],

    which kernel(idx) evaluates at rows and columns idx, in blocks of
    _KERNEL_ROWS rows written in place, with j k mod L taken in integers.
    Each entry is the same arithmetic in any order, so a permuted matrix
    equals the gathered one bit for bit.  Nothing is computed before the
    first call.
    """
    L = N * b
    chirp_in = _chirp(a, L, L)
    chirp_out = np.exp(-1j * np.pi / 4) / math.sqrt(L) * _chirp(d, N, L)

    def apply_array(c):
        x = (np.tile(c, b) if b > 1 else c) * chirp_in
        return chirp_out * np.fft.fft(x)[..., :N]

    def kernel(idx):
        _check_dense(len(idx), "propagator")
        h = np.fft.fft(chirp_in.reshape(b, N), axis=0)[:, idx]
        w = np.exp(-2j * np.pi / L * np.arange(L))
        idx = idx.astype(np.int32)  # j k < N^2 <= DENSE_LIMIT^2 < 2^31
        out = np.empty((len(idx), len(idx)), dtype=np.complex128)
        res = np.empty((_KERNEL_ROWS, len(idx)), dtype=np.int32)
        for lo in range(0, len(idx), _KERNEL_ROWS):
            j = idx[lo:lo + _KERNEL_ROWS]
            blk, r = out[lo:lo + len(j)], res[:len(j)]
            np.multiply.outer(j, idx, out=r)
            np.remainder(r, L, out=r)
            np.take(w, r, out=blk, mode="clip")  # clip: no buffered copy
            blk *= chirp_out[j, None]
            blk *= h[j % b]
        return out

    return apply_array, kernel


def metaplectic_sl2(space, A):
    """Gauss-sum propagator for a positive-entry SL(2,Z) matrix."""
    if space.n != 1:
        raise ValueError("metaplectic_sl2 requires n = 1")
    if space.N % 2 != 0:
        raise ValueError("metaplectic_sl2 requires even N")
    if not isinstance(A, SymplecticMatrix):
        A = SymplecticMatrix(A)
    ((a, b), (c, d)) = A.entries
    if min(a, b, c, d) <= 0:
        raise ValueError("the kernel formula requires all entries positive")
    return Propagator(space, A, *_sl2_apply(space.N, a, b, d))


def metaplectic_adjoint(space, A):
    """
    M_A^dagger as a streamed propagator.  The kernel is symmetric under
    (j <-> k, a <-> d), so M_A^T = M_{A'} with A' = [[d, b], [c, a]] and
    M_A^dagger = conj o M_{A'} o conj; its classical matrix is A^{-1}.
    """
    if not isinstance(A, SymplecticMatrix):
        A = SymplecticMatrix(A)
    ((a, b), (c, d)) = A.entries
    transpose_apply = _sl2_apply(space.N, d, b, a)[0]

    def apply_array(ccoef):
        return np.conj(transpose_apply(np.conj(ccoef)))

    return Propagator(space, A.inverse(), apply_array)


def rotation_classical():
    """Classical block rotation (z1, z2) -> (z2, -z1), interleaved."""
    return SymplecticMatrix([[0, 0, 1, 0],
                             [0, 0, 0, 1],
                             [-1, 0, 0, 0],
                             [0, -1, 0, 0]])


def rotation_propagator(space):
    """Propagator of u(x1, x2) -> u(-x2, x1) on an n = 2 space."""
    if space.n != 2:
        raise ValueError("rotation_propagator requires n = 2")
    if space.N % 2 != 0:
        raise ValueError("rotation_propagator requires even N")
    N = space.N

    def apply_array(c):
        g = c.reshape(c.shape[:-1] + (N, N))
        # basis action e_a (x) e_b -> e_b (x) e_{(-a) mod N}
        out = np.swapaxes(g[..., (-np.arange(N)) % N, :], -1, -2)
        return out.reshape(c.shape)

    return Propagator(space, rotation_classical(), apply_array)


def tensor_propagator(space2, P1, P2):
    """P1 (x) P2 acting on an n = 2 space (row-major tensor layout)."""
    N = space2.N
    blk = np.zeros((4, 4), dtype=object)
    blk[:2, :2] = P1.classical.array()
    blk[2:, 2:] = P2.classical.array()

    def apply_array(c):
        # P1 on the first tensor axis, as a batch over the second, then P2
        g = c.reshape(c.shape[:-1] + (N, N))
        g = np.swapaxes(P1.apply_array(np.swapaxes(g, -1, -2)), -1, -2)
        return P2.apply_array(g).reshape(c.shape)

    return Propagator(space2, SymplecticMatrix(blk.tolist()), apply_array)


# Largest |M^P - e^{i phi} I| entry period_phase accepts; ScarEnsemble
# holds |M^P G_N - e^{i phi} G_N| to the same bound.
PERIOD_PHASE_TOL = 1e-6


def _parity_order(space):
    """
    The raveled indices of Z_N^n ordered under parity R: x -> -x as
    [fixed; reps; partners]: the nf points with x = -x, then one index
    a < -a of each of the npair pairs {a, -a}, then the partners -a in
    the same order.  Returns (order, nf, npair).
    """
    shape = (space.N,) * space.n
    i = np.arange(space.dim)
    neg = np.ravel_multi_index(
        -np.indices(shape).reshape(space.n, -1) % space.N, shape)
    reps = i < neg
    order = np.concatenate([i[neg == i], i[reps], neg[reps]])
    npair = int(np.count_nonzero(reps))
    return order, space.dim - 2 * npair, npair


def _parity_rows(X, nf, npair):
    """
    X <- H X in place, for rows ordered as _parity_order: the fixed rows
    stay and each pair (a, b) becomes (a + b, a - b).  In that order the
    orthonormal parity basis Q (columns e_f and (e_a +- e_b)/sqrt(2)) is
    symmetric and its own inverse, and H is Q with the pair rows scaled
    by sqrt(2): one step takes rows into the parity basis and back.
    """
    a, b = X[nf:nf + npair], X[nf + npair:]
    a += b
    b *= -2
    b += a


def _scale_pairs(X, nf):
    """
    X <- S X S in place, S = 1 on the first nf indices and 1/sqrt(2) on
    the rest.  The pair block is halved exactly: fl(1/sqrt(2))^2 is
    0.5 (1 - 1.8e-16), a bias that a P-th power would grow to P times.
    """
    X[nf:, nf:] *= 0.5
    X[:nf, nf:] *= 1 / math.sqrt(2)
    X[nf:, :nf] *= 1 / math.sqrt(2)


def _parity_kernel(P):
    """
    (layout, B): layout as _parity_order, and B the matrix of M with
    rows and columns in that order, evaluated so by P's kernel when it
    has one (metaplectic_sl2), else gathered from P.dense.
    """
    order, _, _ = layout = _parity_order(P.space)
    return layout, (P.dense[np.ix_(order, order)] if P._kernel is None
                    else P._kernel(order))


def _parity_split(layout, B):
    """
    M in the parity basis: Q^T M Q = [[E, C_eo], [C_oe, O]], with the
    even block E (fixed points first) and the odd block O, from M in
    parity order as _parity_kernel gives it, which is overwritten.
    Returns (layout, E, O, ||C||_F), E and O views into B.

    C = 0 exactly when M R = R M, which every propagator here satisfies:
    -I is central in Sp(2n, Z), and the Gauss-sum kernel is invariant
    under (j, k) -> (-j, -k).  Numerically C is rounding, and at b = 1 it
    is 0.0: the evaluated kernel is itself invariant bit for bit, since
    jk mod N is and both chirps are mirrored (_chirp).  Q diag(E, O) Q^T
    is M_s = (M + R M R)/2, and ||M - M_s||_2 <= ||C||_F bounds what
    dropping C costs.  ||C||_F = ||M - R M R||_F / 2 is taken from the
    entries of M, before the change of basis.  Raises ValueError when it
    exceeds PERIOD_PHASE_TOL: M then does not commute with R.
    """
    _, nf, npair = layout
    ne = nf + npair
    f, a, b = slice(0, nf), slice(nf, ne), slice(ne, None)
    # M - R M R is these four block differences, each at (x, y) and at
    # (-x, -y), and zero on the fixed block: ||C||_F^2 = cross2 / 2
    cross2 = 0.0
    for r, s in [((f, a), (f, b)), ((a, f), (b, f)), ((a, a), (b, b)),
                 ((a, b), (b, a))]:
        d = B[r] - B[s]
        cross2 += np.vdot(d, d).real
    cross = math.sqrt(cross2 / 2)
    if cross > PERIOD_PHASE_TOL:
        raise ValueError(
            "propagator does not commute with parity: cross-block bound "
            "||C||_F = %.3e exceeds PERIOD_PHASE_TOL" % cross)
    _parity_rows(B, nf, npair)
    _parity_rows(B.T, nf, npair)
    _scale_pairs(B, nf)
    return layout, B[:ne, :ne], B[ne:, ne:], cross


def egorov_defect(P, window):
    """
    max over lattice j, |j|_inf <= window, of
    ||M^{-1} U_{j/N} M - U_{A^{-1} j / N}||_max on the dense path, plus
    ||C||_F, the bound on what the parity split drops.

    Parity contract: M commutes with R: x -> -x (_parity_split).  With Q
    the parity basis and M = Q (diag(E, O) + C) Q^T,
    M^H U M = Q diag(E^H, O^H) Q^T U M + Q C^H Q^T U M, and the second
    term has max entry <= ||C||_F ||U M||_2 = ||C||_F, which is 0.0 for
    metaplectic_sl2 at b = 1.  So each shift costs two
    (N^n/2) x (N^n/2) x N^n products.  M is built once, in parity order
    (_parity_kernel), and split from a copy.  U_{j/N} is monomial, so
    U M is a phased gather of its rows; its columns stay in parity
    order, a permutation that leaves every max unchanged.  Q^T and Q are
    in-place sums and differences of row pairs.  U_{-j} = U_j^dagger
    exactly (the phases are reduced mod 2N in integers), so the
    difference at -j is the conjugate transpose of the one at j, with
    the same largest entry: only j = 0 and one j of each +-j pair is
    formed.  Raises ValueError when ||C||_F exceeds PERIOD_PHASE_TOL.
    """
    if window < 0:
        raise ValueError("Egorov window must be >= 0")
    space = P.space
    A_inv = P.classical.inverse()
    layout, M = _parity_kernel(P)
    order, nf, npair = layout
    ne = nf + npair
    UM = M.copy()
    _, E, O, cross = _parity_split(layout, UM)
    # Q = S H, S = 1 on the fixed rows and 1/sqrt(2) on the pair rows, so
    # the rows of M^H U M are H S diag(E^H, O^H) S (H U M): S is folded
    # into E^H and O^H
    Eh, Oh = E.conj().T, O.conj().T / 2
    _scale_pairs(Eh, nf)
    del E, O  # UM is free: it now holds H U M, rows in the parity basis
    diff = np.empty_like(M)  # M^H U M - U', rows and columns in parity order
    # |diff| goes into UM's buffer, which the next gather overwrites
    mag = UM.reshape(-1).view(np.float64)[:UM.size].reshape(UM.shape)
    rows = np.arange(space.dim)
    pos = np.empty_like(order)  # pos[order] = rows
    pos[order] = rows
    worst = 0.0
    for j in itertools.product(range(-window, window + 1), repeat=2 * space.n):
        if j < tuple(-v for v in j):
            continue
        src, phase = LatticeTranslation(space, j).monomial()
        # clip mode writes into UM directly; raise mode buffers a copy
        np.take(M, pos[src[order]], axis=0, out=UM, mode="clip")
        UM *= phase[order][:, None]
        _parity_rows(UM, nf, npair)
        np.matmul(Eh, UM[:ne], out=diff[:ne])
        np.matmul(Oh, UM[ne:], out=diff[ne:])
        _parity_rows(diff, nf, npair)
        src, phase = LatticeTranslation(space, A_inv.apply(j)).monomial()
        diff[rows, pos[src[order]]] -= phase[order]
        worst = max(worst, float(np.abs(diff, out=mag).max()))
    return worst + cross


def _matrix_power(a, n):
    """
    np.linalg.matrix_power(a, n) for n >= 1, bit for bit: the same
    products in the same order, numpy's short cuts for n <= 3 included.
    Each product is written into a itself (overwritten) or one of at most
    two buffers, so no temporary is allocated per product.
    """
    slots = [a]

    def product(x, y, keep):
        # into a slot that holds neither operand nor keep
        out = next((s for s in slots
                    if s is not x and s is not y and s is not keep), None)
        if out is None:
            out = np.empty_like(a)
            slots.append(out)
        return np.matmul(x, y, out=out)

    if n == 1:
        return a
    if n <= 3:  # numpy's short cuts: a a and (a a) a
        aa = product(a, a, None)
        return aa if n == 2 else product(aa, a, None)
    z = result = None
    while n > 0:
        z = a if z is None else product(z, z, result)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else product(result, z, None)
    return result


@dataclass(frozen=True)
class PeriodPhase:
    P: int
    phi: float
    defect: float


def period_phase(P, period):
    """
    Measures the global phase of M^period = e^{i phi} I.  `period` must
    be a period of M; symplectic.quantum_period need not give one (see
    there), and the check below then raises.

    Dense path (N^n <= 4096): M splits by parity into its even and odd
    blocks E, O (_parity_split; M must commute with R: x -> -x, as every
    propagator here does), and phi is the phase of tr E^P + tr O^P.  The
    defect is the max entry of Q diag(E^P, O^P) Q^T - e^{i phi} I in the
    original basis, plus P ||C||_F: with M_s = Q diag(E, O) Q^T,
    ||M^P - M_s^P||_2 <= P ||M - M_s||_2 <= P ||C||_F since both have
    norm <= 1, so the defect bounds |M^P - e^{i phi} I|_max.  That term
    is 0.0 for metaplectic_sl2 at b = 1.  The powers are numpy's
    matrix_power products, in reused buffers (_matrix_power).  Raises
    ValueError when ||C||_F exceeds PERIOD_PHASE_TOL.
    Streamed path (above DENSE_LIMIT): phi from M^period e_0, and the
    defect |M^period e_0 - e^{i phi} e_0|_max, an estimate on e_0 only,
    not a bound on |M^P - e^{i phi} I|_max.  Either defect above
    PERIOD_PHASE_TOL raises AssertionError.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    space = P.space
    if space.dim <= DENSE_LIMIT:
        (_, nf, _), E, O, cross = _parity_split(*_parity_kernel(P))
        E = _matrix_power(E, period)
        O = _matrix_power(O, period)
        phi = float(np.angle((np.trace(E) + np.trace(O)) / space.dim))
        E.flat[::len(E) + 1] -= np.exp(1j * phi)
        O.flat[::len(O) + 1] -= np.exp(1j * phi)
        # the entries of Q diag(E, O) Q^T: E's fixed-point block, its
        # fixed-pair blocks / sqrt(2), and (E_pp +- O) / 2 on the pairs
        Epp = E[nf:, nf:]
        defect = max(np.abs(E[:nf, :nf]).max(),
                     np.abs(E[:nf, nf:]).max(initial=0.0) / math.sqrt(2),
                     np.abs(E[nf:, :nf]).max(initial=0.0) / math.sqrt(2),
                     np.abs(Epp + O).max(initial=0.0) / 2,
                     np.abs(Epp - O).max(initial=0.0) / 2)
        defect = float(defect) + period * cross
    else:
        w = np.zeros(space.dim, dtype=np.complex128)
        w[0] = 1.0
        for _ in range(period):
            w = P.apply_array(w)
        phi = float(np.angle(w[0]))
        w[0] -= np.exp(1j * phi)
        defect = float(np.abs(w).max())
    phi = float(np.angle(np.exp(1j * phi)))  # normalize to [-pi, pi)
    if defect > PERIOD_PHASE_TOL:
        raise AssertionError(
            "M^P is not proportional to the identity (defect %.3e)" % defect)
    return PeriodPhase(P=period, phi=phi, defect=defect)
