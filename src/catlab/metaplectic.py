"""
Unitary propagators quantizing integer symplectic maps.

The SL(2,Z) propagator is a finite Gauss-sum kernel

    M[j, k] = e^{-i pi/4} (N b)^{-1/2}
              sum_{m=0}^{b-1} exp(i pi (d j^2 - 2 j (k + m N)
                                        + a (k + m N)^2) / (N b))

for A = [[a, b], [c, d]] with positive entries, theta = 0, N even.
Applying it is a chirp - DFT - chirp on N b points, so the streamed path
costs O(N b log(N b)) per state with O(N b) workspace.

Every apply_array takes coefficients of shape (..., N^n) and acts on the
last axis; leading axes are a batch of states.
"""

from dataclasses import dataclass
import math

import numpy as np

from .hilbert import (DENSE_LIMIT, LatticeTranslation, QuantumState,
                      _dense_matrix)
from .symplectic import SymplecticMatrix


class Propagator:
    """Unitary on a state space; carries its classical matrix."""

    def __init__(self, space, classical, apply_array, dense=None):
        self.space = space
        self.classical = classical
        self._apply_array = apply_array
        self._dense = dense

    def apply_array(self, c):
        return self._apply_array(np.asarray(c, dtype=np.complex128))

    def apply(self, state):
        return QuantumState(state.space, self.apply_array(state.coeffs))

    @property
    def dense(self):
        if self._dense is None:
            self._dense = _dense_matrix(self.apply_array, self.space.dim,
                                        "propagator")
        return self._dense

    def compose(self, other):
        """self applied after other (matrix product self @ other)."""
        if self.space is not other.space and self.space != other.space:
            raise ValueError("propagators live on different spaces")
        classical = None
        if self.classical is not None and other.classical is not None:
            classical = self.classical @ other.classical
        return Propagator(
            self.space, classical,
            lambda c: self.apply_array(other.apply_array(c)))


def _sl2_apply(N, a, b, d):
    L = N * b
    K = np.arange(L)
    chirp_in = np.exp(1j * np.pi * a / L * K * K)
    j = np.arange(N)
    chirp_out = (np.exp(-1j * np.pi / 4) / math.sqrt(L)
                 * np.exp(1j * np.pi * d / L * j * j))

    def apply_array(c):
        x = np.tile(c, b) * chirp_in
        return chirp_out * np.fft.fft(x)[..., :N]

    return apply_array


def metaplectic_sl2(space, A):
    """Gauss-sum propagator for a positive-entry SL(2,Z) matrix."""
    space.require_zero_theta()
    if space.n != 1:
        raise ValueError("metaplectic_sl2 requires n = 1")
    if space.N % 2 != 0:
        raise ValueError("metaplectic_sl2 requires even N")
    if not isinstance(A, SymplecticMatrix):
        A = SymplecticMatrix(A)
    ((a, b), (c, d)) = A.entries
    if min(a, b, c, d) <= 0:
        raise ValueError("the kernel formula requires all entries positive")
    return Propagator(space, A, _sl2_apply(space.N, a, b, d))


def metaplectic_adjoint(space, A):
    """
    M_A^dagger as a streamed propagator.  The kernel is symmetric under
    (j <-> k, a <-> d), so M_A^T = M_{A'} with A' = [[d, b], [c, a]] and
    M_A^dagger = conj o M_{A'} o conj; its classical matrix is A^{-1}.
    """
    if not isinstance(A, SymplecticMatrix):
        A = SymplecticMatrix(A)
    ((a, b), (c, d)) = A.entries
    transpose_apply = _sl2_apply(space.N, d, b, a)

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
    space.require_zero_theta()
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
    classical = None
    if P1.classical is not None and P2.classical is not None:
        a1 = P1.classical.array()
        a2 = P2.classical.array()
        blk = np.zeros((4, 4), dtype=object)
        blk[:2, :2] = a1
        blk[2:, 2:] = a2
        classical = SymplecticMatrix(blk.tolist())

    def apply_array(c):
        # P1 on the first tensor axis, as a batch over the second, then P2
        g = c.reshape(c.shape[:-1] + (N, N))
        g = np.swapaxes(P1.apply_array(np.swapaxes(g, -1, -2)), -1, -2)
        return P2.apply_array(g).reshape(c.shape)

    return Propagator(space2, classical, apply_array)


def egorov_defect(P, window):
    """
    max over lattice j, |j|_inf <= window, of
    ||M^{-1} U_{j/N} M - U_{A^{-1} j / N}||_max on the dense path.
    U_{j/N} is monomial, so U M is its batched apply to the columns of M,
    and each shift costs one product M^H (U M).
    """
    space = P.space
    A_inv = P.classical.inverse()
    M = P.dense
    Mh = M.conj().T
    worst = 0.0
    ranges = np.stack(np.meshgrid(
        *[np.arange(-window, window + 1)] * (2 * space.n),
        indexing="ij"), axis=-1).reshape(-1, 2 * space.n)
    for j in ranges:
        UM = LatticeTranslation(space, j).apply_array(M.T).T
        target = LatticeTranslation(space, A_inv.apply(j)).dense()
        worst = max(worst, float(np.abs(Mh @ UM - target).max()))
    return worst


@dataclass(frozen=True)
class PeriodPhase:
    P: int
    phi: float
    defect: float


def period_phase(P, period, probes=None, tol=1e-6):
    """
    Measures the global phase of M^period = e^{i phi} I.

    Dense path (N^n <= 4096): phi from the trace of the matrix power.
    Streamed path: phi from M^period e_0, with the identity defect
    estimated on e_0 plus any supplied probe vectors.
    """
    space = P.space
    if space.dim <= DENSE_LIMIT:
        Mp = np.linalg.matrix_power(P.dense, period)
        phi = float(np.angle(np.trace(Mp) / space.dim))
        defect = float(np.abs(Mp - np.exp(1j * phi) * np.eye(space.dim)).max())
    else:
        e0 = np.zeros(space.dim, dtype=np.complex128)
        e0[0] = 1.0
        vecs = [e0]
        if probes is not None:
            vecs += [np.asarray(p, dtype=np.complex128) for p in probes]
        images = []
        for v in vecs:
            w = v
            for _ in range(period):
                w = P.apply_array(w)
            images.append(w)
        phi = float(np.angle(images[0][0]))
        defect = max(float(np.abs(w - np.exp(1j * phi) * v).max())
                     for v, w in zip(vecs, images))
    phi = float(np.angle(np.exp(1j * phi)))  # normalize to [-pi, pi)
    if defect > tol:
        raise AssertionError(
            "M^P is not proportional to the identity (defect %.3e)" % defect)
    return PeriodPhase(P=period, phi=phi, defect=defect)
