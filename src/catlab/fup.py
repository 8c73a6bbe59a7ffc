"""
Uncertainty-principle numerics on discrete grids.

The semiclassical Fourier transform is modeled by the size-M unitary
DFT with h = 1/M; sets X in [0,1)^d live on the Z_M^d grid.  Porosity
is checked by a sampled quantifier sweep (sound for rejection), and the
norm-decay experiments fit log-log slopes across grid sizes.
"""

from dataclasses import dataclass
import math

import numpy as np

# Largest allocation, in bytes, that cantor_set, the stencil counts and
# fup_norm accept; above it they raise before allocating.
FUP_MAX_BYTES = 2 * 2 ** 30


def _check_bytes(need, what):
    if need > FUP_MAX_BYTES:
        raise ValueError("%s needs %d bytes, above FUP_MAX_BYTES = %d"
                         % (what, need, FUP_MAX_BYTES))


def _check_cantor(depth):
    if depth < 0:
        raise ValueError("Cantor depth must be >= 0")
    # the digit array, one remainder temporary and two masks
    _check_bytes(18 * 3 ** depth, "a depth-%d Cantor digit test" % depth)


def _check_submatrix(rows, cols, L, split=True):
    # 32 bytes per entry of the real half blocks (split) or of the complex
    # block; 80 when the phase modulus (4L when split) squared is >= 2^63
    n = (rows + 1) // 2 * ((cols + 1) // 2) if split else rows * cols
    per = 80 if (4 * L if split else L) ** 2 >= 2 ** 63 else 32
    _check_bytes(per * n, "a %d x %d DFT submatrix" % (rows, cols))


@dataclass(frozen=True)
class DiscreteSet:
    M: int
    dims: int
    cells: frozenset

    def __post_init__(self):
        cells = frozenset(tuple(int(v) for v in c) if self.dims > 1
                          else (int(c) if np.isscalar(c) else int(c[0]),)
                          for c in self.cells)
        for c in cells:
            if len(c) != self.dims or any(v < 0 or v >= self.M for v in c):
                raise ValueError("cells must lie in [0, M)^d")
        object.__setattr__(self, "cells", cells)

    def mask(self):
        m = np.zeros((self.M,) * self.dims, dtype=bool)
        for c in self.cells:
            m[c] = True
        return m

    def indices(self):
        """Sorted flat cell indices (d = 1)."""
        if self.dims != 1:
            raise ValueError("indices() is for d = 1 sets")
        return np.array(sorted(c[0] for c in self.cells), dtype=int)


def cantor_set(depth):
    """Mid-third Cantor iterate: M = 3^depth, cells with no digit 1."""
    _check_cantor(depth)
    M = 3 ** depth
    digits = np.arange(M)
    keep = np.ones(M, dtype=bool)
    for _ in range(depth):
        keep &= digits % 3 != 1
        digits //= 3
    return DiscreteSet(M, 1, frozenset(np.flatnonzero(keep).tolist()))


def product_set(X, Y):
    """Cartesian product of two d = 1 sets on the same grid."""
    if X.M != Y.M or X.dims != 1 or Y.dims != 1:
        raise ValueError("product_set needs d = 1 sets on one grid")
    cells = frozenset((a[0], b[0]) for a in X.cells for b in Y.cells)
    return DiscreteSet(X.M, 2, cells)


def _norm2(r, d):
    """Squared length |v|^2 of every offset v in the box [-r, r]^d."""
    return np.sum((np.indices((2 * r + 1,) * d) - r) ** 2, axis=0)


def _fft_size(M, d, r, K):
    """
    The FFT length n of a _hits call on a size-M grid with K stencils of
    radius r.  Refuses the call when its int32 counts and FFT work arrays
    (at most eight of n^d float64 at once) would exceed FUP_MAX_BYTES,
    so callers size it before they build the mask.
    """
    n = max(M, r) + r + 1
    while 30 ** n.bit_length() % n:  # 5-smooth sizes keep the FFT fast
        n += 1
    _check_bytes(4 * (M + 1) ** d * K + 64 * n ** d,
                 "a %d-stencil count at M = %d, d = %d" % (K, M, d))
    return n


def _hits(mask, stencils):
    """
    counts[c, k] = #{v : stencils[r + v, k] and mask[c + v]} for every
    integer centre c in [0, M]^d, cells off the grid counting as 0.  The
    stencils are (2r+1)^d boxes stacked on the last axis.  Each count is
    a zero-padded FFT correlation, rounded; a residual >= 0.25 raises.
    """
    d, M, r = mask.ndim, mask.shape[0], stencils.shape[0] // 2
    n = _fft_size(M, d, r, stencils.shape[-1])
    size, axes = (n,) * d, tuple(range(d))
    spec = np.fft.rfftn(mask, size, axes)
    keep = (slice(r, r + M + 1),) * d
    out = np.empty((M + 1,) * d + stencils.shape[-1:], dtype=np.int32)
    for k in range(stencils.shape[-1]):
        sten = np.fft.rfftn(np.flip(stencils[..., k], axes), size, axes)
        raw = np.fft.irfftn(spec * sten, size, axes)[keep]
        out[..., k] = np.rint(raw)
        if np.abs(raw - out[..., k]).max() >= 0.25:
            raise RuntimeError("FFT stencil count is not near an integer")
    return out


def neighborhood(X, delta):
    """Minkowski dilation by a Euclidean ball of radius delta."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    r = math.ceil(delta * X.M)
    _fft_size(X.M, X.dims, r, 1)
    ball = (_norm2(r, X.dims) <= r * r)[..., None]
    dil = _hits(X.mask(), ball)[(slice(X.M),) * X.dims + (0,)] > 0
    return DiscreteSet(X.M, X.dims, frozenset(map(tuple, np.argwhere(dil))))


_DIRECTIONS = np.stack([np.cos(np.pi * np.arange(16) / 16),
                        np.sin(np.pi * np.arange(16) / 16)], axis=1)


def _segments(r):
    """
    Segments {round(t u) : integer |t| <= r} for the 16 directions u; for
    |t| <= 3^7, round(c + t u) = c + round(t u) at integer centres c.
    """
    t = np.arange(-r, r + 1)[:, None, None]
    pts = np.round(t * _DIRECTIONS).astype(int) + r
    stencils = np.zeros((2 * r + 1, 2 * r + 1, 16), dtype=bool)
    stencils[pts[..., 0], pts[..., 1], np.arange(16)] = True
    return stencils


def porosity_check(X, nu, alpha0, alpha1, mode="balls"):
    """
    Sampled check of nu-porosity on scales R in {alpha0 * 2^i} up to
    alpha1.  Balls mode: every ball of radius R must contain a point x
    with B_{nu R}(x) disjoint from X.  Lines mode (d = 2): the same over
    segments of length 2R in a 16-direction grid.  Returns (True, None)
    or (False, counterexample); rejection is sound, acceptance holds at
    the sampled resolution.
    """
    if not (0 < nu < 1 and 0 < alpha0 <= alpha1 <= 1):
        raise ValueError("need 0 < nu < 1 and 0 < alpha0 <= alpha1 <= 1")
    if mode not in ("balls", "lines"):
        raise ValueError("mode must be 'balls' or 'lines'")
    if mode == "lines" and X.dims != 2:
        raise ValueError("lines mode requires d = 2")
    scales = [alpha0]
    while scales[-1] * 2 <= alpha1 * (1 + 1e-12):
        scales.append(scales[-1] * 2)
    M, d = X.M, X.dims
    # the widest window, at the last scale, is the largest count
    _fft_size(M, d, max(1, int(round(scales[-1] * M))),
              len(_DIRECTIONS) if mode == "lines" else 1)
    mask = X.mask()
    for R in scales:
        r = max(1, int(round(R * M)))
        need = nu * R * M
        near = (np.sqrt(_norm2(math.ceil(need), d)) < need)[..., None]
        free = _hits(mask, near)[(slice(M),) * d + (0,)] == 0  # dist >= need
        stencils = (_segments(r) if mode == "lines"
                    else (_norm2(r, d) <= r * r)[..., None])
        # a window fails when it has in-grid cells but no free one; every
        # sampled centre is a grid cell, so its window meets the grid,
        # except the corner (M, ..., M) at r = M, whose window meets it
        # iff the stencil has a cell with every offset v_i < 0
        fail = _hits(free, stencils) == 0
        if r == M:
            fail[(M,) * d] &= stencils[(slice(0, r),) * d].any(
                axis=tuple(range(d)))
        centers = np.arange(r, max(r + 1, M - r), max(1, r // 2))
        hit = np.argwhere(fail[np.ix_(*[centers] * d)])
        if len(hit):
            c = tuple(int(centers[i]) / M for i in hit[0][:d])
            if mode == "balls":
                return False, {"R": R, "center": c}
            return False, {"R": R, "segment_center": c,
                           "direction": tuple(_DIRECTIONS[hit[0][d]])}
    return True, None


def _phases(a, b, L):
    """(a_i b_j mod L) / L, in int64 while L^2 < 2^63, else Python ints."""
    if L * L >= 2 ** 63:
        a, b = a.astype(object), b.astype(object)
    return (np.outer(a, b) % L / L).astype(float, copy=False)


def _top(block):
    return np.linalg.svd(block, compute_uv=False)[0] if block.size else 0.0


def _dft_norm(rows, cols, wr, wc, L):
    """
    Largest singular value of wr[i] wc[j] e^{-2 pi i rows[i] cols[j] / L}
    / sqrt(L) for sorted integer indices.  When both index sets and their
    weights are symmetric, rows = (c + s) / 2 with -S = S and w(s) =
    w(-s), the matrix is unitary diagonals times e^{-2 pi i s t / 4L}: the
    even/odd basis splits it into the real blocks a_s a_t cos and 2 sin
    (a = 1 at s = 0, sqrt 2 elsewhere) on s, t >= 0 and on s, t > 0.
    Otherwise it is one complex SVD.  Phases are reduced in integers.
    """
    split = all((v + v[::-1] == v[0] + v[-1]).all() and (w == w[::-1]).all()
                for v, w in ((rows, wr), (cols, wc)))
    _check_submatrix(len(rows), len(cols), L, split)
    if not split:
        sub = wr[:, None] * np.exp(-2j * np.pi * _phases(rows, cols, L)) * wc
        return float(_top(sub)) / math.sqrt(L)
    i, j = len(rows) // 2, len(cols) // 2  # the halves s >= 0 and t >= 0
    theta = 2 * np.pi * _phases(2 * rows[i:] - rows[0] - rows[-1],
                                2 * cols[j:] - cols[0] - cols[-1], 4 * L)
    i0, j0 = len(rows) % 2, len(cols) % 2  # 1 when a centre s = 0 (t = 0)
    a, b = math.sqrt(2) * wr[i:], math.sqrt(2) * wc[j:]
    a[:i0], b[:j0] = wr[i:i + i0], wc[j:j + j0]
    even = _top(a[:, None] * np.cos(theta) * b)
    odd = _top(2 * wr[i + i0:, None] * np.sin(theta[i0:, j0:]) * wc[j + j0:])
    return float(max(even, odd)) / math.sqrt(L)


def fup_norm(X_minus, X_plus):
    """
    Largest singular value of the DFT submatrix with rows X- and
    columns X+ (the discrete model of 1_{X-} F_h 1_{X+}, h = 1/M).
    """
    if X_minus.M != X_plus.M:
        raise ValueError("sets must share a grid size")
    if not X_minus.cells or not X_plus.cells:
        return 0.0
    # sized before the indices: the split's size bounds either path's
    _check_submatrix(len(X_minus.cells), len(X_plus.cells), X_minus.M)
    rows, cols = X_minus.indices(), X_plus.indices()
    return _dft_norm(rows, cols, np.ones(len(rows)), np.ones(len(cols)),
                     X_minus.M)


def smooth_bump(t):
    """C-infinity bump exp(-1/(1-(t/3)^2)) supported on |t| < 3."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 3
    s = (t[inside] / 3) ** 2
    out[inside] = np.exp(-1.0 / (1.0 - s))
    return out


@dataclass(frozen=True)
class ScalingRun:
    kind: str
    sizes: tuple
    hs: tuple
    norms: tuple
    fitted_slope: float
    theory_slope: float


def _fit_slope(hs, norms):
    return float(np.polyfit(np.log(hs), np.log(norms), 1)[0])


def _basic_window(M, delta):
    """The bound w on |k| that holds both bump supports at size M;
    ValueError when the submatrix it bounds exceeds FUP_MAX_BYTES."""
    w = math.ceil(3 * M ** (1 - delta)) + 1
    _check_submatrix(min(2 * w + 1, M),
                     min(2 * math.ceil(w / (2 * np.pi)) + 1, M), M)
    return w


def basic_uncertainty_norm(M, delta):
    """
    Norm of chi(x / h^delta) F^{-1} chi(xi / h^delta) F at h = 1/M,
    evaluated as the SVD of the support-restricted submatrix of
    diag(chi_x) F^dagger diag(chi_xi).
    """
    h = 1.0 / M
    w = _basic_window(M, delta)
    k = np.arange(max(-w, -(M // 2)), min(w, (M - 1) // 2) + 1)
    x = k * (1.0 / M)  # np.fft.fftfreq(M)[k], bit for bit
    cx = smooth_bump(x / h ** delta)
    cxi = smooth_bump(2 * np.pi * x / h ** delta)
    rows = np.nonzero(cx)[0]
    cols = np.nonzero(cxi)[0]
    if rows.size == 0 or cols.size == 0:
        return 0.0
    return _dft_norm(k[rows], k[cols], cx[rows], cxi[cols], M)


def scaling_experiment(kind, delta=None, depths=None):
    """
    kind="basic": norms of the bump operator across M in 2^8..2^14,
    fitted slope vs the theory slope (2 delta - 1) / 2 of dimension d = 1;
    at every delta in [1/2, 1) their submatrices are far below the
    FUP_MAX_BYTES that basic_uncertainty_norm checks.
    kind="fup": Cantor-pair DFT submatrix norms across depths, fitted
    decay exponent beta (theory slope unknown; reported as nan).  It
    refuses before its first SVD: fewer than 4 distinct depths, a
    negative depth, or one whose digit test or 2^r x 2^r submatrix would
    exceed FUP_MAX_BYTES.
    """
    if kind == "basic":
        if delta is None or not 0.5 <= delta < 1:
            raise ValueError("delta must lie in [1/2, 1)")
        sizes = [2 ** e for e in range(8, 15)]
        hs = [1.0 / M for M in sizes]
        norms = [basic_uncertainty_norm(M, delta) for M in sizes]
        return ScalingRun(kind, tuple(sizes), tuple(hs), tuple(norms),
                          _fit_slope(hs, norms), (2 * delta - 1) / 2)
    if kind == "fup":
        depths = depths or list(range(4, 10))
        for r in depths:
            _check_cantor(r)
            _check_submatrix(2 ** r, 2 ** r, 3 ** r)
        sizes = [3 ** r for r in depths]
        hs = [1.0 / M for M in sizes]
        if len(set(hs)) < 4:
            raise ValueError("regression needs at least 4 distinct sizes")
        norms = []
        for r in depths:
            X = cantor_set(r)
            norms.append(fup_norm(X, X))
        return ScalingRun(kind, tuple(sizes), tuple(hs), tuple(norms),
                          _fit_slope(hs, norms), float("nan"))
    raise ValueError("kind must be 'basic' or 'fup'")
