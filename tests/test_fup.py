import cmath
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import catlab
from catlab import (DiscreteSet, cantor_set, fup_norm, neighborhood,
                    porosity_check, scaling_experiment)
from catlab import fup
from catlab.fup import basic_uncertainty_norm, product_set, smooth_bump


def full_set(M, dims=1):
    return DiscreteSet(M, dims,
                       frozenset(itertools.product(range(M), repeat=dims)))


def dft_matrix(M):
    j = np.arange(M)
    return np.exp(-2j * np.pi * np.outer(j, j) / M) / math.sqrt(M)


def test_cantor_set_structure():
    X = cantor_set(3)
    assert X.M == 27
    assert len(X.cells) == 8
    idx = X.indices().tolist()
    assert idx == [0, 2, 6, 8, 18, 20, 24, 26]
    for depth in range(8):
        cells = {(j,) for j in range(3 ** depth)
                 if "1" not in np.base_repr(j, 3)}
        assert cantor_set(depth).cells == cells
    with pytest.raises(ValueError):
        cantor_set(-1)


def _refusal_peak(fn, *args, **kwargs):
    """tracemalloc peak of a call that must raise FUP_MAX_BYTES."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="FUP_MAX_BYTES"):
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_requests_refuse_before_allocating():
    # a 3^20 digit array; 2.8 GB of lines counts at depth 8; a 10^10-cell
    # mask; a 20000 x 20000 DFT submatrix (two 10^4 x 10^4 real blocks);
    # the bump window of M = 2^40, whose arrays alone would be 50 MB each
    X8 = cantor_set(8)
    XX8 = product_set(X8, X8)
    lone = DiscreteSet(10 ** 5, 2, frozenset({(0, 0)}))
    full = full_set(20000)
    for fn, args, kwargs in [
            (cantor_set, (20,), {}),
            (porosity_check, (XX8, 1 / 9, 3.0 ** -8, 1.0), {"mode": "lines"}),
            (neighborhood, (lone, 0.0), {}),
            (fup_norm, (full, full), {}),
            (basic_uncertainty_norm, (2 ** 40, 0.5), {})]:
        assert _refusal_peak(fn, *args, **kwargs) < 100_000


def test_discrete_set_validation():
    with pytest.raises(ValueError):
        DiscreteSet(4, 1, frozenset([(5,)]))
    with pytest.raises(ValueError):
        DiscreteSet(4, 2, frozenset([(1,)]))


def test_product_set_and_masks():
    X = cantor_set(2)
    XX = product_set(X, X)
    assert XX.dims == 2 and len(XX.cells) == 16
    assert XX.mask().sum() == 16


def test_neighborhood_grows_monotonically():
    X = cantor_set(3)
    n1 = neighborhood(X, 1 / 27)
    n2 = neighborhood(X, 2 / 27)
    assert X.cells <= n1.cells <= n2.cells
    assert len(n1.cells) > len(X.cells)
    assert neighborhood(X, 0.0).cells == X.cells
    with pytest.raises(ValueError):
        neighborhood(X, -0.1)


def test_cantor_is_porous_full_is_not():
    X = cantor_set(5)
    ok, ce = porosity_check(X, 1 / 9, 1 / X.M, 1.0)
    assert ok and ce is None
    F = full_set(243)
    ok, ce = porosity_check(F, 1 / 9, 1 / 243, 1.0)
    assert not ok and ce is not None
    empty = DiscreteSet(243, 1, frozenset())
    assert porosity_check(empty, 1 / 9, 1 / 243, 1.0) == (True, None)
    # arguments are checked before the empty set's trivial verdict
    with pytest.raises(ValueError):
        porosity_check(empty, 1 / 9, 1 / 243, 1.0, mode="nope")
    with pytest.raises(ValueError):
        porosity_check(empty, 1 / 9, 1 / 243, 1.0, mode="lines")


def test_neighborhood_of_porous_set_is_porous_at_half_nu():
    X = cantor_set(5)
    Y = neighborhood(X, 1.0 / X.M)
    ok, _ = porosity_check(Y, 1 / 18, 4 / X.M, 1.0)
    assert ok


def test_line_porosity_stricter_than_ball_porosity():
    # a line through a Cantor row sees 1D gaps (relative depth 1/6) while
    # 2D balls see the larger square gaps, so there is a nu band where
    # ball porosity holds but line porosity fails
    X = cantor_set(4)
    XX = product_set(X, X)
    nu = 0.2
    ok_balls, _ = porosity_check(XX, nu, 0.25, 1.0, mode="balls")
    assert ok_balls
    ok_lines, ce = porosity_check(XX, nu, 0.25, 1.0, mode="lines")
    assert not ok_lines
    dx, dy = ce["direction"]
    assert abs(math.hypot(dx, dy) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        porosity_check(X, nu, 0.25, 1.0, mode="lines")  # d = 1


def _brute_distance(X):
    """Euclidean distance (in cells) from every grid cell to X."""
    grid = np.indices((X.M,) * X.dims).reshape(X.dims, -1).T
    cells = np.array(sorted(X.cells)).reshape(-1, X.dims)
    if not len(cells):
        return np.full((X.M,) * X.dims, np.inf)
    d2 = ((grid[:, None, :] - cells[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1)).reshape((X.M,) * X.dims)


def _reference_porosity(X, nu, alpha0, alpha1, mode="balls"):
    """The per-centre loop sweep that porosity_check replaced."""
    M, d = X.M, X.dims
    dist = _brute_distance(X)
    scales = []
    R = alpha0
    while R <= alpha1 * (1 + 1e-12):
        scales.append(R)
        R *= 2
    angles = np.pi * np.arange(16) / 16
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for R in scales:
        r = max(1, int(round(R * M)))
        need = nu * R * M
        step = max(1, r // 2)
        centers = range(r, max(r + 1, M - r), step)
        if mode == "balls" and d == 1:
            for c in centers:
                if dist[max(0, c - r): c + r + 1].max() < need:
                    return False, {"R": R, "center": (c / M,)}
        elif mode == "balls":
            grids = np.indices((2 * r + 1,) * d) - r
            ball = np.sum(grids.astype(float) ** 2, axis=0) <= r * r
            for c1 in centers:
                for c2 in centers:
                    window = dist[c1 - r: c1 + r + 1, c2 - r: c2 + r + 1]
                    if window[ball[:window.shape[0], :window.shape[1]]
                              ].max() < need:
                        return False, {"R": R, "center": (c1 / M, c2 / M)}
        else:
            t = np.linspace(-r, r, max(3, 2 * r + 1))
            for c1 in centers:
                for c2 in centers:
                    center = np.array([c1, c2], dtype=float)
                    for u in dirs:
                        pts = np.round(center + t[:, None] * u).astype(int)
                        pts = pts[np.all((pts >= 0) & (pts < M), axis=1)]
                        if pts.size == 0:
                            continue
                        if dist[pts[:, 0], pts[:, 1]].max() < need:
                            return False, {"R": R,
                                           "segment_center": (c1 / M, c2 / M),
                                           "direction": tuple(u)}
    return True, None


def _random_set(rng, M, d, density):
    cells = np.argwhere(rng.random((M,) * d) < density)
    return DiscreteSet(M, d, frozenset(map(tuple, cells)))


def test_porosity_check_matches_reference_sweep():
    cases = [(cantor_set(k), 1 / 9, 3.0 ** -k, "balls") for k in range(1, 7)]
    cases.append((full_set(81), 1 / 9, 1 / 81, "balls"))
    for k in range(1, 4):
        XX = product_set(cantor_set(k), cantor_set(k))
        cases += [(XX, nu, 3.0 ** -k, mode) for nu in (1 / 9, 0.3)
                  for mode in ("balls", "lines")]
    rng = np.random.default_rng(0)
    for i in range(24):
        d = 1 + i % 2
        M = int(rng.integers(3, 50 if d == 1 else 24))
        cases.append((_random_set(rng, M, d, rng.uniform(0.02, 0.5)),
                      float(rng.uniform(0.05, 0.6)),
                      float(rng.uniform(0.02, 0.3)),
                      "lines" if d == 2 and i % 4 == 1 else "balls"))
    # alpha0 = 2^-i reaches R = 1, r = M, where the one sampled centre is
    # the corner (M, ..., M)
    rng = np.random.default_rng(1)
    for alpha0 in (1 / 4, 1 / 2, 1.0):
        for i in range(12):
            d = 1 + i % 2
            M = int(rng.integers(2, 30 if d == 1 else 12))
            cases.append((_random_set(rng, M, d, rng.uniform(0.02, 0.5)),
                          float(rng.uniform(0.05, 0.6)), alpha0,
                          "lines" if i % 4 == 1 else "balls"))
    verdicts = set()
    for X, nu, alpha0, mode in cases:
        got = porosity_check(X, nu, alpha0, 1.0, mode=mode)
        assert got == _reference_porosity(X, nu, alpha0, 1.0, mode), \
            (X.M, X.dims, nu, alpha0, mode)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_lines_counterexample_skips_segments_off_the_grid():
    # At R = 1 the first sampled centre is (M, M), off the grid: the
    # direction-0 segment there has no cell in the grid and is skipped,
    # so the counterexample is direction 1.
    XX = product_set(cantor_set(4), cantor_set(4))
    got = porosity_check(XX, 0.2, 0.25, 1.0, mode="lines")
    assert got == _reference_porosity(XX, 0.2, 0.25, 1.0, "lines")
    ok, ce = got
    assert not ok and ce["R"] == 1.0 and ce["segment_center"] == (1.0, 1.0)
    assert ce["direction"] == (math.cos(math.pi / 16), math.sin(math.pi / 16))


def test_sampled_windows_meet_the_grid_but_at_the_corner():
    # porosity_check reads the window-meets-grid count only at its sampled
    # centres: every one is a grid cell, whose window holds offset 0, but
    # the corner (M, ..., M) at r = M, whose window meets the grid iff the
    # stencil has a cell with every offset v_i < 0.  Checked against the
    # FFT count of the all-ones mask at every scale r = 2^i of the CLI's
    # default sweep and at r = M; lines miss at the corner.
    missed = set()
    for depth in (3, 4, 5):
        M = 3 ** depth
        for r in [2 ** i for i in range(M.bit_length())] + [M]:
            centers = np.arange(r, max(r + 1, M - r), max(1, r // 2))
            for kind, stencils in [
                    ("balls d=1", (fup._norm2(r, 1) <= r * r)[..., None]),
                    ("balls d=2", (fup._norm2(r, 2) <= r * r)[..., None]),
                    ("lines", fup._segments(r))]:
                d = stencils.ndim - 1
                ones = np.ones((M,) * d, dtype=bool)
                meets = fup._hits(ones, stencils) > 0
                if r < M:
                    assert centers.max() < M, (depth, r)
                    assert meets[np.ix_(*[centers] * d)].all(), \
                        (depth, r, kind)
                    continue
                assert centers.tolist() == [M]
                corner = stencils[(slice(0, r),) * d].any(axis=tuple(range(d)))
                assert np.array_equal(meets[(M,) * d], corner), (depth, kind)
                if not corner.all():
                    missed.add(kind)
    assert missed == {"lines"}


def test_stencil_counts_refuse_inexact_fft(monkeypatch):
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *a: irfftn(*a) + 0.3)
    with pytest.raises(RuntimeError):
        porosity_check(cantor_set(3), 1 / 9, 1 / 27, 1.0)


def test_segments_move_with_integer_centres():
    # rasterising t u (|t| <= 3^7) once serves every integer centre,
    # because t u stays clear of half-integers
    angles = np.pi * np.arange(16) / 16
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tu = np.arange(1, 3 ** 7 + 1)[:, None, None] * u
    assert np.abs(tu - np.floor(tu) - 0.5).min() > 2e-5
    for c in (1, 728, 3 ** 7):
        assert np.array_equal(np.round(c + tu), c + np.round(tu))


def test_neighborhood_matches_brute_force_dilation():
    rng = np.random.default_rng(1)
    sets = [cantor_set(3), _random_set(rng, 40, 1, 0.1),
            product_set(cantor_set(2), cantor_set(2)),
            _random_set(rng, 13, 2, 0.05)]
    for X in sets:
        for delta in (0.0, 0.03, 0.1, 0.3, 1.5):
            r = math.ceil(delta * X.M)
            dilated = np.argwhere(_brute_distance(X) <= r)
            assert neighborhood(X, delta).cells == set(map(tuple, dilated))


def test_import_catlab_loads_only_numpy():
    src = os.path.dirname(os.path.dirname(catlab.__file__))
    code = ("import sys; before = set(sys.modules); import catlab; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "new -= set(sys.stdlib_module_names) | {'catlab', 'numpy'}; "
            "assert not new, sorted(new)")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_dft_unitary_and_fup_norm_bounds():
    F = dft_matrix(16)
    assert np.abs(F.conj().T @ F - np.eye(16)).max() < 1e-12
    X = cantor_set(3)
    v = fup_norm(X, X)
    assert 0 < v <= 1 + 1e-12
    full = full_set(27)
    assert abs(fup_norm(full, full) - 1.0) < 1e-12
    empty = DiscreteSet(27, 1, frozenset())
    assert fup_norm(empty, X) == 0.0
    # submatrix norm agrees with masking the full DFT
    F27 = dft_matrix(27)
    masked = F27[np.ix_(X.indices(), X.indices())]
    assert abs(v - np.linalg.svd(masked, compute_uv=False)[0]) < 1e-12


def test_smooth_bump_support_and_smoothness():
    t = np.array([-3.5, -3.0, 0.0, 2.999, 3.0])
    vals = smooth_bump(t)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[4] == 0.0
    assert vals[2] == math.exp(-1.0)
    assert 0 < vals[3] < 1e-100 or vals[3] >= 0


def test_fup_scaling_beta_positive_and_stable():
    run = scaling_experiment("fup", depths=[4, 5, 6, 7])
    assert run.fitted_slope > 0.05
    assert all(b < a for a, b in zip(run.norms, run.norms[1:]))
    assert abs(run.fitted_slope - 0.0867) < 0.02


def test_basic_scaling_matches_theory():
    for delta, tol in [(0.6, 0.03), (0.75, 0.03)]:
        run = scaling_experiment("basic", delta=delta)
        assert abs(run.fitted_slope - run.theory_slope) < tol
    with pytest.raises(ValueError):
        scaling_experiment("basic", delta=0.4)
    with pytest.raises(ValueError, match="delta"):
        scaling_experiment("basic")  # delta defaults to None
    with pytest.raises(ValueError):
        scaling_experiment("nope")


def _complex_norm(rows, cols, wr, wc, M):
    """The complex SVD of the weighted DFT submatrix, integer phases."""
    q = np.outer(np.array(rows, dtype=object), np.array(cols, dtype=object))
    sub = np.exp(-2j * np.pi * (q % M / M).astype(float))
    sub = np.asarray(wr)[:, None] * sub * np.asarray(wc)
    return np.linalg.svd(sub, compute_uv=False)[0] / math.sqrt(M)


def _blocks(monkeypatch):
    """Records the dtype of every block whose top singular value is taken."""
    kinds = []
    top = fup._top
    monkeypatch.setattr(fup, "_top",
                        lambda b: kinds.append(b.dtype.kind) or top(b))
    return kinds


def _sets(M, *cells):
    return [DiscreteSet(M, 1, frozenset(c)) for c in cells]


def test_split_norm_matches_integer_phase_svd(monkeypatch):
    kinds = _blocks(monkeypatch)
    cases = [(cantor_set(k), cantor_set(k)) for k in range(9)]
    cases.append((full_set(30), full_set(30)))
    cases.append(tuple(_sets(31, {2, 9, 15, 21, 28}, {2, 9, 15, 21, 28})))
    # centres 10 and 5.5: a half-integer centre needs the modulus 4M
    cases.append(tuple(_sets(40, {3, 4, 10, 16, 17}, {2, 5, 6, 9})))
    for X, Y in cases:
        r, c = X.indices(), Y.indices()
        ref = _complex_norm(r, c, np.ones(len(r)), np.ones(len(c)), X.M)
        assert abs(fup_norm(X, Y) - ref) <= 1e-14 * ref, (X.M, r, c)
    assert set(kinds) == {"f"}
    del kinds[:]
    X, Y = _sets(40, {1, 2, 7, 30}, {3, 4, 10, 16, 17})  # X is asymmetric
    ref = _complex_norm(X.indices(), Y.indices(), np.ones(4), np.ones(5), 40)
    assert abs(fup_norm(X, Y) - ref) <= 1e-14 * ref
    assert kinds == ["c"]


def test_basic_split_matches_integer_phase_svd(monkeypatch):
    kinds = _blocks(monkeypatch)
    for M in (16, 1000, 16384):
        for delta in (0.5, 0.6, 0.75, 0.99):
            del kinds[:]
            # the parent's full-length fftfreq construction of the supports
            h = 1.0 / M
            cx = smooth_bump(np.fft.fftfreq(M) / h ** delta)
            cxi = smooth_bump(2 * np.pi * np.fft.fftfreq(M) / h ** delta)
            rows, cols = np.nonzero(cx)[0], np.nonzero(cxi)[0]
            ref = _complex_norm(rows, cols, cx[rows], cxi[cols], M)
            got = basic_uncertainty_norm(M, delta)
            assert abs(got - ref) <= 1e-14 * ref, (M, delta)
            # the x support reaches the Nyquist index -M/2 only at M = 16
            nyquist = cx[M // 2] > 0
            assert nyquist == (M == 16 and delta <= 0.6)
            assert kinds == (["c"] if nyquist else ["f", "f"])


def test_depth_8_norm_has_integer_phase_accuracy():
    # float phases 2 pi (x y) / M were 1.3e-14 off here
    X = cantor_set(8)
    r = X.indices()
    ref = _complex_norm(r, r, np.ones(len(r)), np.ones(len(r)), X.M)
    assert abs(fup_norm(X, X) - ref) <= 2e-15


def test_fup_norm_phases_are_exact_beyond_int64():
    # at M = 3^30, x y reaches 4e28: int64 products wrap, and float phases
    # lose the residue; the reference reduces each x y in Python integers
    M = 3 ** 30
    c = M // 2
    pairs = [({c - 10 ** 13, c, c + 10 ** 13},
              {10 ** 14 - 7 * 10 ** 12, 10 ** 14, 10 ** 14 + 7 * 10 ** 12}),
             ({7, 10 ** 13, 2 * 10 ** 14}, {3, M // 3, M - 5})]
    for A, B in pairs:
        sub = np.array([[cmath.exp(-2j * math.pi * (x * y % M) / M)
                         for y in sorted(B)] for x in sorted(A)])
        ref = np.linalg.svd(sub, compute_uv=False)[0] / math.sqrt(M)
        got = fup_norm(*_sets(M, A, B))
        assert abs(got - ref) <= 1e-14 * ref
