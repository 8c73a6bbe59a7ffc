"""
End-to-end acceptance checks, one test per criterion.  Each prints a
single PASS/FAIL line with the measured quantity before asserting.
"""

import math

import numpy as np

from catlab import (S1, SymplecticMatrix, admissible_N, cantor_set,
                    certify_wreath, char_poly, egorov_defect, fup_norm,
                    metaplectic_sl2, metaplectic_adjoint,
                    overlap_closed_form, overlap_quadrature, period_phase,
                    position_density, power_scan, project_gaussian,
                    quantum_period, reciprocal_census, rotation_propagator,
                    sample_sp, scaling_experiment, semiclassical_scan,
                    sl2_census, torus_autocorrelation)
from catlab.hilbert import StateSpace
from catlab.scars import gaussian_autocorrelation
from conftest import B_CAT

BLOCK_PAIR = [[0, 0, 2, 1], [0, 0, 1, 1], [-2, -1, 0, 0], [-1, -1, 0, 0]]


def report(num, name, ok, detail):
    print("criterion %02d %s %s (%s)" % (num, "PASS" if ok else "FAIL",
                                         name, detail))
    assert ok, "criterion %d failed: %s (%s)" % (num, name, detail)


def test_01_exact_egorov(prop144):
    defect = egorov_defect(prop144, 3)
    report(1, "exact-egorov", defect < 1e-10, "defect=%.3e" % defect)


def test_02_unitarity_and_multiplicativity():
    worst_u = worst_m = 0.0
    for N in (34, 144):
        sp = StateSpace(1, N)
        M = metaplectic_sl2(sp, B_CAT).dense
        M2 = metaplectic_sl2(sp, B_CAT @ B_CAT).dense
        worst_u = max(worst_u, float(np.abs(M.conj().T @ M
                                            - np.eye(N)).max()))
        worst_m = max(worst_m, float(np.abs(M @ M - M2).max()))
    ok = worst_u < 1e-10 and worst_m < 1e-9
    report(2, "unitarity-multiplicativity", ok,
           "unitarity=%.3e multiplicativity=%.3e" % (worst_u, worst_m))


def test_03_period_law(prop144):
    periods_ok = all(
        quantum_period(B_CAT, admissible_N(B_CAT, k).value) == 2 * k
        for k in (2, 4, 6, 8, 10, 12))
    pp = period_phase(prop144, 12)
    ok = periods_ok and pp.defect < 1e-8
    report(3, "period-law", ok,
           "periods_ok=%s phase_defect=%.3e" % (periods_ok, pp.defect))


def test_04_closed_form_overlap():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        while True:
            w = rng.uniform(-2, 2, size=2)
            if float(np.hypot(*w)) <= 2:
                break
        h = 1.0 / (2 * math.pi * (34 if i % 2 == 0 else 144))
        err = abs(overlap_closed_form(B_CAT, w, h)
                  - overlap_quadrature(B_CAT, w, h))
        worst = max(worst, err)
    report(4, "closed-form-overlap", worst < 1e-8, "worst=%.3e" % worst)


def test_05_autocorrelation_identity(space144, prop144):
    # On T^2 the identity is the lattice sum over l of the plane overlaps
    # <U_l G_h, M_{B^t} G_h>; the plane value sqrt(2/(lam^t + lam^-t)) is
    # its l = 0 term alone, off by 2.6e-5 at |t| = 4 through four lattice
    # vectors with <B^-4 l, l> = 1.
    lam = (3 + math.sqrt(5)) / 2
    G = project_gaussian(space144).coeffs
    adj = metaplectic_adjoint(space144, B_CAT)
    worst = worst_plane = 0.0
    fwd = bwd = G
    for t in range(0, 5):
        target = torus_autocorrelation(B_CAT, t, 144).value
        target_bwd = torus_autocorrelation(B_CAT, -t, 144).value
        plane = gaussian_autocorrelation(lam, t)
        a, b = np.vdot(G, fwd), np.vdot(G, bwd)
        worst = max(worst, abs(a - target), abs(b - target_bwd))
        worst_plane = max(worst_plane, abs(a - plane), abs(b - plane))
        fwd = prop144.apply_array(fwd)
        bwd = adj.apply_array(bwd)
    report(5, "autocorrelation-identity", worst < 1e-6,
           "worst=%.3e over |t|<=4; plane formula off by %.3e"
           % (worst, worst_plane))


def test_06_scar_eigenresidual(scar6, tensor144, space144):
    res_tensor = scar6.eigen_residual(tensor144)
    block = tensor144.compose(rotation_propagator(StateSpace(2, 144)))
    res_block = scar6.eigen_residual(block)
    ok = res_tensor < 1e-8 and res_block < 1e-8
    report(6, "scar-eigenresidual", ok,
           "tensor=%.3e block=%.3e" % (res_tensor, res_block))


def test_07_norm_limit_trend(scar6, scar12):
    err6 = abs(scar6.norm_squared() - S1(scar6.lam))
    err12 = abs(scar12.norm_squared() - S1(scar12.lam))
    # companion, with no bound: err * lambda^k reads about 1.8 and 1.9
    report(7, "norm-limit-trend", err12 < err6,
           "err_k6=%.3e err_k12=%.3e err_k6*lam^6=%.2f err_k12*lam^12=%.2f"
           % (err6, err12, err6 * scar6.lam ** 6, err12 * scar12.lam ** 12))


def test_08_semiclassical_scan(scar6, scar12):
    worst6 = max(r[6] for r in semiclassical_scan(scar6, 2))
    worst12 = max(r[6] for r in semiclassical_scan(scar12, 2))
    ok = worst6 < 0.15 and worst12 < worst6
    # companion, with no bound: P * worst reads about 2.2 at both k
    report(8, "semiclassical-scan", ok,
           "worst_k6=%.4f worst_k12=%.4f P*worst_k6=%.4f P*worst_k12=%.4f"
           % (worst6, worst12, scar6.P * worst6, scar12.P * worst12))


def test_09_axis_band_concentration(scar6):
    N = scar6.N
    grid = position_density(scar6.materialize())
    near = np.minimum(np.arange(N), N - np.arange(N)) <= N // 16
    band = near[:, None] | near[None, :]
    mass_fraction = float(grid[band].sum() / grid.sum())
    area_fraction = float(band.mean())
    ratio = mass_fraction / area_fraction
    report(9, "axis-band-concentration", ratio > 3.0,
           "mass/area ratio=%.3f" % ratio)


def test_10_galois_census():
    worst = 0.0
    ok = True
    for ell in (5, 7, 11, 13):
        for n in (1, 2):
            census = reciprocal_census(ell, n)
            for rec in census["classes"].values():
                scaled = rec["abs_error"] / ell ** (n - 1)
                worst = max(worst, scaled)
                ok = ok and rec["abs_error"] <= 4 * ell ** (n - 1)
    report(10, "galois-census", ok, "worst error/ell^(n-1)=%.3f" % worst)


def test_11_sl2_census():
    ok = True
    worst = 0.0
    for ell in (5, 7):
        counts = sl2_census(ell)
        ok = ok and sum(counts.values()) == ell ** 3 - ell
        for c in counts.values():
            worst = max(worst, abs(c - ell ** 2) / ell)
            ok = ok and abs(c - ell ** 2) <= 2 * ell
    report(11, "sl2-census", ok, "worst |count-ell^2|/ell=%.2f" % worst)


def test_12_empirical_wreath_theorem():
    mats = sample_sp(2, 20, 500, seed=0)
    good = sum(1 for m in mats
               if certify_wreath(list(char_poly(m).coeffs)).verdict
               == "certified_wreath")
    pair_cert = certify_wreath(
        list(char_poly(SymplecticMatrix(BLOCK_PAIR)).coeffs))
    scan = power_scan(BLOCK_PAIR, 3)
    m2 = next(r for r in scan["per_m"] if r["m"] == 2)
    ok = (good >= 475
          and pair_cert.verdict != "certified_wreath"
          and scan["k0"] == 2
          and tuple(sorted(m2["factorization"])) == ((1, 7, 1), (1, 7, 1)))
    report(12, "empirical-wreath-theorem", ok,
           "certified=%d/500 pair_verdict=%s k0=%s"
           % (good, pair_cert.verdict, scan["k0"]))


def test_13_power_irreducibility():
    mats = sample_sp(2, 20, 60, seed=12)
    certified = [m for m in mats
                 if certify_wreath(list(char_poly(m).coeffs)).verdict
                 == "certified_wreath"][:50]
    assert len(certified) == 50
    bad = 0
    for m in certified:
        out = power_scan(m, 5)
        if any(r["verdict"] != "irreducible" for r in out["per_m"]):
            bad += 1
    report(13, "power-irreducibility", bad == 0,
           "non-irreducible=%d/50" % bad)


def test_14_basic_uncertainty_scaling():
    details = []
    ok = True
    for delta in (0.6, 0.75):
        run = scaling_experiment("basic", delta=delta)
        err = abs(run.fitted_slope - run.theory_slope)
        ok = ok and err < 0.1
        details.append("delta=%.2f slope=%.4f theory=%.4f"
                       % (delta, run.fitted_slope, run.theory_slope))
    report(14, "basic-uncertainty-scaling", ok, "; ".join(details))


def test_15_fup_decay():
    run = scaling_experiment("fup", depths=[4, 5, 6, 7, 8, 9])
    monotone = all(b < a for a, b in zip(run.norms, run.norms[1:]))
    ok = monotone and run.fitted_slope >= 0.05
    # companion, with no bound: r_k is submultiplicative, so by Fekete's
    # lemma beta >= -log r_10 / (10 log 3), which reads about 0.0798
    X = cantor_set(10)
    fekete = -math.log(fup_norm(X, X)) / (10 * math.log(3))
    report(15, "fup-decay", ok, "monotone=%s beta=%.4f fekete_k10=%.4f"
           % (monotone, run.fitted_slope, fekete))
