import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import catlab
from catlab import (CycleType, SymplecticMatrix, certify_wreath, char_poly,
                    factor_type, power_scan, reciprocal_census, sample_sp,
                    sl2_census)
from catlab.galois import primes_upto, required_classes

ODD_PRIMES = primes_upto(200)[1:]


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_factor_type_basic():
    # x^2 - 3x + 1 mod 5: discriminant 5 = 0, double root
    t = factor_type([1, -3, 1], 5)
    assert t.degrees == (1, 1) and not t.squarefree
    # mod 7: discriminant 5 is a QR mod 7? 5 is not (QRs: 1,2,4) -> irreducible
    t = factor_type([1, -3, 1], 7)
    assert t.degrees == (2,) and t.squarefree
    with pytest.raises(ValueError):
        factor_type([1, 0, 1], 2)


def _sympy_factor_type(coeffs, ell):
    """Reference: degrees with multiplicity and the gcd(f, f') = 1 flag."""
    x = sympy.Symbol("x")
    f = sympy.Poly([c % ell for c in coeffs], x, modulus=ell)
    degrees = []
    for g, mult in f.factor_list()[1]:
        degrees += [g.degree()] * mult
    return tuple(sorted(degrees)), sympy.gcd(f, f.diff(x)).degree() == 0


def _assert_matches_sympy(coeffs, ell):
    t = factor_type(coeffs, ell)
    assert (t.degrees, t.squarefree) == _sympy_factor_type(coeffs, ell), \
        (coeffs, ell)


def test_factor_type_matches_sympy_on_census_sets():
    for ell in (3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            if ell ** n > 3000:
                continue
            for free in itertools.product(range(ell), repeat=n):
                coeffs = [1] + list(free) + list(reversed(free[:-1])) + [1]
                _assert_matches_sympy(coeffs, ell)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
       st.sampled_from(ODD_PRIMES))
@settings(max_examples=300, deadline=None)
def test_factor_type_matches_sympy_on_random_monic(tail, ell):
    _assert_matches_sympy([1] + tail, ell)


def test_factor_type_pth_powers():
    # f' = 0 mod ell: f = g(x^ell) = g(x)^ell
    cases = [([1, 0, 0, 1], 3, (1, 1, 1)),                    # (x + 1)^3
             ([1, 0, 0, 2, 0, 0, 1], 3, (1,) * 6),            # (x + 1)^6
             ([1, 0, 0, 0, 0, 0, 1], 3, (2, 2, 2)),           # (x^2 + 1)^3
             ([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], 5, (2,) * 5)]  # (x^2+x+1)^5
    for coeffs, ell, degrees in cases:
        assert factor_type(coeffs, ell) == CycleType(degrees, False)
        _assert_matches_sympy(coeffs, ell)


def test_import_catlab_leaves_sympy_unloaded():
    src = os.path.dirname(os.path.dirname(catlab.__file__))
    code = "import sys, catlab; assert 'sympy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_required_classes():
    assert required_classes(1) == {2}
    assert required_classes(2) == {2, 4}
    assert required_classes(3) == {2, 4, 6}


def test_certify_wreath_degree_two():
    cert = certify_wreath([1, -3, 1])
    assert cert.verdict == "certified_wreath"
    assert set(cert.witnesses) == {2}


def test_certify_wreath_contradicted_on_products():
    # (x^2 - 3x + 1)(x^2 - 7x + 1), reciprocal but reducible over Z
    import numpy.polynomial.polynomial as P
    coeffs = np.polymul([1, -3, 1], [1, -7, 1]).tolist()
    cert = certify_wreath(coeffs)
    assert cert.verdict == "contradicted"
    fac = [np.array(f) for f in cert.factorization]
    prod = fac[0]
    for f in fac[1:]:
        prod = np.polymul(prod, f)
    assert prod.tolist() == coeffs


def test_certify_wreath_rejects_non_reciprocal():
    with pytest.raises(ValueError):
        certify_wreath([1, -3, 2])
    with pytest.raises(ValueError):
        certify_wreath([1, -3, 1, 1])


def test_certify_wreath_squares_are_contradicted():
    # char poly of the square of a 4x4 block rotation composed with a
    # hyperbolic pair: (x^2 + 7x + 1)^2 factors over Z
    cert = certify_wreath([1, 14, 51, 14, 1])
    assert cert.verdict == "contradicted"
    assert tuple(sorted(cert.factorization)) == ((1, 7, 1), (1, 7, 1))


def test_reciprocal_census_main_terms():
    out = reciprocal_census(101, 2)
    assert out["total"] == 101 ** 2
    for two_k, rec in out["classes"].items():
        # count = main term + O(ell), so the normalized error is O(1/ell)
        assert rec["abs_error"] <= 4 * 101
    with pytest.raises(ValueError):
        reciprocal_census(2, 2)
    with pytest.raises(ValueError):
        reciprocal_census(101, 5)


def test_power_scan_block_rotation_pair():
    blk = SymplecticMatrix([[0, 0, 2, 1], [0, 0, 1, 1],
                            [-2, -1, 0, 0], [-1, -1, 0, 0]])
    out = power_scan(blk, 4)
    assert out["k0"] == 2
    verdicts = {r["m"]: r["verdict"] for r in out["per_m"]}
    # x^4 + 7x^2 + 1 is irreducible over Z but its Galois group has no
    # 4-cycle, so no single prime can witness irreducibility
    assert verdicts[1] == "undetermined"
    assert verdicts[2] == "reducible"
    m2 = next(r for r in out["per_m"] if r["m"] == 2)
    assert m2["coeffs"] == (1, 14, 51, 14, 1)
    assert tuple(sorted(m2["factorization"])) == ((1, 7, 1), (1, 7, 1))


def test_sl2_census_exact():
    ell = 11
    counts = sl2_census(ell)
    assert sum(counts.values()) == ell ** 3 - ell
    for t, c in counts.items():
        assert abs(c - ell ** 2) <= 2 * ell


def _sl2_census_by_meshgrid(ell):
    """The former ell^4 enumeration over all (a, b, c, d), as an oracle."""
    r = np.arange(ell)
    a, b, c, d = np.meshgrid(r, r, r, r, indexing="ij")
    det1 = (a * d - b * c) % ell == 1
    counts = np.bincount(((a + d) % ell)[det1].ravel(), minlength=ell)
    return {int(t): int(counts[t]) for t in range(ell)}


def test_sl2_census_matches_meshgrid_enumeration():
    for ell in primes_upto(31)[1:]:
        assert sl2_census(ell) == _sl2_census_by_meshgrid(ell)
    with pytest.raises(ValueError):
        sl2_census(37)
    tracemalloc.start()
    try:
        sl2_census(31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sample_sp_pinned_words():
    # recorded from the object-array np.block implementation
    assert [m.entries for m in sample_sp(2, 20, 3, seed=0)] == [
        ((4577, -12200, 4038, -7231), (-7336, 19554, -6471, 11588),
         (5043, -13443, 4449, -7966), (-4143, 11044, -3656, 6546)),
        ((636, -1452, 7919, -4930), (-372, 851, -4644, 2891),
         (905, -2069, 11299, -7034), (-434, 991, -5410, 3368)),
        ((25018, 7236, 23341, 35460), (39823, 11518, 37154, 56445),
         (19163, 5542, 17872, 27152), (12624, 3651, 11773, 17886))]
    assert [m.entries for m in sample_sp(3, 20, 2, seed=1)] == [
        ((69834, 234013, 147639, 111442, 121626, 53779),
         (123599, 414184, 261306, 197231, 215253, 95187),
         (44190, 148073, 93416, 70516, 76954, 34027),
         (100025, 335147, 211438, 159629, 174198, 77009),
         (30315, 101594, 64094, 48368, 52789, 23351),
         (25582, 85749, 54103, 40818, 44560, 19714)),
        ((2032, -14425, 7873, -10191, 3431, -10658),
         (-7364, 52318, -28539, 36942, -12442, 38624),
         (3900, -27709, 15115, -19564, 6589, -20457),
         (-7450, 52911, -28870, 37368, -12583, 39078),
         (1151, -8151, 4456, -5764, 1938, -6041),
         (-975, 6900, -3774, 4880, -1640, 5119))]


def test_sample_sp_shapes_and_determinism():
    mats = sample_sp(2, 20, 5, seed=3)
    assert len(mats) == 5
    again = sample_sp(2, 20, 5, seed=3)
    assert [m.entries for m in mats] == [m.entries for m in again]
    other = sample_sp(2, 20, 5, seed=4)
    assert [m.entries for m in mats] != [m.entries for m in other]
    # word_length 0 gives the identity
    ident = sample_sp(2, 0, 1, seed=0)[0]
    assert ident.entries == tuple(tuple(int(i == j) for j in range(4))
                                  for i in range(4))
    with pytest.raises(ValueError):
        sample_sp(4, 10, 1)
    with pytest.raises(ValueError, match="word_length"):
        sample_sp(2, -1, 1)


def test_sampled_matrices_certify_at_high_rate():
    mats = sample_sp(2, 30, 40, seed=11)
    good = 0
    for m in mats:
        cert = certify_wreath(list(char_poly(m).coeffs))
        if cert.verdict == "certified_wreath":
            good += 1
    assert good >= 38  # expect 100 percent; allow tiny slack at count 40


def test_sample_sp_other_ranks():
    for n in (1, 3):
        m = sample_sp(n, 12, 3, seed=2)[0]
        assert len(m.entries) == 2 * n
        cp = char_poly(m)
        assert cp.reciprocal
