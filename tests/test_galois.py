import itertools
import os
import random
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
import catlab.galois
from catlab.galois import (_integer_factorization, _reciprocal_class,
                           _trace_poly, primes_upto, required_classes)

ODD_PRIMES = primes_upto(200)[1:]


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == primes_upto(0) == []
    with pytest.raises(ValueError, match="prime bound"):
        primes_upto(-5)


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


def _witness_class(ctype, two_n):
    """2k when the pattern is one degree-2k factor times distinct linears."""
    if not ctype.squarefree:
        return None
    linear = sum(1 for d in ctype.degrees if d == 1)
    big = [d for d in ctype.degrees if d > 1]
    if len(big) == 1 and linear == two_n - big[0]:
        return big[0]
    return None


def _palindrome(lead, free):
    return [lead] + list(free) + list(reversed(free[:-1])) + [lead]


def _assert_class_matches_factoring(coeffs, ell):
    # factor_type, checked against sympy above, is the oracle
    expect = _witness_class(factor_type(coeffs, ell), len(coeffs) - 1)
    assert _reciprocal_class(_trace_poly(coeffs), ell) == expect, (coeffs, ell)


def test_trace_poly_is_exact():
    x = sympy.Symbol("x")
    rng = random.Random(4)
    for n in range(1, 7):
        for _ in range(5):
            coeffs = _palindrome(rng.randint(1, 9) * rng.choice((1, -1)),
                                 [rng.randint(-99, 99) for _ in range(n)])
            g = _trace_poly(coeffs)
            assert len(g) == n + 1 and g[0] == coeffs[0]
            # x^n g(x + 1/x) = f(x)
            lifted = sum(c * (x * x + 1) ** (n - i) * x ** i
                         for i, c in enumerate(g))
            assert sympy.Poly(lifted, x).all_coeffs() == coeffs
    assert _trace_poly([1, -3, 1]) == [1, -3]
    assert _trace_poly([1, 0, 7, 0, 1]) == [1, 0, 5]  # y^2 - 2 + 7


def test_reciprocal_class_on_every_small_palindrome():
    for ell, n in itertools.product((3, 5, 7, 11, 13), (1, 2, 3)):
        for free in itertools.product(range(ell), repeat=n):
            _assert_class_matches_factoring(_palindrome(1, free), ell)
    # n = 4 reaches a cofactor of degree 4, whose irreducibility the
    # Legendre symbols alone cannot decide
    for ell in (3, 5):
        for free in itertools.product(range(ell), repeat=4):
            _assert_class_matches_factoring(_palindrome(1, free), ell)


def test_reciprocal_class_on_random_palindromes():
    rng = random.Random(10)
    for ell in ODD_PRIMES:
        for n in range(1, 6):
            for _ in range(3):
                free = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
                _assert_class_matches_factoring(_palindrome(1, free), ell)
                # non-monic, and with ell dividing the leading coefficient
                free = [rng.randint(-99, 99) for _ in range(n)]
                lead = rng.choice([v for v in range(-20, 21) if v])
                _assert_class_matches_factoring(_palindrome(lead, free), ell)
                _assert_class_matches_factoring(
                    _palindrome(ell * rng.randint(1, 3), free), ell)


def test_reciprocal_class_on_ramified_and_repeated_factors():
    rng = random.Random(2)
    base = [_palindrome(1, [rng.randint(-9, 9) for _ in range(m)])
            for m in (1, 1, 2, 2, 3)]
    cases = []
    for q in base:
        cases += [np.polymul([1, -2, 1], q),   # (x - 1)^2 q: f(1) = 0
                  np.polymul([1, 2, 1], q),    # (x + 1)^2 q: f(-1) = 0
                  np.polymul(q, q)]            # a repeated factor
    for q, r in itertools.combinations(base, 2):
        cases.append(np.polymul(q, r))
    for coeffs in cases:
        for ell in ODD_PRIMES[:12]:
            _assert_class_matches_factoring([int(c) for c in coeffs], ell)


def test_classifier_replaces_factoring(monkeypatch):
    # for n <= 3 no cofactor reaches degree 4, so no prime is factored
    def refuse(coeffs, ell):
        raise AssertionError("factor_type called")

    monkeypatch.setattr(catlab.galois, "factor_type", refuse)
    for m in sample_sp(3, 20, 4, seed=0):
        certify_wreath(list(char_poly(m).coeffs))
    reciprocal_census(7, 3)
    power_scan(BLOCK_PAIR, 2)


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


BLOCK_PAIR = [[0, 0, 2, 1], [0, 0, 1, 1], [-2, -1, 0, 0], [-1, -1, 0, 0]]


def test_power_scan_block_rotation_pair():
    out = power_scan(SymplecticMatrix(BLOCK_PAIR), 4)
    assert out["k0"] == 2
    verdicts = {r["m"]: r["verdict"] for r in out["per_m"]}
    # x^4 + 7x^2 + 1 is irreducible over Z but its Galois group has no
    # 4-cycle, so no single prime can witness irreducibility
    assert verdicts[1] == "undetermined"
    assert verdicts[2] == "reducible"
    m2 = next(r for r in out["per_m"] if r["m"] == 2)
    assert m2["coeffs"] == (1, 14, 51, 14, 1)
    assert tuple(sorted(m2["factorization"])) == ((1, 7, 1), (1, 7, 1))


def _power_scan_per_prime(A, m_max):
    """power_scan's own search: the first odd prime witnessing a 2n-cycle,
    else an integer factorization."""
    A, results, k0 = SymplecticMatrix(A), [], None
    Am = A
    for m in range(1, m_max + 1):
        coeffs = list(char_poly(Am).coeffs)
        g = _trace_poly(coeffs)
        witness = next((ell for ell in ODD_PRIMES
                        if _reciprocal_class(g, ell) == len(coeffs) - 1),
                       None)
        zfac = None if witness else _integer_factorization(coeffs)
        if zfac is not None:
            k0 = m if k0 is None else k0
            results.append({"m": m, "coeffs": tuple(coeffs),
                            "verdict": "reducible", "factorization": zfac})
        else:
            results.append({"m": m, "coeffs": tuple(coeffs), "verdict":
                            "irreducible" if witness else "undetermined",
                            "witness": witness})
        Am = Am @ A
    return {"per_m": results, "k0": k0}


def test_power_scan_matches_a_per_prime_witness_search():
    # certify_wreath records each class at its first prime and scans on
    # until 2n has one, so its 2n witness is the first prime's
    words = [BLOCK_PAIR] + [m.entries for m in sample_sp(2, 4, 20, seed=1)]
    verdicts = set()
    for A in words:
        got = power_scan(A, 5)
        assert got == _power_scan_per_prime(A, 5), A
        verdicts |= {r["verdict"] for r in got["per_m"]}
    assert verdicts == {"irreducible", "reducible", "undetermined"}


def test_degenerate_arguments_raise():
    with pytest.raises(ValueError, match="leading coefficient"):
        certify_wreath([0, 0, 0])
    with pytest.raises(ValueError, match="leading coefficient"):
        certify_wreath([0, 1, 0])
    with pytest.raises(ValueError, match="prime bound"):
        certify_wreath([1, -3, 1], prime_bound=-5)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            reciprocal_census(5, n)
    for m_max in (0, -2):
        with pytest.raises(ValueError, match="m_max"):
            power_scan(BLOCK_PAIR, m_max)
    # a non-monic palindrome with a nonzero leading coefficient is allowed
    assert certify_wreath([2, -3, 2]).verdict == "certified_wreath"


def _cert_pin(cert):
    """(verdict, last prime scanned, {class: prime}) of a degree-6 input."""
    assert cert.primes_scanned == tuple(ODD_PRIMES[:len(cert.primes_scanned)])
    for cls, (_, degrees) in cert.witnesses.items():
        assert degrees == (1,) * (6 - cls) + (cls,)
    return (cert.verdict, cert.primes_scanned[-1],
            {cls: ell for cls, (ell, _) in cert.witnesses.items()})


def test_pinned_certificates():
    # recorded when every prime's reduction was factored by factor_type
    cert = certify_wreath([1, -3, 1])
    assert (cert.verdict, cert.primes_scanned, cert.witnesses) == \
        ("certified_wreath", (3,), {2: (3, (2,))})
    pins = [("certified_wreath", 61, {6: 13, 4: 53, 2: 61}),
            ("certified_wreath", 17, {4: 7, 2: 13, 6: 17}),
            ("certified_wreath", 47, {6: 3, 2: 19, 4: 47}),
            ("certified_wreath", 83, {6: 5, 4: 37, 2: 83}),
            ("certified_irreducible_only", 199, {6: 3, 4: 31}),
            ("certified_wreath", 37, {4: 13, 6: 17, 2: 37}),
            ("certified_wreath", 131, {6: 17, 4: 37, 2: 131}),
            ("certified_wreath", 41, {6: 7, 4: 13, 2: 41})]
    got = [_cert_pin(certify_wreath(list(char_poly(m).coeffs)))
           for m in sample_sp(3, 20, 8, seed=0)]
    assert got == pins


def test_pinned_censuses_and_power_scan():
    def counts(census):
        return (census["total"], census["other"],
                {c: rec["count"] for c, rec in census["classes"].items()})

    assert counts(reciprocal_census(13, 2)) == (169, 97, {2: 30, 4: 42})
    assert counts(reciprocal_census(7, 3)) == (343, 260,
                                               {2: 3, 4: 24, 6: 56})
    def undetermined(m, coeffs):
        return {"m": m, "coeffs": coeffs, "verdict": "undetermined",
                "witness": None}

    def reducible(m, coeffs, factor):
        return {"m": m, "coeffs": coeffs, "verdict": "reducible",
                "factorization": (factor, factor)}

    assert power_scan(BLOCK_PAIR, 5) == {"k0": 2, "per_m": [
        undetermined(1, (1, 0, 7, 0, 1)),
        reducible(2, (1, 14, 51, 14, 1), (1, 7, 1)),
        undetermined(3, (1, 0, 322, 0, 1)),
        reducible(4, (1, -94, 2211, -94, 1), (1, -47, 1)),
        undetermined(5, (1, 0, 15127, 0, 1))]}


def _counted_factor_type(monkeypatch):
    """Counts the calls of factor_type from inside catlab.galois."""
    calls = []

    def counted(coeffs, ell):
        calls.append(ell)
        return factor_type(coeffs, ell)

    monkeypatch.setattr(catlab.galois, "factor_type", counted)
    return calls


@pytest.mark.parametrize("ell,n", [(3, 4), (3, 5), (5, 4), (7, 3), (13, 2)])
def test_batched_census_matches_reciprocal_class(monkeypatch, ell, n):
    # _reciprocal_class on every palindrome is the oracle, for the counts
    # and for the rows it factors, which the census must factor too
    calls = _counted_factor_type(monkeypatch)
    want = {2 * k: 0 for k in range(1, n + 1)}
    for free in itertools.product(range(ell), repeat=n):
        cls = _reciprocal_class(_trace_poly(_palindrome(1, free)), ell)
        if cls is not None:
            want[cls] += 1
    loop_calls = len(calls)
    calls.clear()
    out = reciprocal_census(ell, n)
    assert {c: rec["count"] for c, rec in out["classes"].items()} == want
    assert out["other"] == ell ** n - sum(want.values())
    assert len(calls) == loop_calls
    assert (loop_calls > 0) == (n >= 4)


def test_census_blocks_agree(monkeypatch):
    whole = [reciprocal_census(ell, n) for ell, n in [(3, 5), (7, 3)]]
    for entries in (1, 20, 100):  # one row per block, then a few rows
        monkeypatch.setattr(catlab.galois, "_CENSUS_BLOCK_ENTRIES", entries)
        assert [reciprocal_census(ell, n)
                for ell, n in [(3, 5), (7, 3)]] == whole


def test_census_memory_is_one_block():
    # 47^3 = 103,823 polynomials: their value table alone would be
    # 39 MB of int64; the blocks hold 8 bytes per entry, and the census
    # peaks at 2.6 blocks
    block = 8 * catlab.galois._CENSUS_BLOCK_ENTRIES
    tracemalloc.start()
    try:
        out = reciprocal_census(47, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["total"] == 47 ** 3
    assert peak < 4 * block


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


def _letters(n, word_length, count, seed):
    """
    The letters of sample_sp's words as SymplecticMatrix, from the same
    draws: upper [[I, +-S], [0, I]] and lower [[I, 0], [+-S, I]] in
    block coordinates, taken to interleaved ones.
    """
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    pool = []
    for bits in itertools.product((0, 1), repeat=len(positions)):
        S = np.zeros((n, n), dtype=object)
        for (i, j), bit in zip(positions, bits):
            S[i, j] = S[j, i] = bit
        if any(bits):
            pool.append(S)
    perm = [k for i in range(n) for k in (i, n + i)]
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(count):
        sign = 1 if rng.integers(2) == 0 else -1
        side = int(rng.integers(2))
        word = []
        for step in range(word_length):
            S = sign * pool[int(rng.integers(len(pool)))]
            L = np.eye(2 * n, dtype=object)
            if (step + side) % 2 == 0:
                L[:n, n:] = S
            else:
                L[n:, :n] = S
            word.append(SymplecticMatrix(L[np.ix_(perm, perm)].tolist()))
        words.append(word)
    return words


def test_sample_sp_is_the_exact_product_of_its_letters():
    # entries pass 2^63 (7.2e23 here), so they must stay Python ints
    mats = sample_sp(3, 80, 3, seed=0)
    assert max(abs(v) for m in mats for row in m.entries for v in row) > 2 ** 63
    for m, word in zip(mats, _letters(3, 80, 3, 0)):
        product = word[0]
        for letter in word[1:]:
            product = product @ letter
        assert m.entries == product.entries
    for n in (1, 2):
        for m, word in zip(sample_sp(n, 9, 4, seed=3), _letters(n, 9, 4, 3)):
            product = word[0]
            for letter in word[1:]:
                product = product @ letter
            assert m.entries == product.entries


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
