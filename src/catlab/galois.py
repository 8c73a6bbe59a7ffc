"""
Finite-field certification of Galois groups of reciprocal polynomials.

For A in Sp(2n,Z) the characteristic polynomial is monic reciprocal of
degree 2n and its Galois group embeds in the hyperoctahedral group
S_2 wr S_n.  A squarefree factorization mod ell whose pattern is one
irreducible factor of degree 2k times distinct linear factors witnesses
a (2k)-cycle of Frobenius; collecting the classes {2, 4, 2n-2, 2n}
(as a set of distinct values) certifies the full wreath product.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np


def primes_upto(bound):
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def _is_odd_prime(ell):
    return ell > 2 and ell % 2 == 1 and all(
        ell % d for d in range(3, math.isqrt(ell) + 1, 2))


@dataclass(frozen=True)
class CycleType:
    degrees: tuple  # sorted multiset of irreducible factor degrees
    squarefree: bool


# Polynomials over F_p are lists of coefficients in range(p), lowest
# degree first, with no trailing zeros; [] is the zero polynomial.

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b."""
    a, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = q[i - db] = a[i] * inv % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return q, _trim(a[:db])


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _monic_gcd(a, b, p):
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _divmod([c % p for c in prod], f, p)[1]


def _squarefree_parts(f, p):
    """
    Squarefree decomposition of a monic f: pairs (g, m) with f the
    product of the g^m and every g squarefree (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 14).
    """
    deriv = _trim([i * c % p for i, c in enumerate(f)][1:])
    c = _monic_gcd(f, deriv, p)  # f itself when f' = 0
    w = _divmod(f, c, p)[0]
    parts, m = [], 1
    while len(w) > 1:
        y = _monic_gcd(w, c, p)
        if len(y) < len(w):
            parts.append((_divmod(w, y, p)[0], m))
        w, c, m = y, _divmod(c, y, p)[0], m + 1
    if len(c) > 1:
        # what is left is g(x^p) = g(x)^p over F_p
        parts += [(g, m * p) for g, m in _squarefree_parts(c[::p], p)]
    return parts


def _distinct_degrees(f, p):
    """
    Irreducible factor degrees of a squarefree monic f: the degree-d
    factors multiply to gcd(f, x^(p^d) - x) once those of lower degree
    are divided out (Modern Computer Algebra, section 14.2).
    """
    degrees, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        frob = [1]  # h^p mod f by square-and-multiply
        for bit in bin(p)[2:]:
            frob = _mulmod(frob, frob, f, p)
            if bit == "1":
                frob = _mulmod(frob, h, f, p)
        h = frob
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = _monic_gcd(f, _trim(h_minus_x), p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def factor_type(coeffs, ell):
    """
    Factorization type of a monic integer polynomial mod an odd prime:
    sorted factor degrees with multiplicity, plus a squarefree flag
    (gcd(f, f') = 1).  Only degrees are computed: a squarefree
    decomposition, then distinct-degree factorization of each part.
    """
    if not _is_odd_prime(ell):
        raise ValueError("ell must be an odd prime")
    f = _trim([int(c) % ell for c in reversed(coeffs)])
    if not f:
        return CycleType(degrees=(), squarefree=False)
    parts = _squarefree_parts(_monic(f, ell), ell)
    degrees = [d for g, m in parts for d in _distinct_degrees(g, ell) * m]
    return CycleType(degrees=tuple(sorted(degrees)),
                     squarefree=all(m == 1 for _, m in parts))


def _witness_class(ctype, two_n):
    """2k when the pattern is one degree-2k factor times distinct linears."""
    if not ctype.squarefree:
        return None
    linear = sum(1 for d in ctype.degrees if d == 1)
    big = [d for d in ctype.degrees if d > 1]
    if len(big) == 1 and linear == two_n - big[0]:
        return big[0]
    return None


def _integer_factorization(coeffs):
    """Nontrivial monic integer factorization, or None if irreducible."""
    import sympy  # only factorization over Z needs it
    x = sympy.Symbol("x")
    f = sympy.Poly(coeffs, x, domain="ZZ")
    content, factors = f.factor_list()
    if len(factors) == 1 and factors[0][1] == 1:
        return None
    parts = []
    for poly, mult in factors:
        parts.extend([tuple(int(c) for c in poly.all_coeffs())] * mult)
    # multiply-back verification, exact
    prod = sympy.Poly([int(content)], x, domain="ZZ")
    for p in parts:
        prod = prod * sympy.Poly(list(p), x, domain="ZZ")
    assert prod == f, "integer factorization failed to multiply back"
    return tuple(parts)


@dataclass(frozen=True)
class GaloisCertificate:
    verdict: str  # certified_wreath | certified_irreducible_only |
    #               undetermined | contradicted
    primes_scanned: tuple
    witnesses: dict
    factorization: tuple = None  # set on contradicted verdicts


def required_classes(n):
    if n == 1:
        return {2}
    return {2, 4, 2 * n - 2, 2 * n}


def certify_wreath(coeffs, prime_bound=200):
    """
    Scans odd primes up to prime_bound, collecting cycle-class witnesses
    from squarefree reductions of a monic reciprocal polynomial.  Only
    when no prime witnesses irreducibility does it factor over Z; a
    reducible input is "contradicted" with no primes reported.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg % 2 != 0 or deg < 2:
        raise ValueError("degree must be even and at least 2")
    if coeffs != coeffs[::-1]:
        raise ValueError("polynomial must be reciprocal")
    need = required_classes(deg // 2)
    witnesses = {}
    scanned = []
    for ell in primes_upto(prime_bound):
        if ell == 2:
            continue
        scanned.append(ell)
        ctype = factor_type(coeffs, ell)
        cls = _witness_class(ctype, deg)
        if cls is not None and cls not in witnesses:
            witnesses[cls] = (ell, ctype.degrees)
        if need <= set(witnesses):
            return GaloisCertificate(verdict="certified_wreath",
                                     primes_scanned=tuple(scanned),
                                     witnesses=witnesses)
    if deg in witnesses:
        # a monic polynomial irreducible mod ell is irreducible over Z
        return GaloisCertificate(verdict="certified_irreducible_only",
                                 primes_scanned=tuple(scanned),
                                 witnesses=witnesses)
    zfac = _integer_factorization(coeffs)
    if zfac is not None:
        return GaloisCertificate(verdict="contradicted", primes_scanned=(),
                                 witnesses={}, factorization=zfac)
    return GaloisCertificate(verdict="undetermined",
                             primes_scanned=tuple(scanned),
                             witnesses=witnesses)


def reciprocal_census(ell, n):
    """
    Enumerates all ell^n monic reciprocal polynomials of degree 2n over
    F_ell, classifying each; returns {"total": ell^n, "classes": {2k:
    {"count", "main_term", "abs_error"}}, "other": remainder}.
    """
    if not _is_odd_prime(ell):
        raise ValueError("ell must be an odd prime")
    if ell ** n > 10 ** 7:
        raise ValueError("census guard exceeded (ell^n > 1e7)")
    counts = {2 * k: 0 for k in range(1, n + 1)}
    total = 0
    for free in itertools.product(range(ell), repeat=n):
        # palindromic coefficient vector [1, a1, ..., an, ..., a1, 1]
        coeffs = [1] + list(free) + list(reversed(free[:-1])) + [1]
        total += 1
        cls = _witness_class(factor_type(coeffs, ell), 2 * n)
        if cls is not None:
            counts[cls] += 1
    classes = {}
    for k in range(1, n + 1):
        main = ell ** n / (2 ** (n - k + 1) * k *
                           math.factorial(n - k))
        classes[2 * k] = {
            "count": counts[2 * k],
            "main_term": float(main),
            "abs_error": abs(counts[2 * k] - float(main)),
        }
    return {"total": total, "classes": classes,
            "other": total - sum(counts.values())}


def power_scan(A, m_max, prime_bound=200):
    """
    For m = 1..m_max: certify char(A^m) irreducible via a 2n-cycle
    witness, or reducible via an exact integer factorization; k0 is the
    least certified-reducible m (None when undetermined beyond m_max).
    """
    from .symplectic import SymplecticMatrix, char_poly
    if not isinstance(A, SymplecticMatrix):
        A = SymplecticMatrix(A)
    results = []
    k0 = None
    Am = A
    for m in range(1, m_max + 1):
        coeffs = list(char_poly(Am).coeffs)
        witness = next((ell for ell in primes_upto(prime_bound) if ell > 2
                        and factor_type(coeffs, ell).degrees
                        == (len(coeffs) - 1,)), None)
        zfac = None if witness else _integer_factorization(coeffs)
        if zfac is not None:
            if k0 is None:
                k0 = m
            results.append({"m": m, "coeffs": tuple(coeffs),
                            "verdict": "reducible", "factorization": zfac})
        else:
            verdict = "irreducible" if witness else "undetermined"
            results.append({"m": m, "coeffs": tuple(coeffs),
                            "verdict": verdict, "witness": witness})
        Am = Am @ A
    return {"per_m": results, "k0": k0}


def sl2_census(ell):
    """
    Brute-force counts of {A in SL(2, F_ell)} bucketed by trace; the
    count for every trace t is within 2*ell of ell^2 and totals
    |SL(2, F_ell)| = ell^3 - ell.
    """
    if not _is_odd_prime(ell):
        raise ValueError("ell must be an odd prime")
    if ell > 31:
        raise ValueError("census guard exceeded (ell > 31)")
    r = np.arange(ell)
    a, b, c, d = np.meshgrid(r, r, r, r, indexing="ij")
    det1 = (a * d - b * c) % ell == 1
    traces = (a + d) % ell
    counts = np.bincount(traces[det1].ravel(), minlength=ell)
    assert counts.sum() == ell ** 3 - ell
    return {int(t): int(counts[t]) for t in range(ell)}


def _interleave(block_matrix, n):
    """Reorders (x1..xn, xi1..xin) block coordinates to interleaved."""
    perm = []
    for i in range(n):
        perm.extend([i, n + i])
    return block_matrix[np.ix_(perm, perm)]


def _shear_pool(n):
    """All nonzero symmetric n x n 0/1 matrices."""
    pool = []
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in itertools.product((0, 1), repeat=len(positions)):
        if not any(bits):
            continue
        S = np.zeros((n, n), dtype=object)
        for (i, j), bit in zip(positions, bits):
            S[i, j] = S[j, i] = bit
        pool.append(S)
    return pool


def sample_sp(n, word_length, count, seed=0):
    """
    Deterministic pseudorandom words in a fixed generating set of
    Sp(2n,Z) and their inverses.

    Generating set: upper and lower symplectic transvections
    [[I, S], [0, I]] and [[I, 0], [S, I]] over all nonzero symmetric 0/1
    shears S.  Each word alternates upper/lower letters (random starting
    side), draws S uniformly per letter, and uses either the generators
    or their inverses throughout (one sign per word): same-side letters
    commute and mixed signs produce elliptic products, so this schedule
    keeps the walk uniformly hyperbolic.  Output is in interleaved
    coordinates.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2, or 3")
    from .symplectic import SymplecticMatrix
    rng = np.random.default_rng(seed)
    pool = _shear_pool(n)
    I = np.eye(n, dtype=object)
    Z = np.zeros((n, n), dtype=object)
    out = []
    for _ in range(count):
        A = np.eye(2 * n, dtype=object)
        sign = 1 if rng.integers(2) == 0 else -1
        side = int(rng.integers(2))
        for step in range(word_length):
            S = sign * pool[int(rng.integers(len(pool)))]
            if (step + side) % 2 == 0:
                letter = np.block([[I, S], [Z, I]])
            else:
                letter = np.block([[I, Z], [S, I]])
            A = A @ letter
        out.append(SymplecticMatrix(_interleave(A, n).tolist()))
    return out
