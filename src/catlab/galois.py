"""
Finite-field certification of Galois groups of reciprocal polynomials.

For A in Sp(2n,Z) the characteristic polynomial is monic reciprocal of
degree 2n and its Galois group embeds in the hyperoctahedral group
S_2 wr S_n.  A squarefree factorization mod ell whose pattern is one
irreducible factor of degree 2k times distinct linear factors witnesses
a (2k)-cycle of Frobenius; collecting the classes {2, 4, 2n-2, 2n}
(as a set of distinct values) certifies the full wreath product.

The witness class is read from the structure of the wreath product:
f(x) = x^n g(x + 1/x) with g of degree n (_trace_poly), S_n permutes
the roots of g and each S_2 swaps x and 1/x above one of them.  So mod
ell the roots y of g and Legendre symbols of y^2 - 4 and of h(2) h(-2),
h the cofactor of g's roots, decide the class (_reciprocal_class)
without factoring f; factor_type is only needed for a cofactor of
degree >= 4.  factor_type stays the general engine and the tests'
oracle.
"""

from dataclasses import dataclass
import functools
import itertools
import math
import operator

import numpy as np


def primes_upto(bound):
    if bound < 0:
        raise ValueError("prime bound must be >= 0")
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


@functools.cache
def _odd_primes(bound):
    """The odd primes up to bound, sieved once per bound."""
    return tuple(primes_upto(bound)[1:])


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


def _trace_poly(coeffs):
    """
    The integer g, high degree first, with f(x) = x^n g(x + 1/x) for a
    reciprocal f of degree 2n (coefficients high degree first): from
    x^k + x^-k = T_k(x + 1/x), T_0 = 2, T_1 = y, T_(k+1) = y T_k - T_(k-1).
    """
    n = (len(coeffs) - 1) // 2
    g = [coeffs[n]] + [0] * n  # lowest degree first
    prev, cur = [2], [0, 1]
    for k in range(1, n + 1):
        for i, t in enumerate(cur):
            g[i] += coeffs[n - k] * t
        nxt = [0] + cur
        for i, t in enumerate(prev):
            nxt[i] -= t
        prev, cur = cur, nxt
    return g[::-1]


# Least prime at which _reciprocal_class evaluates g over F_ell with
# numpy; below it a Python loop is faster than numpy's per-call overhead.
ROOT_SCAN_NUMPY = 50


def _reciprocal_class(g, ell):
    """
    The witness class 2k mod an odd prime ell of the reciprocal f whose
    trace polynomial is g = _trace_poly(f), or None: 2k when f is
    squarefree mod ell with one irreducible factor of degree 2k and
    2n - 2k distinct linear factors.  Read from f = x^n g(x + 1/x):
    a root y of g in F_ell is split (two linear factors of f) when
    chi(y^2 - 4) = +1 and inert (one quadratic) when it is -1, chi the
    Legendre symbol; an irreducible cofactor h of degree k gives one
    factor of degree 2k when chi(h(2) h(-2)) = -1, h(2) h(-2) being the
    norm of y^2 - 4, and two of degree k otherwise.  f is squarefree iff
    g is and g(2) g(-2) != 0; a witness needs h irreducible, so g is
    squarefree iff no root y has g'(y) = 0.
    """
    g = [c % ell for c in g]
    if not g[0]:
        return None  # the reduction loses degree
    # g at every t in F_ell, by Horner
    if ell < ROOT_SCAN_NUMPY:
        v = []
        for t in range(ell):
            a = 0
            for c in g:
                a = a * t + c
            v.append(a % ell)
        roots = [t for t, a in enumerate(v) if not a]
    else:
        t = np.arange(ell)
        v = t * g[0] + g[1]
        for c in g[2:]:
            v %= ell
            v *= t
            v += c
        v %= ell
        roots = np.flatnonzero(v == 0).tolist()
    g2 = int(v[2 % ell]) * int(v[-2 % ell])
    if not g2:
        return None  # x = 1 or x = -1 is a double root of f
    n = len(g) - 1
    inert = 0
    for y in roots:
        deriv = 0
        for i, c in enumerate(g[:-1]):
            deriv = (deriv * y + (n - i) * c) % ell
        if not deriv:
            return None  # g has a double root
        inert += pow(y * y - 4, (ell - 1) // 2, ell) != 1
    k = n - len(roots)
    if not k:
        return 2 if inert == 1 else None
    # with every root split, chi(h(2) h(-2)) = chi(g(2) g(-2)); the
    # leading coefficient of g enters g(2) g(-2) squared
    if inert or pow(g2, (ell - 1) // 2, ell) == 1:
        return None
    if k >= 4:  # h has no root, so it is irreducible when k <= 3
        h = g
        for y in roots:  # synthetic division by t - y
            h = list(itertools.accumulate(
                h[:-1], lambda a, c, y=y: (a * y + c) % ell))
        if factor_type(h, ell).degrees != (k,):
            return None
    return 2 * k


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
    (_reciprocal_class) from squarefree reductions of a reciprocal
    polynomial with a nonzero leading coefficient.  Only when no prime
    witnesses irreducibility does it factor over Z; a reducible input is
    "contradicted" with no primes reported.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg % 2 != 0 or deg < 2:
        raise ValueError("degree must be even and at least 2")
    if coeffs != coeffs[::-1]:
        raise ValueError("polynomial must be reciprocal")
    if not coeffs[0]:
        raise ValueError("leading coefficient must be nonzero")
    need = required_classes(deg // 2)
    g = _trace_poly(coeffs)
    witnesses = {}
    scanned = []
    for ell in _odd_primes(prime_bound):
        scanned.append(ell)
        cls = _reciprocal_class(g, ell)
        if cls is not None and cls not in witnesses:
            witnesses[cls] = (ell, (1,) * (deg - cls) + (cls,))
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


# Entries (polynomials times points of F_ell) per block of the value
# tables reciprocal_census holds.
_CENSUS_BLOCK_ENTRIES = 2 ** 16


def _census_classes(G, ell):
    """
    Counts by witness class of the monic trace polynomials G mod ell
    (rows, high degree first): entry k counts class 2k, and entry 0 is
    unused.  This is _reciprocal_class's decision on every row at once,
    from one Horner pass for g and g' at every t in F_ell and one table
    of Legendre symbols.  The rows whose cofactor has degree >= 4 and
    passes the Legendre test go to _reciprocal_class one at a time,
    where factor_type decides them.
    """
    rows, n = len(G), G.shape[1] - 1
    t = np.arange(ell)
    v = np.ones((rows, ell), dtype=np.int64)  # g is monic
    dv = np.zeros_like(v)
    for c in G[:, 1:].T:  # entries stay below ell^2
        dv *= t
        dv += v
        dv %= ell
        v *= t
        v += c[:, None]
        v %= ell
    chi = np.full(ell, -1)
    chi[t * t % ell] = 1
    chi[0] = 0
    root = v == 0
    g2 = v[:, 2 % ell] * v[:, -2 % ell] % ell
    ok = (g2 != 0) & ~(root & (dv == 0)).any(axis=1)
    inert = (root & (chi[(t * t - 4) % ell] == -1)).sum(axis=1)
    k = n - root.sum(axis=1)
    # k = 0: class 2 when exactly one root is inert; k >= 1: class 2k
    # when every root is split and chi(g(2) g(-2)) = -1
    ok &= np.where(k == 0, inert == 1, (inert == 0) & (chi[g2] == -1))
    counts = np.bincount(np.maximum(k, 1)[ok & (k <= 3)], minlength=n + 1)
    for row in G[ok & (k >= 4)].tolist():
        cls = _reciprocal_class(row, ell)
        if cls is not None:
            counts[cls // 2] += 1
    return counts


def reciprocal_census(ell, n):
    """
    Enumerates all ell^n monic reciprocal polynomials of degree 2n over
    F_ell, classifying each; returns {"total": ell^n, "classes": {2k:
    {"count", "main_term", "abs_error"}}, "other": remainder}.

    The map f -> g = _trace_poly(f) is unitriangular over Z: g is monic
    and its y^(n-k) coefficient is a_k plus a combination of a_0..a_(k-1).
    So it permutes the monic g over F_ell, and the census enumerates
    those directly, in blocks of at most _CENSUS_BLOCK_ENTRIES // ell (at
    least one) whose free coefficients are the mixed-radix digits of an
    index range.  _census_classes decides each block, and
    _reciprocal_class is its row-by-row oracle.
    """
    if not _is_odd_prime(ell):
        raise ValueError("ell must be an odd prime")
    if n < 1:
        raise ValueError("census degree n must be >= 1")
    if ell ** n > 10 ** 7:
        raise ValueError("census guard exceeded (ell^n > 1e7)")
    total = ell ** n
    radix = ell ** np.arange(n - 1, -1, -1)
    counts = np.zeros(n + 1, dtype=np.int64)
    rows = max(1, _CENSUS_BLOCK_ENTRIES // ell)
    for lo in range(0, total, rows):
        index = np.arange(lo, min(lo + rows, total))
        G = np.empty((len(index), n + 1), dtype=np.int64)
        G[:, 0] = 1
        G[:, 1:] = index[:, None] // radix % ell
        counts += _census_classes(G, ell)
    classes = {}
    for k in range(1, n + 1):
        main = ell ** n / (2 ** (n - k + 1) * k *
                           math.factorial(n - k))
        classes[2 * k] = {
            "count": int(counts[k]),
            "main_term": float(main),
            "abs_error": abs(int(counts[k]) - float(main)),
        }
    return {"total": total, "classes": classes,
            "other": total - int(counts[1:].sum())}


def power_scan(A, m_max, prime_bound=200):
    """
    For m = 1..m_max: certify char(A^m) irreducible via a 2n-cycle
    witness, or reducible via an exact integer factorization, both from
    certify_wreath; k0 is the least certified-reducible m (None when
    undetermined beyond m_max).
    """
    from .symplectic import SymplecticMatrix, char_poly
    if m_max < 1:
        raise ValueError("power scan needs m_max >= 1")
    if not isinstance(A, SymplecticMatrix):
        A = SymplecticMatrix(A)
    results = []
    k0 = None
    Am = A
    for m in range(1, m_max + 1):
        if m > 1:
            Am = Am @ A
        coeffs = tuple(char_poly(Am).coeffs)
        cert = certify_wreath(coeffs, prime_bound)
        if cert.verdict == "contradicted":
            if k0 is None:
                k0 = m
            results.append({"m": m, "coeffs": coeffs, "verdict": "reducible",
                            "factorization": cert.factorization})
        else:
            witness = cert.witnesses.get(len(coeffs) - 1, (None,))[0]
            results.append({"m": m, "coeffs": coeffs, "verdict":
                            "irreducible" if witness else "undetermined",
                            "witness": witness})
    return {"per_m": results, "k0": k0}


def sl2_census(ell):
    """
    Exact counts of {A in SL(2, F_ell)} bucketed by trace, enumerated in
    O(ell^2): for each (a, d), the (b, c) with bc = ad - 1 number
    n_bc[ad - 1], where n_bc[v] = #{(b, c) : bc = v}.  The count for
    every trace t is within 2*ell of ell^2 and the counts total
    |SL(2, F_ell)| = ell^3 - ell.
    """
    if not _is_odd_prime(ell):
        raise ValueError("ell must be an odd prime")
    if ell > 31:
        raise ValueError("census guard exceeded (ell > 31)")
    r = np.arange(ell)
    prod = np.outer(r, r) % ell
    n_bc = np.bincount(prod.ravel(), minlength=ell)
    traces = (r[:, None] + r) % ell
    counts = np.zeros(ell, dtype=np.int64)
    np.add.at(counts, traces.ravel(), n_bc[(prod - 1) % ell].ravel())
    assert counts.sum() == ell ** 3 - ell
    return {int(t): int(counts[t]) for t in range(ell)}


@functools.cache
def _shear_pool(n):
    """
    All nonzero symmetric n x n 0/1 matrices S, each as its supports: for
    each column c, the k with S[c][k] = 1.
    """
    pool = []
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in itertools.product((0, 1), repeat=len(positions)):
        if not any(bits):
            continue
        S = [[0] * n for _ in range(n)]
        for (i, j), bit in zip(positions, bits):
            S[i][j] = S[j][i] = bit
        pool.append(tuple(tuple(k for k in range(n) if S[c][k])
                          for c in range(n)))
    return tuple(pool)


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

    Each letter is applied as additions of Python-int columns, so the
    entries are exact at any word length.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2, or 3")
    if count < 1:
        raise ValueError("sample_sp requires count >= 1")
    if word_length < 0:
        raise ValueError("sample_sp requires word_length >= 0")
    from .symplectic import SymplecticMatrix
    rng = np.random.default_rng(seed)
    pool = _shear_pool(n)
    perm = [k for i in range(n) for k in (i, n + i)]
    out = []
    for _ in range(count):
        # columns of A in block coordinates: 0..n-1 are A_1, n.. are A_2
        A = [[int(i == j) for i in range(2 * n)] for j in range(2 * n)]
        add = operator.add if rng.integers(2) == 0 else operator.sub
        side = int(rng.integers(2))
        for step in range(word_length):
            S = pool[int(rng.integers(len(pool)))]
            # upper letter: A_2 += sign A_1 S; lower: A_1 += sign A_2 S
            src, dst = (0, n) if (step + side) % 2 == 0 else (n, 0)
            for c, support in enumerate(S):
                col = A[dst + c]
                for k in support:
                    col = list(map(add, col, A[src + k]))
                A[dst + c] = col
        out.append(SymplecticMatrix([[A[j][i] for j in perm]
                                     for i in perm]))
    return out
