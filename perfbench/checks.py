"""
Output checks for benchmark jobs, run in the client after each job.

Every check parses the job's artifacts and tests them against the
invariants the repository documents or against an independent
recomputation in exact integer or float arithmetic.  A check returns
`exact`, the job's integer, string and boolean results, which the client
compares with a reference recorded at the parent commit, and `observed`,
measured values reported but never bounded here (the criterion 5 and 8
quantities among them).  A failed check raises CheckError.

Floats are compared with tolerances, never as bytes.
"""

import cmath
import csv
import json
import math
import os
from fractions import Fraction

TOL_OVERLAP = 1e-8        # criterion 4
TOL_EIGENRESIDUAL = 1e-8  # criterion 6
TOL_EGOROV = 1e-10        # criterion 1
TOL_PHASE = 1e-8          # criterion 3
TOL_UNITARITY = 1e-10     # criterion 2
REL = 1e-9                # independent float recomputations


class CheckError(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckError(what)


def _close(a, b, rel=REL, abs_=1e-12):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _flag(argv, name, default=None):
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok[len(name) + 1:]
    return default


def _matrix(text):
    return [[int(v) for v in row.split(",")] for row in text.split(";")]


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# --- exact integer helpers -------------------------------------------------

def _matmul(A, B, mod=None):
    out = [[sum(A[i][k] * B[k][j] for k in range(len(B)))
            for j in range(len(B[0]))] for i in range(len(A))]
    if mod:
        out = [[v % mod for v in row] for row in out]
    return out


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _form(n):
    J = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        J[2 * i][2 * i + 1] = -1
        J[2 * i + 1][2 * i] = 1
    return J


def _transpose(A):
    return [list(r) for r in zip(*A)]


def _is_symplectic(A):
    if len(A) % 2 or any(len(r) != len(A) for r in A):
        return False
    J = _form(len(A) // 2)
    return _matmul(_matmul(_transpose(A), J), A) == J


def _char_poly(A):
    """Faddeev-LeVerrier in exact integers, highest degree first."""
    n = len(A)
    coeffs = [1]
    M = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        M = [[M[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
        AM = _matmul(A, M)
        c = Fraction(-sum(AM[i][i] for i in range(n)), k)
        _require(c.denominator == 1, "char poly coefficient not integral")
        c = int(c)
        coeffs.append(c)
        M = AM
    return coeffs


def _polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _order_mod(B, N):
    """Least P >= 1 with B^P = I mod N (2 x 2)."""
    I = _identity(2)
    M = [[v % N for v in row] for row in B]
    for P in range(1, 16 * N + 2):
        if M == I:
            return P
        M = _matmul(M, B, N)
    raise CheckError("period not found")


def _N_k(B, k):
    tr = B[0][0] + B[1][1]
    prev, cur = 0, 1
    for _ in range(k - 1):
        prev, cur = cur, tr * cur - prev
    return cur if k else 0


def _is_odd_prime(p):
    return p > 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _fit_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


# --- scar_stream -----------------------------------------------------------

def _lam(B):
    tr = B[0][0] + B[1][1]
    return (tr + math.sqrt(tr * tr - 4)) / 2


def _S1(lam):
    total, t = 1.0, 1
    while True:
        term = 2.0 / (lam ** t + lam ** (-t))
        total += 2 * term
        if term < 1e-16:
            return total
        t += 1


def check_periods(argv, d, expect):
    B, k = _matrix(_flag(argv, "--matrix")), int(_flag(argv, "--k"))
    out = _read_json(os.path.join(d, "periods-%s.json" % _flag(argv, "--seed")))
    N = _N_k(B, k)
    tr = B[0][0] + B[1][1]
    _require(out["N"] == N, "N_k recurrence")
    _require(out["P"] == _order_mod(B, N), "period is not ord(B mod N)")
    if B == [[2, 1], [1, 1]]:
        _require(out["P"] == 2 * k, "cat-map period law P = 2k")
    _require(out["N_even"] == (N % 2 == 0), "N_even flag")
    _require(out["admissible"] == (k % 6 == 0 if tr % 2 else k % 2 == 0),
             "admissibility rule")
    return {"N": out["N"], "P": out["P"], "N_even": out["N_even"],
            "admissible": out["admissible"]}, None


def check_scar_build(argv, d, expect):
    B, k = _matrix(_flag(argv, "--matrix")), int(_flag(argv, "--k"))
    out = _read_json(os.path.join(d, "scar-build-%s.json"
                                  % _flag(argv, "--seed")))
    N = _N_k(B, k)
    lam = _lam(B)
    _require(out["N"] == N, "N_k recurrence")
    _require(out["P"] == _order_mod(B, N), "period is not ord(B mod N)")
    _require(_close(out["lambda"], lam), "leading eigenvalue")
    _require(_close(out["S1"], _S1(lam)), "S1 series")
    _require(out["norm2"] > 0 and math.isfinite(out["norm2"]), "norm2")
    _require(_close(out["norm2_error"], abs(out["norm2"] - out["S1"])),
             "norm2_error")
    _require(-math.pi <= out["phi"] <= math.pi, "phase range")
    if N * N <= 16_000_000:
        _require(out["eigenresidual"] <= TOL_EIGENRESIDUAL,
                 "eigenresidual %.3e" % out["eigenresidual"])
    else:
        _require("eigenresidual" not in out, "eigenresidual above the limit")
    return ({"N": out["N"], "P": out["P"],
             "has_eigenresidual": "eigenresidual" in out},
            {"norm2_error": out["norm2_error"]})


def _target(j, k):
    jz, kz = j == (0, 0), k == (0, 0)
    if jz and kz:
        return 1.0
    return 0.5 if jz or kz else 0.0


def check_scar_scan(argv, d, expect):
    w = int(_flag(argv, "--window", 2))
    header, rows = _read_csv(os.path.join(d, "scar-scan-%s.csv"
                                          % _flag(argv, "--seed")))
    _require(header == ["j1", "j2", "k1", "k2", "ratio_re", "ratio_im",
                        "target", "error"], "scan header")
    lattice = [(a, b) for a in range(-w, w + 1) for b in range(-w, w + 1)]
    expected = [(j, k) for j in lattice for k in lattice]
    _require(len(rows) == len(expected), "scan row count")
    worst = 0.0
    for row, (j, k) in zip(rows, expected):
        _require(tuple(int(v) for v in row[:4]) == j + k, "scan lattice")
        ratio = complex(float(row[4]), float(row[5]))
        target, err = float(row[6]), float(row[7])
        _require(target == _target(j, k), "limit table")
        _require(cmath.isfinite(ratio), "finite ratio")
        _require(_close(err, abs(ratio - target)), "error column")
        if j == k == (0, 0):
            _require(abs(ratio - 1) < 1e-12, "normalized ratio at 0")
        worst = max(worst, err)
    # Criterion 8's 0.15 bound is an acceptance test, not a job check.
    return {"rows": len(rows)}, {"max_error": worst}


def check_scar_density(argv, d, expect):
    B, k = _matrix(_flag(argv, "--matrix")), int(_flag(argv, "--k"))
    N = _N_k(B, k)
    stem = os.path.join(d, "scar-density-%s" % _flag(argv, "--seed"))
    with open(stem + ".pgm", "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 4)
    _require(parts[0] == b"P5", "PGM magic")
    maxval = float(parts[1].split()[-1])
    _require(parts[2] == b"%d %d" % (N, N) and parts[3] == b"255",
             "PGM geometry")
    pixels = parts[4]
    _require(len(pixels) == N * N, "PGM payload size")
    _require(max(pixels) == 255, "max-normalized PGM")
    exact = {"width": N, "height": N, "csv": os.path.exists(stem + ".csv")}
    _require(exact["csv"] == (N <= 1024), "CSV written iff N <= 1024")
    if exact["csv"]:
        header, rows = _read_csv(stem + ".csv")
        _require(header == ["j1", "j2", "density"], "density header")
        _require(len(rows) == N * N, "density row count")
        dens = [float(r[2]) for r in rows]
        _require(min(dens) >= 0, "nonnegative density")
        _require(_close(max(dens), maxval), "PGM records the density max")
        scale = 255.0 / maxval
        _require(all(abs(p - v * scale) <= 0.5 + 1e-6
                     for p, v in zip(pixels, dens)), "PGM quantization")
    return exact, None


def check_lattice_sum(argv, d, expect):
    B, q = _matrix(_flag(argv, "--matrix")), int(_flag(argv, "--q", 0))
    N = int(_flag(argv, "--N", 144))
    c = _flag(argv, "--c", "")
    c = [float(v) for v in c.split(",")] if c else [0.0, 0.0]
    out = _read_json(os.path.join(d, "lattice-sum-%s.json"
                                  % _flag(argv, "--seed")))
    h = 1.0 / (2 * math.pi * N)
    _require(out["q"] == q and _close(out["h"], h), "echoed inputs")
    _require(_close(out["sum"], out["l0_term"] + out["rest"], abs_=1e-300),
             "sum = l0 + rest")
    _require(out["rest"] >= 0, "nonnegative rest")
    Bq = _identity(2)
    for _ in range(q):
        Bq = _matmul(Bq, B)
    (a, b), (cc, dd) = Bq
    tr = a + dd
    quad = dd * c[0] ** 2 - (b + cc) * c[0] * c[1] + a * c[1] ** 2
    l0 = math.sqrt(2.0 / tr) * math.exp(-quad / (2 * h * tr))
    _require(_close(out["l0_term"], l0, abs_=1e-300), "closed-form l = 0 term")
    # Only the l = 0 term is checked: the ring truncation is a known
    # defect for q >= 4 (criterion 5) and the rest is reported as measured.
    return {"q": out["q"]}, {"rest": out["rest"]}


# --- dense_oracle ----------------------------------------------------------

def check_egorov_defect(args, d, expect):
    out = _read_json(os.path.join(d, "egorov_defect.json"))
    _require(out["defect"] <= TOL_EGOROV, "Egorov defect %.3e" % out["defect"])
    return {}, {"defect": out["defect"]}


def check_period_phase(args, d, expect):
    out = _read_json(os.path.join(d, "period_phase.json"))
    _require(out["P"] == _order_mod(args["B"], args["N"]),
             "period is not ord(B mod N)")
    _require(out["defect"] <= TOL_PHASE, "period-phase defect %.3e"
             % out["defect"])
    _require(-math.pi <= out["phi"] <= math.pi, "phase range")
    return {"P": out["P"]}, {"defect": out["defect"]}


def check_unitarity(args, d, expect):
    out = _read_json(os.path.join(d, "unitarity.json"))
    _require(out["unitarity"] <= TOL_UNITARITY,
             "unitarity defect %.3e" % out["unitarity"])
    return {}, {"unitarity": out["unitarity"]}


def check_autocorrelation(args, d, expect):
    out = _read_json(os.path.join(d, "autocorrelation.json"))
    dev = out["deviation"]
    _require(len(dev) == args["t_max"] + 1, "one deviation per t")
    # The identity holds to 1e-6 for |t| <= 3 (README).  At N = 144 the
    # lattice terms give about 2.6e-5 at |t| = 4: criterion 5 fails by
    # design, so that value is reported, not bounded.
    _require(max(dev[:4]) <= 1e-6, "autocorrelation identity for |t| <= 3")
    return {}, {"deviation_t%d" % t: v for t, v in enumerate(dev)}


def check_overlap_test(argv, d, expect):
    B = _matrix(_flag(argv, "--matrix"))
    count = int(_flag(argv, "--count", 100))
    header, rows = _read_csv(os.path.join(d, "overlap-test-%s.csv"
                                          % _flag(argv, "--seed")))
    _require(len(rows) == count, "overlap row count")
    (a, b), (_, dd) = B
    tr = a + dd
    worst = 0.0
    for i, row in enumerate(rows):
        w1, w2, h, cre, cim, qre, qim, err = (float(v) for v in row)
        _require(_close(h, 1.0 / (2 * math.pi * (34, 144)[i % 2])), "h")
        _require(math.hypot(w1, w2) <= 2, "omega in the disk")
        closed, quad = complex(cre, cim), complex(qre, qim)
        # <B^{-1} w, w> and <B R w, w> for symmetric B with det 1
        quad_form = dd * w1 * w1 - 2 * b * w1 * w2 + a * w2 * w2
        phase = -b * w1 * w1 + (a - dd) * w1 * w2 + b * w2 * w2
        ref = (math.sqrt(2.0 / tr) * math.exp(-quad_form / (2 * h * tr))
               * cmath.exp(1j * phase / (2 * h * tr)))
        _require(abs(closed - ref) <= 1e-12, "closed form recomputed")
        _require(_close(err, abs(closed - quad)), "abs_err column")
        _require(err <= TOL_OVERLAP, "overlap abs_err %.3e" % err)
        worst = max(worst, err)
    return {"rows": len(rows)}, {"abs_err": worst}


def check_fup_porosity(argv, d, expect):
    out = _read_json(os.path.join(d, "fup-porosity-%s.json"
                                  % _flag(argv, "--seed")))
    _require(out["mode"] == _flag(argv, "--mode", "balls"), "mode echo")
    _require(out["porous"] == (out["counterexample"] is None),
             "verdict and counterexample agree")
    if "porous" in expect:
        _require(out["porous"] == expect["porous"], "porosity verdict")
    ce = out["counterexample"]
    if ce is not None and out["mode"] == "lines":
        _require(abs(math.hypot(*ce["direction"]) - 1) < 1e-12,
                 "unit direction")
    return {"porous": out["porous"],
            "R": None if ce is None else ce["R"]}, None


def check_fup_scan(argv, d, expect):
    depths = [int(v) for v in _flag(argv, "--depths").split(",")]
    stem = os.path.join(d, "fup-scan-%s" % _flag(argv, "--seed"))
    header, rows = _read_csv(stem + ".csv")
    out = _read_json(stem + ".json")
    Ms = [int(r[0]) for r in rows]
    hs = [float(r[1]) for r in rows]
    norms = [float(r[2]) for r in rows]
    _require(Ms == [3 ** r for r in depths], "grid sizes 3^depth")
    _require(all(_close(h, 1.0 / M) for h, M in zip(hs, Ms)), "h = 1/M")
    _require(all(0 < v <= 1 + 1e-12 for v in norms), "norms in (0, 1]")
    _require(out["monotone_decreasing"]
             and all(a > b for a, b in zip(norms, norms[1:])),
             "monotone decay")
    _require(_close(out["beta"], _fit_slope(hs, norms), rel=1e-8),
             "fitted slope recomputed")
    if depths == [4, 5, 6, 7, 8, 9]:
        _require(out["beta"] >= 0.05, "criterion 15 decay exponent")
    return {"M": Ms, "monotone": out["monotone_decreasing"]}, None


def check_up_basic(argv, d, expect):
    delta = float(_flag(argv, "--delta", 0.75))
    stem = os.path.join(d, "up-basic-%s" % _flag(argv, "--seed"))
    header, rows = _read_csv(stem + ".csv")
    out = _read_json(stem + ".json")
    Ms = [int(r[0]) for r in rows]
    hs = [float(r[1]) for r in rows]
    norms = [float(r[2]) for r in rows]
    _require(Ms == [2 ** e for e in range(8, 15)], "grid sizes")
    _require(_close(out["theory_slope"], (2 * delta - 1) / 2),
             "theory slope")
    _require(_close(out["fitted_slope"], _fit_slope(hs, norms), rel=1e-8,
                    abs_=1e-10), "fitted slope recomputed")
    _require(out["abs_error"] < 0.1, "criterion 14 slope error")
    return {"M": Ms}, {"abs_error": out["abs_error"]}


# --- galois_arith ----------------------------------------------------------

VERDICTS = ("certified_wreath", "certified_irreducible_only",
            "undetermined", "contradicted")


def _required_classes(n):
    return {2} if n == 1 else {2, 4, 2 * n - 2, 2 * n}


def _check_witness(cls, witness, deg, prime_bound):
    ell, degrees = witness
    _require(_is_odd_prime(ell) and ell <= prime_bound, "witness prime")
    _require(sum(degrees) == deg, "witness degrees sum to the degree")
    big = [v for v in degrees if v > 1]
    _require(big == [cls] and len(set(degrees)) <= 2, "witness pattern")


def check_galois_certify(argv, d, expect):
    coeffs = [int(v) for v in _flag(argv, "--poly").split(",")]
    bound = int(_flag(argv, "--prime-bound", 200))
    out = _read_json(os.path.join(d, "galois-certify-%s.json"
                                  % _flag(argv, "--seed")))
    deg = len(coeffs) - 1
    _require(out["coeffs"] == coeffs, "coefficient echo")
    _require(out["verdict"] in VERDICTS, "verdict")
    for cls, wit in out["witnesses"].items():
        _check_witness(int(cls), wit, deg, bound)
    if out["verdict"] == "certified_wreath":
        _require(_required_classes(deg // 2)
                 <= {int(c) for c in out["witnesses"]}, "wreath classes")
    if out["verdict"] == "contradicted":
        prod = [1]
        for p in out["factorization"]:
            prod = _polymul(prod, p)
        _require(prod == coeffs, "factorization multiplies back")
    return {"verdict": out["verdict"], "witnesses": out["witnesses"],
            "factorization": out["factorization"]}, None


def check_galois_sample(argv, d, expect):
    n, count = int(_flag(argv, "--n", 2)), int(_flag(argv, "--count", 500))
    stem = os.path.join(d, "galois-sample-%s" % _flag(argv, "--seed"))
    header, rows = _read_csv(stem + ".csv")
    out = _read_json(stem + ".json")
    _require([int(r[0]) for r in rows] == list(range(count)), "row index")
    tally = {}
    for _, verdict, poly in rows:
        c = [int(v) for v in poly.split(";")]
        _require(len(c) == 2 * n + 1 and c[0] == 1 and c == c[::-1],
                 "monic reciprocal char poly")
        _require(verdict in VERDICTS, "verdict")
        tally[verdict] = tally.get(verdict, 0) + 1
    _require(out["verdicts"] == tally and out["count"] == count,
             "verdict tally")
    _require(_close(out["fraction_certified_wreath"],
                    tally.get("certified_wreath", 0) / count), "fraction")
    return {"rows": [r[1:] for r in rows]}, None


def check_galois_census(argv, d, expect):
    ells = [int(v) for v in _flag(argv, "--ells").split(",")]
    n = int(_flag(argv, "--n", 2))
    header, rows = _read_csv(os.path.join(d, "galois-census-%s.csv"
                                          % _flag(argv, "--seed")))
    _require([(int(r[0]), int(r[1]), int(r[2])) for r in rows]
             == [(e, n, k) for e in ells for k in range(1, n + 1)],
             "census rows")
    for ell in ells:
        sub = [r for r in rows if int(r[0]) == ell]
        _require(sum(int(r[3]) for r in sub) <= ell ** n,
                 "class counts within the ell^n total")
        for r in sub:
            k, count = int(r[2]), int(r[3])
            main = ell ** n / (2 ** (n - k + 1) * k * math.factorial(n - k))
            _require(_close(float(r[4]), main), "main term")
            _require(_close(float(r[5]), abs(count - main)), "abs_error")
            if n <= 2:
                _require(float(r[5]) <= 4 * ell ** (n - 1),
                         "criterion 10 error bound")
    return {"counts": [int(r[3]) for r in rows]}, None


def check_galois_power_scan(argv, d, expect):
    A = _matrix(_flag(argv, "--matrix"))
    m_max = int(_flag(argv, "--m-max", 5))
    out = _read_json(os.path.join(d, "galois-power-scan-%s.json"
                                  % _flag(argv, "--seed")))
    _require([r["m"] for r in out["per_m"]] == list(range(1, m_max + 1)),
             "m range")
    Am = A
    k0 = None
    for rec in out["per_m"]:
        _require(rec["coeffs"] == _char_poly(Am), "char poly of A^m")
        if rec["verdict"] == "reducible":
            prod = [1]
            for p in rec["factorization"]:
                prod = _polymul(prod, p)
            _require(prod == rec["coeffs"], "factorization multiplies back")
            k0 = rec["m"] if k0 is None else k0
        else:
            _require(rec["verdict"] in ("irreducible", "undetermined"),
                     "verdict")
            if rec["verdict"] == "irreducible":
                _require(_is_odd_prime(rec["witness"]), "witness prime")
        Am = _matmul(Am, A)
    _require(out["k0"] == k0, "k0 is the least reducible power")
    if "k0" in expect:
        _require(out["k0"] == expect["k0"], "documented k0")
    return {"verdicts": [r["verdict"] for r in out["per_m"]],
            "k0": out["k0"]}, None


def check_sl2_census(argv, d, expect):
    ell = int(_flag(argv, "--ell"))
    header, rows = _read_csv(os.path.join(d, "sl2-census-%s.csv"
                                          % _flag(argv, "--seed")))
    counts = [int(r[1]) for r in rows]
    _require([int(r[0]) for r in rows] == list(range(ell)), "traces")
    _require(sum(counts) == ell ** 3 - ell, "|SL(2, F_ell)| = ell^3 - ell")
    _require(all(abs(c - ell ** 2) <= 2 * ell for c in counts),
             "trace counts within 2 ell of ell^2")
    return {"counts": counts}, None


def check_check_matrix(argv, d, expect):
    A = _matrix(_flag(argv, "--matrix"))
    out = _read_json(os.path.join(d, "check-matrix-%s.json"
                                  % _flag(argv, "--seed")))
    _require(out["matrix"] == A, "matrix echo")
    _require(out["symplectic"] == _is_symplectic(A), "symplectic flag")
    if out["symplectic"]:
        cp = _char_poly(A)
        _require(out["char_poly"] == cp, "char poly")
        _require(out["reciprocal"] == (cp == cp[::-1]), "reciprocal flag")
        phi = out["phi"]
        n = len(A) // 2
        J = _form(n)
        Ainv = _matmul(_matmul([[-v for v in r] for r in J], _transpose(A)), J)
        for bits in range(2 ** (2 * n)):
            w = [(bits >> i) & 1 for i in range(2 * n)]
            v = [sum(Ainv[i][j] * w[j] for j in range(2 * n))
                 for i in range(2 * n)]
            lhs = (sum(v[2 * i] * v[2 * i + 1] for i in range(n))
                   - sum(w[2 * i] * w[2 * i + 1] for i in range(n)))
            rhs = sum(phi[2 * i + 1] * w[2 * i] - w[2 * i + 1] * phi[2 * i]
                      for i in range(n))
            _require((lhs - rhs) % 2 == 0, "parity vector identity")
    return {k: out.get(k) for k in ("symplectic", "char_poly", "reciprocal",
                                    "phi")}, None


CHECKS = {
    "periods": check_periods,
    "scar-build": check_scar_build,
    "scar-scan": check_scar_scan,
    "scar-density": check_scar_density,
    "lattice-sum": check_lattice_sum,
    "egorov_defect": check_egorov_defect,
    "period_phase": check_period_phase,
    "unitarity": check_unitarity,
    "autocorrelation": check_autocorrelation,
    "overlap-test": check_overlap_test,
    "fup-porosity": check_fup_porosity,
    "fup-scan": check_fup_scan,
    "up-basic": check_up_basic,
    "galois-certify": check_galois_certify,
    "galois-sample": check_galois_sample,
    "galois-census": check_galois_census,
    "galois-power-scan": check_galois_power_scan,
    "sl2-census": check_sl2_census,
    "check-matrix": check_check_matrix,
}


def check(job, job_dir):
    """(exact, observed) for a finished job; raises CheckError."""
    inputs = job["argv"] if "argv" in job else job["args"]
    try:
        return CHECKS[job["type"]](inputs, job_dir, job["expect"])
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            AttributeError) as exc:
        raise CheckError("unreadable output: %r" % exc) from exc
