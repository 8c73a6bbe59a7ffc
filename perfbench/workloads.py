"""
Seeded job generators for the three benchmark workloads.

A job is a dict.  Its `argv` (a catlab CLI call) or `api` plus `args`
(a public-API oracle call) is all the worker receives; `type` names the
job type and `expect` carries facts the checker needs, and both stay in
the client.

Each workload is an endless sequence of cycles.  Every cycle holds the
same multiset of (job type, size) slots; the seed and the cycle index
only draw inputs of comparable cost (CLI --seed values, polynomial and
matrix entries, lattice offsets) and the order.  So the seed fixes the
job list, while run-to-run cost stays comparable across seeds.
"""

import random

CAT = "2,1;1,1"       # trace 3: N_6 = 144, N_12 = 46368
M5 = "5,2;2,1"        # trace 6: N_4 = 204, N_6 = 6930, N_8 = 235416
M7 = "2,3;3,5"        # trace 7: N_6 = 15456
M29 = "29,12;12,5"    # trace 34: N_2 = 34
CAT_T = "1,1;1,2"     # CAT with a and d swapped: N_6 = 144
BLOCK_PAIR = "0,0,2,1;0,0,1,1;-2,-1,0,0;-1,-1,0,0"

WHY = {
    "scar_stream": "production scar path: streamed chirp-FFT applies and "
                   "factored matrix elements for N from 144 to 235416, no "
                   "dense matrix",
    "dense_oracle": "dense oracles: Egorov, period phase, unitarity, "
                    "materialized scars, overlap quadrature and fup grid "
                    "scans and SVDs",
    "galois_arith": "exact integer and finite-field arithmetic bound by "
                    "sympy, with no FFT or BLAS",
}


def _matrix(text):
    return [[int(v) for v in row.split(",")] for row in text.split(";")]


def _cli(jtype, rng, *flags, expect=None):
    argv = [jtype]
    for f in map(str, flags):
        if f.startswith("-") and not f.startswith("--"):
            argv[-1] += "=" + f  # a negative value would parse as an option
        else:
            argv.append(f)
    argv += ["--seed", str(rng.randrange(1000))]
    return {"type": jtype, "argv": argv, "expect": expect or {}}


def _api(name, **args):
    return {"type": name, "api": name, "args": args, "expect": {}}


def _palindrome(rng, n):
    """Monic reciprocal integer polynomial of degree 2n."""
    free = [rng.randint(-9, 9) for _ in range(n)]
    return [1] + free + free[-2::-1] + [1]


def _symplectic_word(rng, n, letters):
    """Interleaved-coordinate product of symmetric 0/+-1 transvections."""
    dim = 2 * n
    A = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for step in range(letters):
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                S[i][j] = S[j][i] = rng.choice((-1, 0, 1))
        if not any(any(r) for r in S):
            S[0][0] = 1
        L = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for i in range(n):
            for j in range(n):
                # upper letter: x_i += S xi ; lower letter: xi_i += S x
                if step % 2 == 0:
                    L[2 * i][2 * j + 1] = S[i][j]
                else:
                    L[2 * i + 1][2 * j] = S[i][j]
        A = [[sum(A[i][k] * L[k][j] for k in range(dim))
              for j in range(dim)] for i in range(dim)]
    return ";".join(",".join(str(v) for v in row) for row in A)


# Slot counts place the median and the 90th percentile inside groups of
# jobs with one deterministic cost (marked "p50 group" and "p90 group"),
# so that those percentiles do not jump between job types from run to run.
# Where possible the groups are jobs bound by FFT or LAPACK work, whose
# times varied less between runs here than those of jobs bound by the
# interpreter.

def _scar_stream(rng):
    jobs = []
    for m, k, w in [(CAT, 12, 1), (CAT, 12, 2), (CAT, 6, 1), (CAT, 6, 2),
                    (M5, 4, 2), (M5, 6, 2), (M7, 6, 1)]:
        jobs.append(_cli("scar-scan", rng, "--matrix", m, "--k", k,
                         "--window", w))
    for m, k in [(CAT, 6), (CAT, 6), (M5, 4), (M7, 6)] \
            + [(M5, 6)] * 7 + [(CAT, 12)] * 4:  # p50 group, then p90 group
        jobs.append(_cli("scar-build", rng, "--matrix", m, "--k", k))
    for m, k in [(CAT, 6)] * 4 + [(M5, 4)]:
        center = ["--center"] if rng.random() < 0.5 else []
        jobs.append(_cli("scar-density", rng, "--matrix", m, "--k", k,
                         *center))
    for m, k in [(CAT, 6), (CAT, 12), (M5, 6), (M5, 8), (M7, 6)]:
        jobs.append(_cli("periods", rng, "--matrix", m, "--k", k))
    for m, q, N in [(CAT, 1, 144), (CAT, 2, 144), (CAT, 3, 610), (M7, 1, 144),
                    (M5, 2, 34), (M7, 2, 144), (CAT, 0, 34), (M5, 1, 610)]:
        c = "%.4f,%.4f" % (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        jobs.append(_cli("lattice-sum", rng, "--matrix", m, "--q", q,
                         "--N", N, "--c", c))
    return jobs


def _dense_oracle(rng):
    jobs = [_api("egorov_defect", B=_matrix(m), N=N, window=w)
            for m, N, w in [(CAT, 34, 2), (CAT_T, 34, 2), (CAT, 144, 1),
                            (CAT_T, 144, 1), (M5, 204, 1), (CAT, 610, 1)]]
    jobs += [_api("period_phase", B=_matrix(m), N=N)
             for m, N in [(CAT, 34), (CAT, 144), (M5, 204), (CAT, 610)]]
    jobs += [_api("unitarity", B=_matrix(m), N=N)
             for m, N in [(M5, 204), (CAT, 610), (M5, 610)]]
    jobs.append(_api("autocorrelation", B=_matrix(CAT), N=144, t_max=4))
    for m, k in [(CAT, 6), (CAT_T, 6), (M5, 4), (M29, 2)]:
        jobs.append(_cli("scar-build", rng, "--matrix", m, "--k", k))
    for count in (1, 2, 2, 2, 2):                       # count 2: p90 group
        jobs.append(_cli("overlap-test", rng, "--matrix", CAT,
                         "--count", count))
    for depth in (5, 6, 7):
        jobs.append(_cli("fup-porosity", rng, "--depth", depth,
                         expect={"porous": True}))
    jobs.append(_cli("fup-porosity", rng, "--depth", 3, "--mode", "lines",
                     expect={"porous": True}))
    jobs.append(_cli("fup-porosity", rng, "--depth", 4, "--mode", "lines",
                     "--nu", 0.2, "--alpha0", 0.25, expect={"porous": False}))
    for depths in ["4,5,6,7,8"] * 4 + ["4,5,6,7,8,9"]:  # SVDs: p50 group
        jobs.append(_cli("fup-scan", rng, "--depths", depths))
    for delta in [0.6, 0.75] + [0.5] * 4:               # 0.5: p50 group
        jobs.append(_cli("up-basic", rng, "--delta", delta))
    return jobs


def _galois_arith(rng):
    jobs = []
    for n, count in [(2, 8)] * 4 + [(3, 4)] * 4:
        jobs.append(_cli("galois-sample", rng, "--n", n, "--count", count))
    for ells, n in [(5, 2), (7, 2), (11, 2), (13, 2), (13, 2), (5, 3), (5, 3),
                    (7, 3)]:
        jobs.append(_cli("galois-census", rng, "--ells", ells, "--n", n))
    for n in (1, 1, 2, 2, 2, 2, 2, 2):
        poly = ",".join(str(c) for c in _palindrome(rng, n))
        jobs.append(_cli("galois-certify", rng, "--poly", poly))
    jobs.append(_cli("galois-power-scan", rng, "--matrix", BLOCK_PAIR,
                     "--m-max", 3, expect={"k0": 2}))
    jobs.append(_cli("galois-power-scan", rng, "--matrix",
                     _symplectic_word(rng, 2, 4), "--m-max", 3))
    for ell in (7, 13, 23) + (31,) * 8:                 # 31: p50 group
        jobs.append(_cli("sl2-census", rng, "--ell", ell))
    for n in (1, 2, 2, 3):
        jobs.append(_cli("check-matrix", rng, "--matrix",
                         _symplectic_word(rng, n, 3 + n)))
    jobs.append(_cli("check-matrix", rng, "--matrix", "2,1;1,2"))
    return jobs


def warmups(workload):
    """One smallest-size job of each job type in the workload."""
    rng = random.Random("warmup")
    if workload == "scar_stream":
        return [_cli("scar-scan", rng, "--matrix", CAT, "--k", 6,
                     "--window", 1),
                _cli("scar-build", rng, "--matrix", CAT, "--k", 6),
                _cli("scar-density", rng, "--matrix", CAT, "--k", 6),
                _cli("periods", rng, "--matrix", CAT, "--k", 6),
                _cli("lattice-sum", rng, "--matrix", CAT, "--q", 1)]
    if workload == "dense_oracle":
        return [_api("egorov_defect", B=_matrix(CAT), N=34, window=1),
                _api("period_phase", B=_matrix(CAT), N=34),
                _api("unitarity", B=_matrix(CAT), N=34),
                _api("autocorrelation", B=_matrix(CAT), N=144, t_max=1),
                _cli("scar-build", rng, "--matrix", M29, "--k", 2),
                _cli("overlap-test", rng, "--matrix", CAT, "--count", 1),
                _cli("fup-porosity", rng, "--depth", 3,
                     expect={"porous": True}),
                _cli("fup-scan", rng, "--depths", "3,4,5,6"),
                _cli("up-basic", rng, "--delta", 0.75)]
    return [_cli("galois-sample", rng, "--n", 2, "--count", 2),
            _cli("galois-census", rng, "--ells", 5, "--n", 2),
            _cli("galois-certify", rng, "--poly", "1,-3,1"),
            _cli("galois-power-scan", rng, "--matrix", BLOCK_PAIR,
                 "--m-max", 1),
            _cli("sl2-census", rng, "--ell", 5),
            _cli("check-matrix", rng, "--matrix", CAT)]


_GENERATORS = {"scar_stream": _scar_stream, "dense_oracle": _dense_oracle,
               "galois_arith": _galois_arith}
WORKLOADS = tuple(_GENERATORS)


def cycle(workload, seed, index):
    """The jobs of one cycle; identical for identical arguments."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def job_key(job):
    """Canonical text of what the worker receives for a job."""
    if "argv" in job:
        return " ".join(job["argv"])
    return "%s %s" % (job["api"], sorted(job["args"].items()))
