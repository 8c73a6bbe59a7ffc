"""
Command-line front-end.

Every subcommand writes files named `<subcommand>-<seed>.{csv|json|pgm}`
into the output directory, atomically (write to a temp file, then
rename).  Exit codes: 0 success, 2 precondition/usage error, 3 internal
invariant violation.  Errors are also emitted as JSON diagnostics.
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import fup, galois, hilbert, metaplectic, scars, symplectic


def _set_threads(threads):
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def parse_matrix(text):
    rows = [[int(v) for v in row.split(",")] for row in text.split(";")]
    return rows


def _atomic_write(path, data, binary=False):
    _atomic_write_chunks(path, [data], binary)


def _atomic_write_chunks(path, chunks, binary=False):
    """Writes each chunk to a temp file as it is produced, then renames."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d)
    try:
        with os.fdopen(fd, "wb" if binary else "w") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return format(v.real, ".17g") + ("+" if v.imag >= 0 else "") \
            + format(v.imag, ".17g") + "j"
    return str(v)


def write_json(path, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True,
                                   default=_fmt) + "\n")


def _row_template(types):
    """
    (template, complex columns) for rows of these value types: template %
    row is ",".join(map(_fmt, row)) once each complex column holds its
    _fmt string.  A float is "%.17g", which formats as format(v, ".17g"),
    and any other value "%s", which is str(v).
    """
    specs = ["%.17g" if issubclass(t, float) else "%s" for t in types]
    return ",".join(specs), [i for i, t in enumerate(types)
                             if issubclass(t, complex)]


def write_csv(path, header, rows):
    """
    The header and one line per row, each value as _fmt formats it; the
    rows of each distinct tuple of value types share one % template.
    """
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = _row_template(types)
        template, cplx = templates[types]
        if cplx:
            row = list(row)
            for i in cplx:
                row[i] = _fmt(row[i])
        lines.append(template % tuple(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_pgm(path, row_iter, shape, maxval):
    """
    8-bit P5 PGM, max-normalized; row_iter yields float rows, or 2-D
    blocks of rows, each written as it is produced, so no N x N image is
    held.
    """
    header = ("P5\n# max-normalized density, original max %.17g\n%d %d\n255\n"
              % (maxval, shape[1], shape[0]))
    scale = 255.0 / maxval if maxval > 0 else 0.0

    def chunks():
        yield header.encode()
        for row in row_iter:
            yield (np.clip(np.round(row * scale), 0, 255)
                   .astype(np.uint8).tobytes())

    _atomic_write_chunks(path, chunks(), binary=True)


def _out_path(args, ext):
    return os.path.join(args.out, "%s-%d.%s" % (args.subcommand, args.seed,
                                                ext))


def cmd_check_matrix(args):
    M = parse_matrix(args.matrix)
    ok = symplectic.is_symplectic(M)
    report = {"matrix": M, "symplectic": ok}
    if ok:
        A = symplectic.SymplecticMatrix(M)
        cp = symplectic.char_poly(A)
        report.update({"char_poly": list(cp.coeffs),
                       "reciprocal": cp.reciprocal,
                       "phi": list(symplectic.phi_A(A))})
    write_json(_out_path(args, "json"), report)


def cmd_periods(args):
    A = symplectic.SymplecticMatrix(parse_matrix(args.matrix))
    nk = symplectic.admissible_N(A, args.k)
    P = symplectic.quantum_period(A, nk.value)
    write_json(_out_path(args, "json"),
               {"k": args.k, "N": nk.value, "P": P, "N_even": nk.even,
                "admissible": nk.admissible})


def cmd_scar_build(args):
    scar = scars.build_scar(parse_matrix(args.matrix), args.k)
    norm2, s1 = scar.norm_squared(), scars.S1(scar.lam)
    report = {"N": scar.N, "P": scar.P, "phi": scar.phi, "lambda": scar.lam,
              "norm2": norm2, "S1": s1, "norm2_error": abs(norm2 - s1)}
    if scar.N ** 2 <= scars.MATERIALIZE_LIMIT:
        MM = metaplectic.tensor_propagator(hilbert.StateSpace(2, scar.N),
                                           scar.M, scar.M)
        report["eigenresidual"] = scar.eigen_residual(MM)
    write_json(_out_path(args, "json"), report)


def cmd_scar_scan(args):
    scar = scars.build_scar(parse_matrix(args.matrix), args.k)
    rows = scars.semiclassical_scan(scar, args.window)
    write_csv(_out_path(args, "csv"),
              ["j1", "j2", "k1", "k2", "ratio_re", "ratio_im", "target",
               "error"],
              ((j1, j2, k1, k2, r.real, r.imag, t, e)
               for j1, j2, k1, k2, r, t, e in rows))


def cmd_scar_density(args):
    scar = scars.build_scar(parse_matrix(args.matrix), args.k)
    N = scar.N
    if N > 1024:
        # the rows are streamed once for the max and once for the PGM
        maxval = max(float(row.max())
                     for row in scar.density_rows(args.center))
        write_pgm(_out_path(args, "pgm"), scar.density_rows(args.center),
                  (N, N), maxval)
        return
    # The folded block (at most 2.1 MB) gives the max, the PGM and the
    # CSV, read through c; each distinct value is formatted once.
    D, c = scar.folded_density(args.center)
    write_pgm(_out_path(args, "pgm"),
              (D[np.ix_(c[lo:lo + 64], c)] for lo in range(0, N, 64)),
              (N, N), float(D.max()))
    upper = np.triu_indices(len(D))
    S = np.empty(D.shape, dtype=object)
    S[upper] = ["%.17g" % v for v in D[upper].tolist()]
    S.T[upper] = S[upper]
    # the bytes write_csv gives: one template, with j2 filled in and j1
    # left as "\0", is filled once per folded row with its value strings
    template = "".join("\0,%d,%%s\n" % j2 for j2 in range(N))
    rows = [(template % tuple(r)).encode() for r in S[:, c].tolist()]
    del S  # the value strings go before the file's bytes are assembled
    lines = [b"j1,j2,density\n"]
    lines += [rows[i].replace(b"\0", b"%d" % j1)
              for j1, i in enumerate(c.tolist())]
    _atomic_write(_out_path(args, "csv"), b"".join(lines), binary=True)


def cmd_overlap_test(args):
    if args.count < 1:
        raise ValueError("overlap-test needs count >= 1")
    B = parse_matrix(args.matrix)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for i in range(args.count):
        while True:
            w = rng.uniform(-2, 2, size=2)
            if np.hypot(*w) <= 2:
                break
        N = [34, 144][i % 2]
        h = 1.0 / (2 * math.pi * N)
        closed = scars.overlap_closed_form(B, w, h)
        quad = scars.overlap_quadrature(B, w, h)
        err = abs(closed - quad)
        worst = max(worst, err)
        rows.append((w[0], w[1], h, closed.real, closed.imag,
                     quad.real, quad.imag, err))
    write_csv(_out_path(args, "csv"),
              ["omega1", "omega2", "h", "closed_re", "closed_im",
               "quad_re", "quad_im", "abs_err"], rows)


def cmd_lattice_sum(args):
    c = [float(v) for v in args.c.split(",")] if args.c else [0.0, 0.0]
    if len(c) != 2 or args.N < 1:
        raise ValueError("lattice-sum needs N >= 1 and exactly two --c values")
    h = 1.0 / (2 * math.pi * args.N)
    total, l0, rest = scars.lattice_overlap_sum(
        parse_matrix(args.matrix), args.q, c, h)
    write_json(_out_path(args, "json"),
               {"q": args.q, "h": h, "c": c, "sum": total, "l0_term": l0,
                "rest": rest})


def cmd_galois_census(args):
    rows = []
    for ell in [int(v) for v in args.ells.split(",")]:
        census = galois.reciprocal_census(ell, args.n)
        for two_k, rec in sorted(census["classes"].items()):
            rows.append((ell, args.n, two_k // 2, rec["count"],
                         rec["main_term"], rec["abs_error"]))
    write_csv(_out_path(args, "csv"),
              ["ell", "n", "k", "count", "main_term", "abs_error"], rows)


def cmd_galois_certify(args):
    coeffs = [int(v) for v in args.poly.split(",")]
    cert = galois.certify_wreath(coeffs, args.prime_bound)
    write_json(_out_path(args, "json"),
               {"coeffs": coeffs, "verdict": cert.verdict,
                "witnesses": {str(k): [v[0], list(v[1])]
                              for k, v in cert.witnesses.items()},
                "factorization": ([list(p) for p in cert.factorization]
                                  if cert.factorization else None)})


def cmd_galois_sample(args):
    mats = galois.sample_sp(args.n, args.word_length, args.count,
                            seed=args.seed)
    verdicts = {}
    rows = []
    for i, A in enumerate(mats):
        cp = symplectic.char_poly(A)
        cert = galois.certify_wreath(list(cp.coeffs), args.prime_bound)
        verdicts[cert.verdict] = verdicts.get(cert.verdict, 0) + 1
        rows.append((i, cert.verdict,
                     ";".join(str(c) for c in cp.coeffs)))
    write_csv(_out_path(args, "csv"), ["index", "verdict", "char_poly"],
              rows)
    write_json(_out_path(args, "json"),
               {"count": args.count, "verdicts": verdicts,
                "fraction_certified_wreath":
                    verdicts.get("certified_wreath", 0) / args.count})


def cmd_galois_power_scan(args):
    scan = galois.power_scan(parse_matrix(args.matrix), args.m_max,
                             args.prime_bound)
    per_m = []
    for rec in scan["per_m"]:
        entry = {"m": rec["m"], "coeffs": list(rec["coeffs"]),
                 "verdict": rec["verdict"]}
        if "factorization" in rec:
            entry["factorization"] = [list(p) for p in rec["factorization"]]
        if rec.get("witness"):
            entry["witness"] = rec["witness"]
        per_m.append(entry)
    write_json(_out_path(args, "json"), {"per_m": per_m, "k0": scan["k0"]})


def cmd_sl2_census(args):
    counts = galois.sl2_census(args.ell)
    write_csv(_out_path(args, "csv"), ["t", "count"],
              sorted(counts.items()))


def cmd_fup_porosity(args):
    X = fup.cantor_set(args.depth)
    if args.mode == "lines":
        X = fup.product_set(X, X)
    alpha0 = 3.0 ** (-args.depth) if args.alpha0 is None else args.alpha0
    ok, ce = fup.porosity_check(X, args.nu, alpha0, args.alpha1,
                                mode=args.mode)
    write_json(_out_path(args, "json"),
               {"depth": args.depth, "nu": args.nu, "mode": args.mode,
                "porous": ok, "counterexample": ce})


def cmd_fup_scan(args):
    depths = [int(v) for v in args.depths.split(",")]
    run = fup.scaling_experiment("fup", depths=depths)
    write_csv(_out_path(args, "csv"), ["M", "h", "norm"],
              list(zip(run.sizes, run.hs, run.norms)))
    write_json(_out_path(args, "json"),
               {"depths": depths, "beta": run.fitted_slope,
                "monotone_decreasing":
                    all(a > b for a, b in zip(run.norms, run.norms[1:]))})


def cmd_up_basic(args):
    run = fup.scaling_experiment("basic", delta=args.delta)
    write_csv(_out_path(args, "csv"), ["M", "h", "norm"],
              list(zip(run.sizes, run.hs, run.norms)))
    write_json(_out_path(args, "json"),
               {"delta": args.delta, "fitted_slope": run.fitted_slope,
                "theory_slope": run.theory_slope,
                "abs_error": abs(run.fitted_slope - run.theory_slope)})


@functools.cache
def build_parser():
    """
    The argument parser, built once per process.  A subcommand's handler
    is the module-level cmd_<name>, looked up by name on every call so
    that rebinding it (a test's monkeypatch, a tracer) takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="catlab",
        description="quantum cat map / scarring / Galois / FUP laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".")
        p.add_argument("--threads", type=int, default=0)
        for flag, spec in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **spec)
        return p

    mat = {"required": True, "help": "rows ';'-separated, e.g. '2,1;1,1'"}
    add("check-matrix", matrix=mat)
    add("periods", matrix=mat, k={"type": int, "required": True})
    add("scar-build", matrix=mat, k={"type": int, "required": True})
    add("scar-scan", matrix=mat,
        k={"type": int, "required": True},
        window={"type": int, "default": 2})
    add("scar-density", matrix=mat,
        k={"type": int, "required": True},
        center={"action": "store_true"})
    add("overlap-test", matrix=mat, count={"type": int, "default": 100})
    add("lattice-sum", matrix=mat,
        q={"type": int, "default": 0}, N={"type": int, "default": 144},
        c={"default": ""})
    add("galois-census", ells={"default": "5,7,11,13"},
        n={"type": int, "default": 2})
    add("galois-certify",
        poly={"required": True, "help": "monic coeffs, high degree first"},
        prime_bound={"type": int, "default": 200})
    add("galois-sample",
        n={"type": int, "default": 2},
        word_length={"type": int, "default": 20},
        count={"type": int, "default": 500},
        prime_bound={"type": int, "default": 200})
    add("galois-power-scan", matrix=mat,
        m_max={"type": int, "default": 5},
        prime_bound={"type": int, "default": 200})
    add("sl2-census", ell={"type": int, "required": True})
    add("fup-porosity",
        depth={"type": int, "default": 6},
        nu={"type": float, "default": 1 / 9},
        alpha0={"type": float, "default": None},
        alpha1={"type": float, "default": 1.0},
        mode={"choices": ["balls", "lines"], "default": "balls"})
    add("fup-scan", depths={"default": "4,5,6,7,8,9"})
    add("up-basic", delta={"type": float, "default": 0.75})
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            print(json.dumps({"error": "invalid arguments or subcommand"}),
                  file=sys.stderr)
            return 2
        return 0
    _set_threads(args.threads)
    try:
        globals()["cmd_" + args.subcommand.replace("-", "_")](args)
        return 0
    except (ValueError, OverflowError) as exc:
        return _fail(args, exc, "precondition", 2)
    except OSError as exc:
        # Subcommands read nothing from disk, so this is the write into
        # --out failing: report it on stderr only.
        return _fail(args, exc, "precondition", 2, write_out=False)
    except (AssertionError, RuntimeError, ArithmeticError,
            MemoryError) as exc:
        return _fail(args, exc, "invariant", 3)


def _fail(args, exc, kind, code, write_out=True):
    """Emits the JSON diagnostic to --out (when writable) and stderr."""
    diag = {"error": str(exc) or type(exc).__name__, "kind": kind}
    if write_out:
        try:
            write_json(_out_path(args, "json"), diag)
        except OSError:
            pass
    print(json.dumps(diag), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
