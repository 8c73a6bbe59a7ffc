"""
Layer tracing from outside the program, and the arithmetic on its spans.

`Tracer.install` wraps catlab's public functions and a few methods at
every module attribute where callers look them up, so no file under
src/ changes.  A span is (name, parent id, start, end, work, error) and
its id is its index; spans stay in memory until the worker writes them
out once at the end of a pass.  `work` is an exact count computed from
the arguments or the result, such as the N*b points of an SL(2) apply.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

import functools
import inspect
import re
import time

LAYERS = ("symplectic", "hilbert", "metaplectic", "scars", "galois", "fup",
          "cli")
JOB = "job"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, work=None, **kwargs):
        """Run fn inside a span; `name` may be a function of the args."""
        if callable(name):
            name = name(args)
        rec = [name, self._stack[-1] if self._stack else None,
               time.perf_counter(), 0.0, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            rec[4] = work(args, out)
        return out

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, work=work, **kwargs)
        return traced

    def install(self, catlab):
        """Wrap the public layer functions and the hot methods."""
        import numpy as np
        from catlab import cli, hilbert, metaplectic, scars, symplectic

        wrapped = {}
        for layer in LAYERS[:-1]:
            mod = getattr(catlab, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap("%s.%s" % (layer, attr), obj,
                                             _WORK.get((layer, attr)))
        for attr, obj in vars(cli).items():
            if attr.startswith("cmd_") and inspect.isfunction(obj):
                wrapped[obj] = self.wrap("cli." + attr, obj)
        wrapped[cli._atomic_write] = self.wrap(
            "cli.write", cli._atomic_write,
            lambda a, out: len(a[1] if isinstance(a[1], bytes)
                               else a[1].encode()))
        # Rebind every module attribute that refers to a wrapped function,
        # including names imported into other modules and the package.
        for mod in [catlab] + [getattr(catlab, m) for m in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        def apply_name(args):
            return ("metaplectic.apply" if args[0].space.n == 1
                    else "metaplectic.tensor_apply")

        def fft_points(args, out):
            P, c = args
            if P.space.n != 1 or P.classical is None:
                return 0
            return int(np.size(c)) * abs(P.classical.entries[0][1])

        methods = [
            (metaplectic.Propagator, "apply_array", apply_name, fft_points),
            (hilbert.LatticeTranslation, "apply_array",
             "hilbert.translation_apply", None),
            (hilbert.LatticeTranslation, "dense",
             "hilbert.translation_dense", None),
            (scars.ScarEnsemble, "matrix_element", "scars.matrix_element",
             None),
            (scars.ScarEnsemble, "materialize", "scars.materialize", None),
            (scars.ScarEnsemble, "eigen_residual", "scars.eigen_residual",
             None),
            (symplectic.SymplecticMatrix, "__init__",
             "symplectic.SymplecticMatrix", None),
        ]
        for cls, attr, name, work in methods:
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], work))
        dense = metaplectic.Propagator.dense
        metaplectic.Propagator.dense = property(
            self.wrap("metaplectic.dense", dense.fget))


def _svd_elements_fup_norm(args, out):
    X_minus, X_plus = args
    return len(X_minus.cells) * len(X_plus.cells)


def _svd_elements_basic(args, out):
    """rows * cols of the support-restricted submatrix, as fup forms it."""
    import numpy as np
    from catlab import fup
    M, delta = args
    h = 1.0 / M
    x = np.fft.fftfreq(M)
    xi = 2 * np.pi * np.fft.fftfreq(M)
    smooth_bump = getattr(fup.smooth_bump, "__wrapped__", fup.smooth_bump)
    rows = np.count_nonzero(smooth_bump(x / h ** delta))
    cols = np.count_nonzero(smooth_bump(xi / h ** delta))
    return int(rows * cols)


_WORK = {
    ("galois", "certify_wreath"): lambda a, out: len(out.primes_scanned),
    ("fup", "fup_norm"): _svd_elements_fup_norm,
    ("fup", "basic_uncertainty_norm"): _svd_elements_basic,
}


# --- span arithmetic --------------------------------------------------------

def covered_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Per-span duration minus the time its children cover."""
    children = [[] for _ in spans]
    for name, parent, t0, t1, work, err in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return [(t1 - t0) - covered_length(children[i], t0, t1)
            for i, (name, parent, t0, t1, work, err) in enumerate(spans)]


def aggregate(spans):
    """{name: {"calls", "self_s", "total_s", "work", "errors"}}.

    `errors` counts exceptions that leave the span's layer: a raising span
    whose parent belongs to another layer (or the job itself).
    """
    selfs = self_times(spans)
    out = {}
    for (name, parent, t0, t1, work, err), self_s in zip(spans, selfs):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "work": 0, "errors": 0})
        rec["calls"] += 1
        rec["self_s"] += self_s
        rec["total_s"] += t1 - t0
        rec["work"] += work
        if err:
            layer = name.split(".")[0]
            if parent is None or spans[parent][0].split(".")[0] != layer:
                rec["errors"] += 1
    return out


# --- per-layer metrics ------------------------------------------------------
#
# (metric, unit, better, source) with source (field, span name).  The
# comment on each block names the end-to-end metric it should move.

def _spec(name, unit="s", better="lower", source=None):
    return (name, unit, better, source)


PER_LAYER = [
    # setup_s on every workload
    _spec("import.catlab_s"), _spec("import.sympy_s"),
    _spec("import.scipy_s"), _spec("import.numpy_s"),
    # galois_arith jobs_per_s and job_s.p50; no change on scar_stream
    _spec("symplectic.SymplecticMatrix.calls", "count", "lower",
          ("calls", "symplectic.SymplecticMatrix")),
    _spec("symplectic.SymplecticMatrix.self_s", "s", "lower",
          ("self_s", "symplectic.SymplecticMatrix")),
    _spec("symplectic.char_poly.self_s", source=("self_s",
                                                 "symplectic.char_poly")),
    _spec("symplectic.quantum_period.self_s",
          source=("self_s", "symplectic.quantum_period")),
    _spec("symplectic.phi_A.self_s", source=("self_s", "symplectic.phi_A")),
    # galois_arith jobs_per_s and job_s.p90; no change elsewhere
    _spec("galois.factor_type.calls", "count", "lower",
          ("calls", "galois.factor_type")),
    _spec("galois.factor_type.self_s", source=("self_s",
                                               "galois.factor_type")),
    _spec("galois.certify_wreath.calls", "count", "lower",
          ("calls", "galois.certify_wreath")),
    _spec("galois.certify_wreath.self_s",
          source=("self_s", "galois.certify_wreath")),
    _spec("galois.primes_per_certificate", "count", "lower",
          ("per_call", "galois.certify_wreath")),
    _spec("galois.reciprocal_census.self_s",
          source=("self_s", "galois.reciprocal_census")),
    _spec("galois.sample_sp.self_s", source=("self_s", "galois.sample_sp")),
    _spec("galois.power_scan.self_s", source=("self_s", "galois.power_scan")),
    # apply: scar_stream job_s.p50; the rest: dense_oracle job_s.p90
    _spec("metaplectic.apply.calls", "count", "lower",
          ("calls", "metaplectic.apply")),
    _spec("metaplectic.apply.self_s", source=("self_s", "metaplectic.apply")),
    _spec("metaplectic.apply.fft_points", "count", "lower",
          ("work", "metaplectic.apply")),
    _spec("metaplectic.dense.self_s", source=("self_s", "metaplectic.dense")),
    _spec("metaplectic.tensor_apply.self_s",
          source=("self_s", "metaplectic.tensor_apply")),
    _spec("metaplectic.egorov_defect.self_s",
          source=("self_s", "metaplectic.egorov_defect")),
    _spec("metaplectic.period_phase.self_s",
          source=("self_s", "metaplectic.period_phase")),
    # translation_apply: scar_stream job_s.p90; translation_dense:
    # dense_oracle job_s.p90; project_gaussian: scar_stream job_s.p50
    _spec("hilbert.translation_apply.calls", "count", "lower",
          ("calls", "hilbert.translation_apply")),
    _spec("hilbert.translation_apply.self_s",
          source=("self_s", "hilbert.translation_apply")),
    _spec("hilbert.translation_dense.self_s",
          source=("self_s", "hilbert.translation_dense")),
    _spec("hilbert.project_gaussian.self_s",
          source=("self_s", "hilbert.project_gaussian")),
    # config, build, matrix elements, scan: scar_stream job_s.p90;
    # materialize, eigen_residual: dense_oracle job_s.p90; quadrature:
    # dense_oracle jobs_per_s and peak_rss_mb
    _spec("scars.make_scar_config.self_s",
          source=("self_s", "scars.make_scar_config")),
    _spec("scars.build_scar.self_s", source=("self_s", "scars.build_scar")),
    _spec("scars.matrix_element.calls", "count", "lower",
          ("calls", "scars.matrix_element")),
    _spec("scars.matrix_element.self_s",
          source=("self_s", "scars.matrix_element")),
    _spec("scars.semiclassical_scan.self_s",
          source=("self_s", "scars.semiclassical_scan")),
    _spec("scars.materialize.self_s", source=("self_s", "scars.materialize")),
    _spec("scars.eigen_residual.self_s",
          source=("self_s", "scars.eigen_residual")),
    _spec("scars.overlap_quadrature.calls", "count", "lower",
          ("calls", "scars.overlap_quadrature")),
    _spec("scars.overlap_quadrature.self_s",
          source=("self_s", "scars.overlap_quadrature")),
    _spec("scars.overlap_closed_form.self_s",
          source=("self_s", "scars.overlap_closed_form")),
    _spec("scars.lattice_overlap_sum.self_s",
          source=("self_s", "scars.lattice_overlap_sum")),
    # porosity: dense_oracle job_s.p90 (lines mode); the rest:
    # dense_oracle job_s.p50
    _spec("fup.porosity_check.calls", "count", "lower",
          ("calls", "fup.porosity_check")),
    _spec("fup.porosity_check.self_s",
          source=("self_s", "fup.porosity_check")),
    _spec("fup.fup_norm.self_s", source=("self_s", "fup.fup_norm")),
    _spec("fup.svd_elements", "count", "lower",
          ("work", ("fup.fup_norm", "fup.basic_uncertainty_norm"))),
    _spec("fup.basic_uncertainty_norm.self_s",
          source=("self_s", "fup.basic_uncertainty_norm")),
    _spec("fup.cantor_set.self_s", source=("self_s", "fup.cantor_set")),
    _spec("fup.product_set.self_s", source=("self_s", "fup.product_set")),
    # scar_stream job_s.p90 and peak_rss_mb (scar-density row passes)
    _spec("cli.self_s", source=("self_s", "cli.cmd_")),
    _spec("cli.write_s", source=("self_s", "cli.write")),
    _spec("cli.write_bytes", "bytes", "lower", ("work", "cli.write")),
] + [_spec("%s.errors" % layer, "count", "lower", ("errors", layer + "."))
     for layer in LAYERS] + [
    # trace health
    _spec("trace.overhead_frac", "ratio", "higher"),
    _spec("trace.uncovered_frac", "ratio", "lower"),
    _spec("trace.count_mismatches", "count", "lower"),
]

# Counts that must repeat exactly across two traced passes of one seed.
REPEATABLE = ("metaplectic.apply.fft_points", "fup.svd_elements",
              "galois.factor_type.calls", "scars.matrix_element.calls")


def _matches(name, key):
    if isinstance(key, tuple):
        return name in key
    return name == key or (key.endswith((".", "_")) and name.startswith(key))


def layer_metrics(spans):
    """Per-layer metric values of one traced pass, except the import.*
    metrics and the trace.* metrics that compare passes."""
    agg = aggregate(spans)
    values = {}
    for metric, unit, better, source in PER_LAYER:
        if source is None:
            continue
        field, key = source
        recs = [rec for name, rec in agg.items() if _matches(name, key)]
        if field == "per_call":
            calls = sum(r["calls"] for r in recs)
            values[metric] = (sum(r["work"] for r in recs) / calls
                              if calls else 0.0)
        else:
            values[metric] = sum(r[field] for r in recs)
    jobs = [i for i, s in enumerate(spans) if s[0] == JOB]
    selfs = self_times(spans)
    job_time = sum(spans[i][3] - spans[i][2] for i in jobs)
    values["trace.uncovered_frac"] = (sum(selfs[i] for i in jobs) / job_time
                                      if job_time else 0.0)
    return values


# --- import breakdown -------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)")


def import_times(stderr_text, packages=("catlab", "sympy", "scipy", "numpy")):
    """Seconds per package from `python -X importtime` output.

    A package's time is the cumulative time of each of its modules whose
    importer is not itself a module of that package.
    """
    entries = []
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4),
                            int(m.group(2))))
    # Entries are listed after their children; the importer of entry i is
    # the next entry with a smaller depth.
    parent = [None] * len(entries)
    stack = []
    for i in range(len(entries) - 1, -1, -1):
        depth = entries[i][0]
        while stack and entries[stack[-1]][0] >= depth:
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)

    def top(name):
        return name.split(".")[0]

    out = {}
    for pkg in packages:
        total = 0
        for i, (depth, name, cum_us) in enumerate(entries):
            p = parent[i]
            if top(name) == pkg and (p is None or top(entries[p][1]) != pkg):
                total += cum_us
        out[pkg] = total / 1e6
    return out
