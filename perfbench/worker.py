"""
Benchmark worker: runs catlab jobs sent by run.py one at a time.

Protocol: one JSON object per line on stdin, one reply per line on the
original stdout.  Anything catlab prints goes to stderr instead.

  {"cmd": "job", "job": {...}, "dir": path}  -> {"ok", "rc", "wall_s", "error"}
  {"cmd": "trace"}                           -> {"ok": true}
  {"cmd": "dump", "path": path}              -> {"ok": true, "spans": n}
  {"cmd": "exit"}                            -> {"maxrss_kb", "threads"}

The client sets OMP/OPENBLAS/MKL_NUM_THREADS=1 in the environment; they
are also defaulted here before numpy can load.
"""

import json
import os
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")


def os_threads():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def run_api(name, args, out_dir):
    """One public-API oracle call; writes <name>.json into out_dir."""
    import numpy as np
    from catlab import hilbert, metaplectic, scars, symplectic
    N = args["N"]
    space = hilbert.StateSpace(1, N)
    P = metaplectic.metaplectic_sl2(space, args["B"])
    if name == "egorov_defect":
        result = {"defect": metaplectic.egorov_defect(P, args["window"])}
    elif name == "period_phase":
        period = symplectic.quantum_period(
            symplectic.SymplecticMatrix(args["B"]), N)
        pp = metaplectic.period_phase(P, period)
        result = {"P": period, "phi": pp.phi, "defect": pp.defect}
    elif name == "unitarity":
        M = P.dense
        result = {"unitarity": float(np.abs(M.conj().T @ M
                                            - np.eye(N)).max())}
    elif name == "autocorrelation":
        # |<G, M^{+-t} G> - sqrt(2 / (lambda^t + lambda^-t))| per t >= 0
        G = hilbert.project_gaussian(space).coeffs
        adj = metaplectic.metaplectic_adjoint(space, args["B"])
        lam = scars.leading_eigenvalue(symplectic.SymplecticMatrix(args["B"]))
        fwd = bwd = G
        deviation = []
        for t in range(args["t_max"] + 1):
            target = scars.gaussian_autocorrelation(lam, t)
            deviation.append(max(abs(np.vdot(G, fwd) - target),
                                 abs(np.vdot(G, bwd) - target)))
            fwd, bwd = P.apply_array(fwd), adj.apply_array(bwd)
        result = {"deviation": deviation}
    else:
        raise ValueError("unknown API job %r" % name)
    with open(os.path.join(out_dir, name + ".json"), "w") as f:
        json.dump(result, f)


def main():
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    t0 = time.perf_counter()
    import catlab
    import catlab.cli
    import numpy
    import scipy
    import sympy
    send({"ready": True, "import_s": time.perf_counter() - t0,
          "pid": os.getpid(), "threads": os_threads(),
          "versions": {"python": sys.version.split()[0],
                       "numpy": numpy.__version__,
                       "scipy": scipy.__version__,
                       "sympy": sympy.__version__,
                       "catlab": catlab.__version__}})
    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "job":
            job, out_dir = msg["job"], msg["dir"]
            if "argv" in job:
                argv = job["argv"] + ["--out", out_dir]
                fn, fargs = catlab.cli.main, (argv,)
            else:
                fn, fargs = run_api, (job["api"], job["args"], out_dir)
            start = time.perf_counter()
            error = None
            try:
                if tracer is None:
                    rc = fn(*fargs)
                else:
                    rc = tracer.call("job", fn, *fargs)
            except Exception:
                rc, error = None, traceback.format_exc()
            wall = time.perf_counter() - start
            if error:
                sys.stderr.write(error)
            send({"ok": error is None and not rc, "rc": rc, "wall_s": wall,
                  "error": error and error.strip().splitlines()[-1]})
        elif cmd == "trace":
            import spans
            tracer = spans.Tracer()
            tracer.install(catlab)
            send({"ok": True})
        elif cmd == "dump":
            with open(msg["path"], "w") as f:
                json.dump(tracer.spans, f)
            n = len(tracer.spans)
            tracer.spans.clear()
            send({"ok": True, "spans": n})
        elif cmd == "exit":
            import resource
            send({"maxrss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss, "threads": os_threads()})
            break


if __name__ == "__main__":
    main()
