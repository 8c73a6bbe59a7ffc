import os
import subprocess
import sys

import catlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The benchmark's tracer patches catlab's classes for the whole process,
# so the warm-up jobs run in a child.
TRACED_WARMUPS = """
import tempfile
import catlab, catlab.cli
import spans, worker, workloads
tracer = spans.Tracer()
tracer.install(catlab)
for w in workloads.WORKLOADS:
    for job in workloads.warmups(w):
        with tempfile.TemporaryDirectory() as out:
            if "argv" in job:
                rc = tracer.call("job", catlab.cli.main,
                                 job["argv"] + ["--out", out])
            else:
                rc = tracer.call("job", worker.run_api, job["api"],
                                 job["args"], out)
        assert not rc, (w, job["type"], rc)
failed = sorted({s[0] for s in tracer.spans if s[5]})
assert not failed, failed
# the unitarity warm-up builds P.dense, which metaplectic.dense.self_s times
assert "metaplectic.dense" in {s[0] for s in tracer.spans}
"""


def test_benchmark_tracer_runs_every_warmup_job():
    # perfbench wraps Propagator.apply_array and .dense, the translation's
    # apply_array and dense(), three ScarEnsemble methods, and reads
    # DiscreteSet.cells and project_gaussian(...).coeffs
    src = os.path.dirname(os.path.dirname(catlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.join(ROOT, "perfbench")]))
    subprocess.run([sys.executable, "-c", TRACED_WARMUPS], env=env,
                   check=True)
