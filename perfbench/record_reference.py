"""
Records the exact outputs of the default seed's first cycles, which
run.py compares against on runs with that seed.

    python3 perfbench/record_reference.py scar_stream 12

Record at the commit whose outputs are the reference; re-record only
when a change is meant to alter an exact output, and say so.
"""

import json
import os
import shutil
import sys

import run
import workloads


def record(workload, cycles):
    base = os.path.join(run.OUT_ROOT, "reference-%s-%d" % (workload,
                                                          os.getpid()))
    os.makedirs(base)
    bench = run.Run(workload, run.DEFAULT_SEED, base)
    bench.reference = None
    worker, _ = run.start_worker(bench)
    try:
        for i in range(cycles):
            for job in workloads.cycle(workload, run.DEFAULT_SEED, i):
                bench.run(worker, job)
    finally:
        worker.close()
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(run.OUT_ROOT)
        except OSError:
            pass
    if bench.failures:
        sys.exit("not recorded, failures:\n" + "\n".join(bench.failures))
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
             for k, v in sorted(bench.exact.items())]
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(run.REFERENCE_DIR, workload + ".json"), "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record(sys.argv[1], int(sys.argv[2]))
