"""
catlab benchmark: a closed loop of one client and one worker process.

    python3 perfbench/run.py --workload scar_stream --seed 1 --seconds 20 --trace 0

The client (this file) generates the workload's jobs from the seed,
starts a fresh worker interpreter (perfbench/worker.py) with BLAS pinned
to one thread, sends it one job at a time, checks each job's artifacts
(checks.py) and sends the next.  A job is one in-process
`catlab.cli.main(argv)` call or one public-API oracle call.

--trace 0 measures the end-to-end metrics:
  setup_s       median over SETUP_REPEATS fresh workers of the time from
                starting the interpreter until catlab is imported and one
                smallest-size warm-up job of each job type has finished
  jobs_per_s    correct jobs per second of round-trip time in the timed
                phase, which runs whole cycles until --seconds have passed
  job_s.p50/p90 median and 90th percentile of the worker's time per job
  peak_rss_mb   the timed worker's ru_maxrss
  success_rate  correct jobs / attempted jobs (1 - error rate)

--trace 1 runs the seed's first cycle twice untraced (the first pass
settles first-call costs), then twice traced (spans.py), and reports the
per-layer metrics of the first traced pass, the import breakdown from
`python -X importtime`, and trace health.

The last line of stdout is the result; the line before it records the
environment, the sample counts and values observed but not bounded.
"""

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
DEFAULT_SEED = 0
JOB_TIMEOUT = 90.0
RUN_BUDGET = 150.0  # seconds; the run stops starting jobs after this
OUT_ROOT = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_s.p50", "s"),
              ("job_s.p90", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio")]


class WorkerError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Worker:
    """A worker process and a reader thread for its reply lines."""

    def __init__(self, log_path):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            cwd=ROOT, env=worker_env())
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ready = self._reply(JOB_TIMEOUT)
        if not self.ready.get("ready"):
            raise WorkerError("worker did not start")

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self, timeout):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise WorkerError("worker timed out") from None
        if line is None:
            raise WorkerError("worker exited (code %s)" % self.proc.wait())
        return json.loads(line)

    def request(self, msg, timeout=JOB_TIMEOUT):
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()
        return self._reply(timeout)

    def close(self):
        """Ask the worker to exit; returns its exit report or None."""
        report = None
        try:
            if self.proc.poll() is None:
                report = self.request({"cmd": "exit"}, timeout=10)
        except (WorkerError, OSError, ValueError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self._reader.join(timeout=10)
            self.proc.stdin.close()
            self.proc.stdout.close()
            self._log.close()
        return report


class Run:
    """Runs and checks jobs, and keeps the tallies of one benchmark run."""

    def __init__(self, workload, seed, base):
        self.workload = workload
        self.seed = seed
        self.base = base
        self.count = 0
        self.attempted = 0
        self.failures = []  # jobs that failed or gave wrong output
        self.problems = []  # run-level faults that make the run incorrect
        self.observed = {}
        self.exact = {}
        self.reference = None
        if seed == DEFAULT_SEED:
            path = os.path.join(REFERENCE_DIR, workload + ".json")
            if os.path.exists(path):
                with open(path) as f:
                    self.reference = json.load(f)
        self.reference_checked = 0

    def send(self, worker, job):
        """Run one job; returns (job dir, reply, round-trip seconds)."""
        self.count += 1
        job_dir = os.path.join(self.base, "job%d" % self.count)
        os.makedirs(job_dir)
        msg = {"cmd": "job", "dir": job_dir,
               "job": {k: job[k] for k in ("argv", "api", "args") if k in job}}
        start = time.perf_counter()
        reply = worker.request(msg)
        return job_dir, reply, time.perf_counter() - start

    def check(self, job, job_dir, reply):
        """Checks a finished job's output; returns True when correct."""
        self.attempted += 1
        key = workloads.job_key(job)
        try:
            if not reply["ok"]:
                raise checks.CheckError("exit %s %s" % (reply["rc"],
                                                        reply["error"] or ""))
            exact, observed = checks.check(job, job_dir)
            exact = json.loads(json.dumps(exact))
            if self.reference is not None and key in self.reference:
                self.reference_checked += 1
                if self.reference[key] != exact:
                    raise checks.CheckError("differs from the reference")
            self.exact[key] = exact
            size = key.split(" --seed ")[0]
            for name, value in (observed or {}).items():
                slot = self.observed.setdefault(size, {})
                slot[name] = max(slot.get(name, value), value)
            return True
        except checks.CheckError as exc:
            self.failures.append("%s: %s" % (key, exc))
            return False
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)

    def run(self, worker, job):
        job_dir, reply, rtt = self.send(worker, job)
        return self.check(job, job_dir, reply), reply["wall_s"], rtt


def start_worker(run):
    """A fresh worker with its warm-up jobs done; returns (worker, setup_s)."""
    start = time.perf_counter()
    worker = Worker(os.path.join(run.base, "worker.log"))
    try:
        done = [(job,) + run.send(worker, job)[:2]
                for job in workloads.warmups(run.workload)]
        setup = time.perf_counter() - start
        for job, job_dir, reply in done:
            run.check(job, job_dir, reply)
    except BaseException:
        worker.close()
        raise
    return worker, setup


def timed_phase(run, worker, seconds, started):
    """Whole cycles until `seconds` of round-trip time have passed.

    Returns the worker's time per job, each cycle's (correct jobs,
    round-trip seconds), and the whole phase's correct jobs per second.
    """
    walls, cycles, over_budget = [], [], False
    while sum(t for _, t in cycles) < seconds and not over_budget:
        cycle_rtt, correct = 0.0, 0
        for job in workloads.cycle(run.workload, run.seed, len(cycles)):
            ok, wall, rtt = run.run(worker, job)
            walls.append(wall)
            cycle_rtt += rtt
            correct += ok
            if time.perf_counter() - started > RUN_BUDGET:
                run.problems.append("run budget exhausted mid-cycle")
                over_budget = True
                break
        cycles.append((correct, cycle_rtt))
    rate = sum(c for c, _ in cycles) / sum(t for _, t in cycles)
    return walls, cycles, rate


def end_to_end(run, seconds, started):
    setups = []
    worker = None
    try:
        for _ in range(SETUP_REPEATS):
            if worker is not None:
                worker.close()
            worker, setup = start_worker(run)
            setups.append(setup)
        ready = worker.ready
        walls, cycles, rate = timed_phase(run, worker, seconds, started)
    finally:
        report = worker.close() if worker is not None else None
    if report is None:
        raise WorkerError("worker gave no exit report")
    p90 = statistics.quantiles(walls, n=10)[8]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": rate,
        "job_s.p50": statistics.median(walls),
        "job_s.p90": p90,
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        "success_rate": (run.attempted - len(run.failures)) / run.attempted,
    }
    info = {"samples": {"jobs": len(walls),
                        "cycle_jobs_per_s": [c / t for c, t in cycles],
                        "beyond_p90": sum(w > p90 for w in walls),
                        "setups_s": setups},
            "worker": ready, "worker_threads_at_exit": report["threads"]}
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, info


def import_breakdown(repeats=3):
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import catlab"], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise WorkerError("import catlab failed:\n" + proc.stderr[-2000:])
        samples.append(spans.import_times(proc.stderr))
    return {pkg: statistics.median(s[pkg] for s in samples)
            for pkg in samples[0]}


def traced(run, started):
    imports = import_breakdown()
    jobs = workloads.cycle(run.workload, run.seed, 0)
    worker, _ = start_worker(run)
    try:
        for job in jobs:  # settles first-call costs before either timing
            run.run(worker, job)
        untraced = sum(run.run(worker, job)[1] for job in jobs)
        worker.request({"cmd": "trace"})
        passes = []
        for i in range(2):
            wall = sum(run.run(worker, job)[1] for job in jobs)
            path = os.path.join(run.base, "spans%d.json" % i)
            worker.request({"cmd": "dump", "path": path})
            with open(path) as f:
                passes.append((wall, spans.layer_metrics(json.load(f))))
        ready = worker.ready
    finally:
        report = worker.close()
    values = dict(passes[0][1])
    mismatched = [m for m in spans.REPEATABLE
                  if passes[0][1][m] != passes[1][1][m]]
    if mismatched:
        run.problems.append("counts differ between traced passes: %s"
                            % ", ".join(mismatched))
    for pkg, sec in imports.items():
        values["import.%s_s" % pkg] = sec
    values["trace.overhead_frac"] = untraced / statistics.mean(
        w for w, _ in passes)
    values["trace.count_mismatches"] = len(mismatched)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, better, source in spans.PER_LAYER}
    info = {"samples": {"jobs_per_pass": len(jobs), "passes": 4},
            "repeat_counts": {m: [p[1][m] for p in passes]
                              for m in spans.REPEATABLE},
            "worker": ready,
            "worker_threads_at_exit": report and report["threads"]}
    return metrics, info


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "catlab", "__init__.py")):
        print("no catlab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    base = os.path.join(OUT_ROOT, "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(base)
    run = Run(args.workload, args.seed, base)
    try:
        if args.trace:
            metrics, info = traced(run, started)
        else:
            metrics, info = end_to_end(run, args.seconds, started)
    except WorkerError as exc:
        log = os.path.join(base, "worker.log")
        if os.path.exists(log):
            with open(log, errors="replace") as f:
                sys.stderr.write(f.read()[-4000:])
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass
    info.update({
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "trace": args.trace,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(), "git_revision": git_revision(),
                "thread_vars": {v: worker_env()[v] for v in THREAD_VARS}},
        "reference_jobs_checked": run.reference_checked,
        "failures": run.failures[:20], "problems": run.problems,
        "observed": run.observed})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not (run.failures or run.problems),
                      "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
