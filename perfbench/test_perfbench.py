"""Unit tests of the benchmark's own logic: python -m pytest perfbench -q"""

import collections
import json
import os

import pytest

import checks
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Inputs the seed may draw; every other flag is part of a job's size.
_DRAWN = {"--seed", "--c", "--center", "--poly"}


def _size(job):
    if "api" in job:
        return (job["type"], json.dumps(job["args"], sort_keys=True))
    argv, out, i = job["argv"], [job["type"]], 1
    while i < len(argv):
        flag = argv[i].split("=")[0]
        has_value = "=" not in argv[i] and flag != "--center"
        value = argv[i + 1] if has_value else argv[i][len(flag) + 1:]
        drawn = flag in _DRAWN or (flag == "--matrix" and
                                   job["type"] in ("galois-power-scan",
                                                   "check-matrix"))
        if not drawn:
            out.append("%s=%s" % (flag, value))
        i += 2 if has_value else 1
    return tuple(out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_jobs(workload):
    first = [workloads.cycle(workload, 7, i) for i in range(3)]
    again = [workloads.cycle(workload, 7, i) for i in range(3)]
    assert first == again
    assert first[0] != workloads.cycle(workload, 8, 0)
    assert first[0] != first[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_draws_only_cost_neutral_inputs(workload):
    sizes = [collections.Counter(_size(j) for j in
                                 workloads.cycle(workload, seed, i))
             for seed, i in ((1, 0), (2, 0), (1, 5))]
    assert sizes[0] == sizes[1] == sizes[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmups_cover_each_job_type_and_all_are_checked(workload):
    types = {j["type"] for j in workloads.cycle(workload, 0, 0)}
    warm = [j["type"] for j in workloads.warmups(workload)]
    assert sorted(warm) == sorted(types)
    assert types <= set(checks.CHECKS)


def _span(name, parent, t0, t1, work=0, err=False):
    return [name, parent, t0, t1, work, err]


def test_self_time_of_nested_spans():
    s = [_span("job", None, 0.0, 10.0),
         _span("scars.a", 0, 1.0, 6.0),
         _span("metaplectic.b", 1, 2.0, 3.0),
         _span("metaplectic.c", 1, 2.5, 4.0),    # overlaps its sibling
         _span("fup.d", 0, 7.0, 9.0),
         _span("fup.e", 4, 8.5, 9.5)]            # runs past its parent
    assert spans.self_times(s) == pytest.approx([3.0, 3.0, 1.0, 1.5, 1.5, 1.0])
    assert spans.covered_length([(1, 2), (1.5, 3), (5, 7)], 0, 6) == 3.0
    assert spans.covered_length([], 0, 1) == 0.0


def test_aggregate_counts_errors_that_leave_a_layer():
    s = [_span("job", None, 0, 5),
         _span("cli.cmd_x", 0, 0, 5, err=True),
         _span("scars.f", 1, 1, 4, err=True),
         _span("scars.g", 2, 2, 3, err=True),    # caught nowhere in scars
         _span("cli.write", 1, 4, 5, work=7)]
    agg = spans.aggregate(s)
    assert agg["scars.g"]["errors"] == 0
    assert agg["scars.f"]["errors"] == 1
    assert agg["cli.cmd_x"]["errors"] == 1
    assert agg["cli.cmd_x"]["self_s"] == pytest.approx(1.0)
    values = spans.layer_metrics(s)
    assert values["scars.errors"] == 1 and values["cli.errors"] == 1
    assert values["cli.write_bytes"] == 7
    assert values["cli.self_s"] == pytest.approx(1.0)
    assert values["trace.uncovered_frac"] == 0.0


def test_tracer_records_parents_and_escaping_exceptions():
    t = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    outer = t.wrap("fup.outer", lambda x: t.call("scars.inner", inner, x,
                                                 work=lambda a, out: out))
    assert outer(1) == 2
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s[0], s[1], s[4], s[5]) for s in t.spans]
    assert names == [("fup.outer", None, 0, False),
                     ("scars.inner", 0, 2, False),
                     ("fup.outer", None, 0, True),
                     ("scars.inner", 2, 0, True)]
    assert all(s[2] <= s[3] for s in t.spans)


def test_import_times_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |     mpmath",
        "import time:        30 |         50 |   sympy",
        "import time:        10 |         10 |       scipy._lib",
        "import time:         5 |         15 |     scipy",
        "import time:         5 |         20 |   scipy.ndimage",
        "import time:        10 |        230 | catlab",
    ])
    got = spans.import_times(text)
    assert got == pytest.approx({"catlab": 230e-6, "numpy": 150e-6,
                                 "sympy": 50e-6, "scipy": 20e-6})


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [s[:3] for s in spans.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]]
               for w in bench["workloads"])


def test_checks_reject_wrong_outputs(tmp_path):
    rows = "t,count\n" + "".join("%d,%d\n" % (t, 49) for t in range(7))
    (tmp_path / "sl2-census-3.csv").write_text(rows)
    job = {"type": "sl2-census", "argv": ["sl2-census", "--ell", "7",
                                          "--seed", "3"], "expect": {}}
    with pytest.raises(checks.CheckError, match="ell\\^3 - ell"):
        checks.check(job, str(tmp_path))
    job["argv"][-1] = "4"
    with pytest.raises(checks.CheckError, match="unreadable"):
        checks.check(job, str(tmp_path))


def test_exact_helpers():
    assert checks._char_poly([[2, 1], [1, 1]]) == [1, -3, 1]
    block = workloads.BLOCK_PAIR
    assert checks._is_symplectic(checks._matrix(block))
    assert checks._order_mod([[2, 1], [1, 1]], 144) == 12
    assert checks._N_k([[5, 2], [2, 1]], 8) == 235416
    assert checks._polymul([1, 7, 1], [1, 7, 1]) == [1, 14, 51, 14, 1]
