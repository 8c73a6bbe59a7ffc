import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import catlab
from catlab.cli import _fmt, main, parse_matrix, write_csv, write_pgm

CAT = "2,1;1,1"
BLOCK = "0,0,2,1;0,0,1,1;-2,-1,0,0;-1,-1,0,0"


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_parse_matrix():
    assert parse_matrix("2,1;1,1") == [[2, 1], [1, 1]]
    assert parse_matrix("1,0,0;0,1,0;0,0,1") == [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]


def test_write_csv_templates_match_fmt(tmp_path):
    # Each row goes through one % template per tuple of value types; the
    # bytes are those of ",".join(map(_fmt, row)) for every type _fmt
    # meets: bool, int, float, numpy scalars, complex and str.
    rng = np.random.default_rng(3)
    floats = [0.0, -0.0, 1e16, 1e17, 0.1, 1 / 3, 5e-324, -2.5e-300,
              1.7976931348623157e308, math.inf, -math.inf, math.nan]
    floats += (rng.standard_normal(200) * 10.0 ** rng.integers(
        -300, 300, 200)).tolist()
    rows = [(x, np.float64(-x), i, True, "a%sb") for i, x in enumerate(floats)]
    rows += [(np.int64(-7), np.int32(3), np.uint8(200), np.bool_(False),
              np.float32(0.1), np.float16(2.5), 10 ** 30, False, ""),
             (complex(1, -0.0), complex(-0.0, 0.0), complex(math.nan, 1),
              np.complex128(3 - 4j), np.complex64(1 + 2j), 7, 0.5), ()]
    write_csv(tmp_path / "t.csv", ["x", "y"], rows)
    want = "\n".join(["x,y"] + [",".join(map(_fmt, r)) for r in rows])
    assert (tmp_path / "t.csv").read_text() == want + "\n"


def test_check_matrix(tmp_path):
    assert main(["check-matrix", "--matrix", CAT,
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "check-matrix-0.json")
    assert out["symplectic"]
    assert out["char_poly"] == [1, -3, 1]
    assert out["reciprocal"]
    assert out["phi"] == [0, 1]
    assert main(["check-matrix", "--matrix", "2,0;0,1",
                 "--out", str(tmp_path), "--seed", "1"]) == 0
    out = read_json(tmp_path / "check-matrix-1.json")
    assert not out["symplectic"] and "char_poly" not in out


def test_periods(tmp_path):
    assert main(["periods", "--matrix", CAT, "--k", "6",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "periods-0.json")
    assert (out["N"], out["P"]) == (144, 12)
    assert out["N_even"] and out["admissible"]


def test_periods_precondition_error(tmp_path):
    rc = main(["periods", "--matrix", "1,1;0,1", "--k", "6",
               "--out", str(tmp_path)])
    assert rc == 2
    out = read_json(tmp_path / "periods-0.json")
    assert out["kind"] == "precondition"


def test_unknown_subcommand_and_bad_matrix(tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["check-matrix", "--matrix", "abc",
                 "--out", str(tmp_path)]) == 2


def test_invariant_errors_exit_three(tmp_path, monkeypatch):
    import catlab.scars
    def boom(*a, **k):
        raise AssertionError("forced invariant failure")
    monkeypatch.setattr(catlab.scars, "build_scar", boom)
    rc = main(["scar-build", "--matrix", CAT, "--k", "6",
               "--out", str(tmp_path)])
    assert rc == 3
    out = read_json(tmp_path / "scar-build-0.json")
    assert out["kind"] == "invariant"


def test_memory_error_exits_three(tmp_path, monkeypatch, capsys):
    import catlab.scars
    def boom(*a, **k):
        raise MemoryError("Unable to allocate 35.8 GiB")
    monkeypatch.setattr(catlab.scars, "build_scar", boom)
    rc = main(["scar-build", "--matrix", CAT, "--k", "24",
               "--out", str(tmp_path)])
    assert rc == 3
    out = read_json(tmp_path / "scar-build-0.json")
    assert out == {"error": "Unable to allocate 35.8 GiB", "kind": "invariant"}
    assert json.loads(capsys.readouterr().err) == out


def test_scar_build_refuses_oversized_orbit(tmp_path, monkeypatch, capsys):
    # N_24 = F_48 ~ 4.8e9: the 48 x N orbit would need 3.7 TB
    import catlab.hilbert
    import catlab.scars
    def unreachable(*a, **k):
        raise AssertionError("a length-N array was about to be allocated")
    monkeypatch.setattr(catlab.scars, "ScarEnsemble", unreachable)
    monkeypatch.setattr(catlab.scars, "metaplectic_sl2", unreachable)
    monkeypatch.setattr(catlab.hilbert, "project_gaussian", unreachable)
    rc = main(["scar-build", "--matrix", CAT, "--k", "24",
               "--out", str(tmp_path)])
    assert rc == 2
    out = read_json(tmp_path / "scar-build-0.json")
    assert out["kind"] == "precondition"
    assert "SCAR_MAX_BYTES" in out["error"]
    assert json.loads(capsys.readouterr().err) == out


def test_unwritable_out_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["check-matrix", "--matrix", CAT,
               "--out", str(blocker / "sub")])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["kind"] == "precondition"
    assert "Not a directory" in diag["error"]
    assert blocker.read_text() == "x"
    assert os.listdir(tmp_path) == ["file"]


def test_quadrature_cap_exits_three(tmp_path, monkeypatch, capsys):
    import catlab.scars
    monkeypatch.setattr(catlab.scars, "QUADRATURE_MAX_POINTS", 1000)
    rc = main(["overlap-test", "--matrix", CAT, "--count", "1",
               "--out", str(tmp_path)])
    assert rc == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "overlap quadrature failed to converge",
                    "kind": "invariant"}
    assert read_json(tmp_path / "overlap-test-0.json") == diag


def test_scar_build(tmp_path):
    assert main(["scar-build", "--matrix", CAT, "--k", "6",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "scar-build-0.json")
    assert (out["N"], out["P"]) == (144, 12)
    assert float(out["eigenresidual"]) < 1e-10
    assert float(out["norm2_error"]) < 0.01


def test_scar_build_above_materialize_limit_builds_no_orbit(tmp_path,
                                                           monkeypatch):
    # At k = 12, N^2 is above MATERIALIZE_LIMIT: norm2 and phi come from
    # the lattice, M is applied zero times, and no P x N orbit (24 x 46368
    # complex, 17.8 MB) is allocated.
    applies = []
    apply_array = catlab.metaplectic.Propagator.apply_array

    def counted(self, c):
        applies.append(np.shape(c))
        return apply_array(self, c)

    monkeypatch.setattr(catlab.metaplectic.Propagator, "apply_array", counted)
    tracemalloc.start()
    try:
        rc = main(["scar-build", "--matrix", CAT, "--k", "12",
                   "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and applies == []
    out = read_json(tmp_path / "scar-build-0.json")
    assert (out["N"], out["P"]) == (46368, 24)
    assert "eigenresidual" not in out
    assert peak < out["P"] * out["N"] * 16 / 4


def test_scar_scan(tmp_path):
    assert main(["scar-scan", "--matrix", CAT, "--k", "6", "--window", "1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scar-scan-0.csv").read_text().strip().splitlines()
    assert lines[0] == "j1,j2,k1,k2,ratio_re,ratio_im,target,error"
    assert len(lines) == 1 + 81
    first = lines[1].split(",")
    row = {k: v for k, v in zip(lines[0].split(","), first)}
    assert float(row["error"]) < 0.25


def test_scar_density(tmp_path):
    assert main(["scar-density", "--matrix", CAT, "--k", "6",
                 "--out", str(tmp_path)]) == 0
    pgm = (tmp_path / "scar-density-0.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")
    header_end = pgm.index(b"255\n") + 4
    assert len(pgm) - header_end == 144 * 144
    assert max(pgm[header_end:]) == 255  # max-normalized
    csv_lines = (tmp_path / "scar-density-0.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 144 * 144


def test_scar_density_folds_one_block(tmp_path, monkeypatch):
    # at N = 144 <= 1024 one folded block feeds the max, the PGM and the
    # CSV; no density row is computed
    import catlab.scars
    calls = []
    folded_density = catlab.scars.ScarEnsemble.folded_density

    def counted(self, center):
        calls.append(center)
        return folded_density(self, center)

    def refused(self, center):
        raise AssertionError("density_rows called at N <= 1024")

    monkeypatch.setattr(catlab.scars.ScarEnsemble, "folded_density", counted)
    monkeypatch.setattr(catlab.scars.ScarEnsemble, "density_rows", refused)
    assert main(["scar-density", "--matrix", CAT, "--k", "6", "--center",
                 "--out", str(tmp_path)]) == 0
    assert calls == [True]
    lines = (tmp_path / "scar-density-0.csv").read_text().splitlines()
    assert len(lines) == 1 + 144 * 144


def _density_csv(path, N):
    """The CSV's value strings as an N x N grid, after checking j1, j2."""
    header, *lines = path.read_text().splitlines()
    assert header == "j1,j2,density"
    cells = [line.split(",") for line in lines]
    assert [(int(a), int(b)) for a, b, _ in cells] == \
        [(j1, j2) for j1 in range(N) for j2 in range(N)]
    return np.array([v for _, _, v in cells]).reshape(N, N)


@pytest.mark.parametrize("center", [False, True])
def test_scar_density_csv_symmetries_and_max(tmp_path, center):
    # the value strings are bitwise invariant under j1 -> -j1, j2 -> -j2
    # and the swap, and the PGM header carries the CSV's max
    assert main(["scar-density", "--matrix", "5,2;2,1", "--k", "4",
                 "--out", str(tmp_path)] + ["--center"] * center) == 0
    N = 204
    grid = _density_csv(tmp_path / "scar-density-0.csv", N)
    neg = -np.arange(N) % N
    assert np.array_equal(grid, grid[neg])
    assert np.array_equal(grid, grid[:, neg])
    assert np.array_equal(grid, grid.T)
    pgm = (tmp_path / "scar-density-0.pgm").read_bytes()
    maxval = pgm.split(b"\n")[1].rsplit(b" ", 1)[1].decode()
    assert maxval == max(grid.ravel(), key=float)


def test_scar_density_refuses_an_odd_orbit(tmp_path, monkeypatch):
    import catlab.scars
    orbit = catlab.scars.ScarEnsemble.V.func

    def perturbed(self):
        V = orbit(self)
        V[:, 1] += 1e-5
        return V

    monkeypatch.setattr(catlab.scars.ScarEnsemble, "V", property(perturbed))
    assert main(["scar-density", "--matrix", CAT, "--k", "6",
                 "--out", str(tmp_path)]) == 3
    assert read_json(tmp_path / "scar-density-0.json")["kind"] == "invariant"


def test_write_pgm_streams_rows(tmp_path):
    # Each row goes to the file as it is produced: the peak stays far
    # below the N^2 bytes of the image, and the bytes are the header
    # followed by the quantized rows.
    N = 2048

    def rows():
        for j in range(N):
            yield np.linspace(0.0, 2.0 * j / N, N)

    tracemalloc.start()
    try:
        write_pgm(str(tmp_path / "d.pgm"), rows(), (N, N), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N / 4
    header = (b"P5\n# max-normalized density, original max 2\n%d %d\n255\n"
              % (N, N))
    expected = header + b"".join(
        np.clip(np.round(row * 127.5), 0, 255).astype(np.uint8).tobytes()
        for row in rows())
    assert (tmp_path / "d.pgm").read_bytes() == expected


def test_overlap_test_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        assert main(["overlap-test", "--matrix", CAT, "--count", "4",
                     "--seed", "5", "--out", str(d)]) == 0
    b1 = (d1 / "overlap-test-5.csv").read_bytes()
    assert b1 == (d2 / "overlap-test-5.csv").read_bytes()
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-9
    assert main(["overlap-test", "--matrix", CAT, "--count", "4",
                 "--seed", "6", "--out", str(d1)]) == 0
    assert (d1 / "overlap-test-6.csv").read_bytes() != b1


def test_lattice_sum(tmp_path):
    assert main(["lattice-sum", "--matrix", CAT, "--q", "2",
                 "--N", "144", "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "lattice-sum-0.json")
    assert float(out["rest"]) < 1e-10 * float(out["sum"])
    assert abs(float(out["sum"]) - math.sqrt(2.0 / 7.0)) < 1e-10


# degenerate Galois arguments and the catlab message each one gets
DEGENERATE_GALOIS = [
    (["galois-certify", "--poly", "0,0,0"], "leading coefficient"),
    (["galois-certify", "--poly", "0,1,0"], "leading coefficient"),
    (["galois-census", "--n", "0"], "n must be >= 1"),
    (["galois-census", "--n", "-1"], "n must be >= 1"),
    (["galois-power-scan", "--matrix", BLOCK, "--m-max", "0"], "m_max"),
    (["galois-power-scan", "--matrix", BLOCK, "--m-max", "-2"], "m_max"),
    (["galois-certify", "--poly", "1,-3,1", "--prime-bound", "-5"],
     "prime bound"),
]


@pytest.mark.parametrize("argv", [
    ["lattice-sum", "--matrix", CAT, "--c", "0.1"],
    ["lattice-sum", "--matrix", CAT, "--c", "0.1,0.2,0.3"],
    ["lattice-sum", "--matrix", CAT, "--N", "0"],
    ["periods", "--matrix", CAT, "--k", "-1"],
    ["scar-build", "--matrix", CAT, "--k", "-6"],
    ["galois-sample", "--count", "0"],
    ["galois-sample", "--word-length", "-1", "--count", "2"],
] + [argv for argv, _ in DEGENERATE_GALOIS] + [
    ["scar-scan", "--matrix", CAT, "--k", "6", "--window", "-1"],
    ["overlap-test", "--matrix", CAT, "--count", "-3"],
    ["overlap-test", "--matrix", CAT, "--count", "0"],
    ["fup-porosity", "--depth", "-1"],
    ["fup-scan", "--depths=-1,0,1,2"],
    ["fup-scan", "--depths", "4,4,4,4"],
    ["fup-porosity", "--depth", "8", "--mode", "lines"],
])
def test_bad_arguments_exit_two(tmp_path, capsys, argv):
    # a --c without exactly two values, N < 1, k < 0, count < 1, a
    # negative word length, scan window or Cantor depth, repeated scan
    # depths, an oversized porosity count and the degenerate Galois
    # arguments are preconditions: exit 2 with a JSON diagnostic, never a
    # traceback
    assert main(argv + ["--out", str(tmp_path)]) == 2
    out = read_json(tmp_path / ("%s-0.json" % argv[0]))
    assert out["kind"] == "precondition"
    assert json.loads(capsys.readouterr().err) == out


@pytest.mark.parametrize("argv", [
    ["scar-build", "--k", "6"],
    ["scar-scan", "--k", "6"],
    ["scar-density", "--k", "6"],
    ["overlap-test", "--count", "2"],
    ["lattice-sum", "--q", "2", "--N", "144"],
])
def test_four_by_four_matrix_is_refused_as_not_two_by_two(tmp_path, capsys,
                                                          argv):
    assert main(argv + ["--matrix", BLOCK, "--out", str(tmp_path)]) == 2
    out = read_json(tmp_path / ("%s-0.json" % argv[0]))
    assert out == {"error": "the matrix must be 2 x 2, not 4 x 4",
                   "kind": "precondition"}
    assert json.loads(capsys.readouterr().err) == out


@pytest.mark.parametrize("argv,message", DEGENERATE_GALOIS)
def test_degenerate_galois_arguments_name_the_argument(tmp_path, capsys,
                                                       argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in read_json(tmp_path / ("%s-0.json" % argv[0]))["error"]


def test_galois_certify(tmp_path):
    assert main(["galois-certify", "--poly", "1,-3,1",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "galois-certify-0.json")
    assert out["verdict"] == "certified_wreath"
    assert main(["galois-certify", "--poly", "1,14,51,14,1",
                 "--seed", "1", "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "galois-certify-1.json")
    assert out["verdict"] == "contradicted"
    assert sorted(out["factorization"]) == [[1, 7, 1], [1, 7, 1]]


def test_galois_sample(tmp_path):
    assert main(["galois-sample", "--n", "2", "--word-length", "20",
                 "--count", "10", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "galois-sample-3.json")
    assert float(out["fraction_certified_wreath"]) >= 0.9
    csv_lines = (tmp_path / "galois-sample-3.csv").read_text().splitlines()
    assert len(csv_lines) == 11


def test_galois_power_scan(tmp_path):
    assert main(["galois-power-scan", "--matrix", BLOCK, "--m-max", "3",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "galois-power-scan-0.json")
    assert out["k0"] == 2
    m2 = next(r for r in out["per_m"] if r["m"] == 2)
    assert m2["verdict"] == "reducible"


def test_sl2_census(tmp_path):
    assert main(["sl2-census", "--ell", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sl2-census-0.csv").read_text().strip().splitlines()
    assert lines[0] == "t,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 5 ** 3 - 5


def test_galois_census(tmp_path):
    assert main(["galois-census", "--ells", "7", "--n", "2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "galois-census-0.csv").read_text().strip().splitlines()
    assert lines[0] == "ell,n,k,count,main_term,abs_error"
    assert len(lines) == 3  # k = 1, 2


def test_fup_porosity(tmp_path):
    assert main(["fup-porosity", "--depth", "4",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "fup-porosity-0.json")
    assert out["porous"] and out["counterexample"] is None


def test_fup_scan(tmp_path):
    assert main(["fup-scan", "--depths", "4,5,6,7",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "fup-scan-0.json")
    assert out["monotone_decreasing"]
    assert float(out["beta"]) > 0.05
    lines = (tmp_path / "fup-scan-0.csv").read_text().strip().splitlines()
    assert len(lines) == 5


@pytest.mark.parametrize("depths", ["4,5,6,15", "9,9,9,9"])
def test_fup_scan_refuses_before_any_work(tmp_path, monkeypatch, depths):
    # a depth-15 submatrix above FUP_MAX_BYTES and four equal depths are
    # refused from the whole list, before the first digit test or SVD
    calls = []
    monkeypatch.setattr(catlab.fup, "cantor_set", calls.append)
    monkeypatch.setattr(catlab.fup, "fup_norm", calls.append)
    assert main(["fup-scan", "--depths", depths,
                 "--out", str(tmp_path)]) == 2
    assert read_json(tmp_path / "fup-scan-0.json")["kind"] == "precondition"
    assert calls == []


def test_up_basic(tmp_path):
    assert main(["up-basic", "--delta", "0.75",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "up-basic-0.json")
    assert float(out["abs_error"]) < 0.05


def test_parser_reuse_keeps_derived_alpha0_per_call(tmp_path):
    # at nu = 0.3 both depths change verdict or witness with alpha0, so a
    # 3^-3 left over from the first call would show in the second file
    argv = ["fup-porosity", "--nu", "0.3", "--out"]
    src = os.path.dirname(os.path.dirname(catlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for depth, seed in (("3", "0"), ("4", "1")):
        assert main(argv + [str(tmp_path / "one"), "--depth", depth,
                            "--seed", seed]) == 0
        subprocess.run([sys.executable, "-m", "catlab.cli"] + argv
                       + [str(tmp_path / "own"), "--depth", depth,
                          "--seed", seed], env=env, check=True)
    for name in ("fup-porosity-0.json", "fup-porosity-1.json"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "own" / name).read_bytes())
    assert read_json(tmp_path / "one" / "fup-porosity-1.json")[
        "counterexample"]["R"] == pytest.approx(0.790123456790123)


def test_parser_reuse_honours_rebound_handler(tmp_path, monkeypatch):
    argv = ["check-matrix", "--matrix", CAT, "--out", str(tmp_path)]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(catlab.cli, "cmd_check_matrix", seen.append)
    assert main(argv + ["--seed", "1"]) == 0
    assert [a.seed for a in seen] == [1]
    assert not (tmp_path / "check-matrix-1.json").exists()


def test_usage_error_between_valid_calls(tmp_path, capsys):
    argv = ["sl2-census", "--ell", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main(["sl2-census", "--ell", "five"]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "invalid arguments or subcommand"}
    assert main(argv + ["--seed", "2"]) == 0
    assert ((tmp_path / "sl2-census-2.csv").read_bytes()
            == (tmp_path / "sl2-census-0.csv").read_bytes())
