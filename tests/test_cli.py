import json
import math
import os

import pytest

from catlab.cli import main, parse_matrix

CAT = "2,1;1,1"
BLOCK = "0,0,2,1;0,0,1,1;-2,-1,0,0;-1,-1,0,0"


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_parse_matrix():
    assert parse_matrix("2,1;1,1") == [[2, 1], [1, 1]]
    assert parse_matrix("1,0,0;0,1,0;0,0,1") == [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]


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
    monkeypatch.setattr(catlab.scars, "make_scar_config", boom)
    rc = main(["scar-build", "--matrix", CAT, "--k", "6",
               "--out", str(tmp_path)])
    assert rc == 3
    out = read_json(tmp_path / "scar-build-0.json")
    assert out["kind"] == "invariant"


def test_memory_error_exits_three(tmp_path, monkeypatch, capsys):
    import catlab.scars
    def boom(*a, **k):
        raise MemoryError("Unable to allocate 35.8 GiB")
    monkeypatch.setattr(catlab.scars, "make_scar_config", boom)
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


def test_up_basic(tmp_path):
    assert main(["up-basic", "--delta", "0.75",
                 "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "up-basic-0.json")
    assert float(out["abs_error"]) < 0.05
