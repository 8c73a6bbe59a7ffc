import importlib.util
import os
import shlex
import subprocess
import sys

import catlab

from catlab.cli import main

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "readme_examples.py")

# the artifacts the README examples write at seed 0
ARTIFACTS = sorted([
    "check-matrix-0.json", "periods-0.json", "scar-build-0.json",
    "scar-scan-0.csv", "scar-density-0.pgm", "scar-density-0.csv",
    "overlap-test-0.csv", "lattice-sum-0.json", "galois-census-0.csv",
    "galois-certify-0.json", "galois-sample-0.csv", "galois-sample-0.json",
    "galois-power-scan-0.json", "sl2-census-0.csv", "fup-porosity-0.json",
    "fup-scan-0.csv", "fup-scan-0.json", "up-basic-0.csv",
    "up-basic-0.json",
])


def _script():
    spec = importlib.util.spec_from_file_location("readme_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _example_lines():
    return _script().example_lines()


def test_compare_reports_rows_and_relative_differences(tmp_path, capsys):
    new, ref = tmp_path / "new", tmp_path / "ref"
    for d, last in [(new, "3.0000000000000004"), (ref, "3")]:
        d.mkdir()
        (d / "a.csv").write_text("j,v\n0,1.5\n1,-4\n2,%s\n" % last)
        (d / "b.json").write_text('{"v": 2}\n')
    assert _script().compare(str(new), str(ref))
    out = capsys.readouterr().out
    assert "1 of 3 rows differ" in out
    assert "v: max |diff| = 4.44e-16, 1.11e-16 relative" in out
    assert ("2 artifacts compared, 1 byte-identical, no non-numeric "
            "difference") in out


def test_readme_examples_are_byte_identical_across_runs(tmp_path):
    # Every README example exits 0, together they write the 19 artifacts,
    # and a second run into a fresh directory writes the same bytes.
    lines = _example_lines()
    assert lines
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        for line in lines:
            assert main(shlex.split(line)[1:] + ["--out", str(out)]) == 0, line
        assert sorted(os.listdir(out)) == ARTIFACTS
    for name in ARTIFACTS:
        assert ((runs[0] / name).read_bytes()
                == (runs[1] / name).read_bytes()), name


def test_scar_examples_are_byte_identical_across_blas_threads(tmp_path):
    # The README's scar examples, each in a fresh `python -m catlab.cli`
    # process, once with every BLAS and OpenMP pool at one thread and
    # once at two: the artifacts must not depend on the thread count.
    lines = [line for line in _example_lines()
             if line.startswith("catlab scar-")]
    assert len(lines) == 3
    src = os.path.dirname(os.path.dirname(catlab.__file__))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        for line in lines:
            subprocess.run([sys.executable, "-m", "catlab.cli"]
                           + shlex.split(line)[1:] + ["--out", str(out)],
                           env=env, check=True)
        runs.append({name: (out / name).read_bytes()
                     for name in sorted(os.listdir(out))})
    assert sorted(runs[0]) == ["scar-build-0.json", "scar-density-0.csv",
                               "scar-density-0.pgm", "scar-scan-0.csv"]
    assert runs[0] == runs[1]
