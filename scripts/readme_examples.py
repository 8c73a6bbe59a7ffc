"""
Runs every `catlab ...` line of the README's example block in-process
against the catlab package of a source tree, writing the artifacts into
one output directory, and optionally compares them with a reference
directory.  Each example's line is printed after it runs, with its exit
code and its in-process wall time, so one run on each of two checkouts
gives their README-level timings side by side.

    python scripts/readme_examples.py SRC OUT [REF]

SRC is a checkout of this repository (its package is SRC/src/catlab);
the command lines always come from the README next to this script, so
two checkouts run the same examples.  With REF (the OUT of an earlier
run), every artifact is compared byte for byte with its namesake in
REF, and the summary counts the byte-identical ones.  For a CSV, JSON
or PGM that differs, the largest absolute difference of each numeric
field is printed (a PGM's `original max`, and its pixels in levels),
next to the same difference relative to the field's largest magnitude
in REF; for a CSV, so is the number of rows that differ.  Any other
difference (a missing or extra file, a changed header, key or string, a
PGM's magic or geometry, or a non-finite difference) is reported as
non-numeric.  Exits 1 when any
example exits nonzero, the README has none, or a non-numeric difference
is found.  The byte-identity check of a change is then

    python scripts/readme_examples.py OLD_CHECKOUT old
    python scripts/readme_examples.py . new old
"""

import csv
import itertools
import json
import math
import os
import shlex
import sys
import time

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def example_lines():
    """The `catlab ...` lines of the README's fenced sh blocks."""
    lines, fenced = [], False
    with open(README) as f:
        for line in f:
            line = line.strip()
            if line.startswith("```"):
                fenced = line == "```sh"
            elif fenced and line.startswith("catlab "):
                lines.append(line)
    return lines


def _leaves(path):
    """
    (field, value) pairs: CSV cells by column, JSON leaves by key path,
    and for a P5 PGM as `catlab.cli.write_pgm` writes it, its magic, the
    comment's text, the comment's `original max`, its geometry and one
    "pixels" field per payload byte.
    """
    if path.endswith(".pgm"):
        with open(path, "rb") as f:
            magic, comment, size, depth = (f.readline().decode("latin-1")
                                           .strip() for _ in range(4))
            pixels = f.read()
        text, _, maxval = comment.rpartition(" ")
        return ([("magic", magic), ("comment", text),
                 ("original max", maxval), ("geometry", size + " " + depth)]
                + [("pixels", p) for p in pixels])
    if path.endswith(".csv"):
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f)) or [[]]
        return [(name, v) for row in rows
                for name, v in itertools.zip_longest(header, row)]
    with open(path) as f:
        return _json_leaves(json.load(f), "")


def _json_leaves(v, path):
    """List indices are one field, "name[]"; an empty container is a leaf."""
    if isinstance(v, dict) and v:
        return [leaf for k in sorted(v)
                for leaf in _json_leaves(v[k], path + "." + k if path else k)]
    if isinstance(v, list) and v:
        return [leaf for x in v for leaf in _json_leaves(x, path + "[]")]
    return [(path, v)]


def _numeric_diff(a, b):
    """|a - b| for two numbers or numeric strings, else None."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        d = abs(float(a) - float(b))
    except (TypeError, ValueError):
        return None
    return d if math.isfinite(d) else None


def compare(out, ref):
    """Prints how OUT differs from REF; returns True when only numbers do."""
    names = sorted(set(os.listdir(out)) | set(os.listdir(ref)))
    ok, identical = True, 0
    for name in names:
        new, old = os.path.join(out, name), os.path.join(ref, name)
        if not (os.path.isfile(new) and os.path.isfile(old)):
            print("only in %s: %s" % (out if os.path.isfile(new) else ref,
                                      name))
            ok = False
            continue
        with open(new, "rb") as f, open(old, "rb") as g:
            if f.read() == g.read():
                identical += 1
                continue
        fields, scale, other = {}, {}, set()
        if not name.endswith((".csv", ".json", ".pgm")):
            other.add("bytes")
        else:
            a, b = _leaves(new), _leaves(old)
            if [f for f, _ in a] != [f for f, _ in b]:
                other.add("fields or shape")
            else:
                for (field, x), (_, y) in zip(a, b):
                    size = _numeric_diff(y, 0)
                    if size is not None:
                        scale[field] = max(scale.get(field, 0.0), size)
                    if x == y:
                        continue
                    d = _numeric_diff(x, y)
                    if d is None:
                        other.add(str(field))
                    else:
                        fields[field] = max(fields.get(field, 0.0), d)
        print("differs: %s" % name)
        if name.endswith(".csv"):
            with open(new) as f, open(old) as g:
                rows = list(zip(f.readlines()[1:], g.readlines()[1:]))
            print("  %d of %d rows differ"
                  % (sum(x != y for x, y in rows), len(rows)))
        for field, d in sorted(fields.items()):
            print("  %s: max |diff| = %.3g, %.3g relative to its largest "
                  "|value|" % (field, d, d / scale[field] if scale[field]
                               else math.inf))
        for what in sorted(other):
            print("  non-numeric difference: %s" % what)
        ok = ok and not other
    print("%d artifacts compared, %d byte-identical, %s" % (
        len(names), identical, "no non-numeric difference" if ok
        else "non-numeric differences found"))
    return ok


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src, out = argv[:2]
    pkg = os.path.join(os.path.abspath(src), "src")
    sys.path.insert(0, pkg)
    import catlab.cli
    if not os.path.abspath(catlab.cli.__file__).startswith(pkg + os.sep):
        sys.exit("catlab was imported from %s, not from %s"
                 % (catlab.cli.__file__, pkg))

    lines = example_lines()
    failed = 0
    for line in lines:
        start = time.perf_counter()
        rc = catlab.cli.main(shlex.split(line)[1:] + ["--out", out])
        print("rc=%d  %8.4f s  %s" % (rc, time.perf_counter() - start, line))
        failed += rc != 0
    if len(argv) == 3 and not compare(out, argv[2]):
        failed += 1
    return 1 if failed or not lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
