"""
Runs every `catlab ...` line of the README's example block in-process
against the catlab package of a source tree, writing the artifacts into
one output directory.

    python scripts/readme_examples.py SRC OUT

SRC is a checkout of this repository (its package is SRC/src/catlab);
the command lines always come from the README next to this script, so
two checkouts run the same examples.  Exits 1 when any example exits
nonzero or the README has none.  The byte-identity check of a change is
then

    python scripts/readme_examples.py OLD_CHECKOUT old
    python scripts/readme_examples.py . new
    diff -r old new
"""

import os
import shlex
import sys

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


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src, out = argv
    pkg = os.path.join(os.path.abspath(src), "src")
    sys.path.insert(0, pkg)
    import catlab.cli
    if not os.path.abspath(catlab.cli.__file__).startswith(pkg + os.sep):
        sys.exit("catlab was imported from %s, not from %s"
                 % (catlab.cli.__file__, pkg))

    lines = example_lines()
    failed = 0
    for line in lines:
        rc = catlab.cli.main(shlex.split(line)[1:] + ["--out", out])
        print("rc=%d  %s" % (rc, line))
        failed += rc != 0
    return 1 if failed or not lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
