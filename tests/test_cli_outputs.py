"""Byte-for-byte pins of the command line's output.

A fixed corpus of invocations runs in process through ``conftest.run_cli``,
and every document goes in on stdin, so ``command_line`` holds no path. Each
exit code and SHA-256 of stdout must equal its entry in ``cli_outputs.json``.
Stderr, which carries the wall time and so is not pinned, must be the
``elapsed_seconds`` line alone on exit 0, and one ``error:`` line before it on
exit 2.

The corpus is every ``construct`` family (n = 1, rational and decimal
literals, comma-separated values, and some bad parameters), the analyses
``classify``, ``jflip`` and ``spectrum`` on each constructed document and on
hand-written ones, and ``poly`` on a list of coefficient lists. A change that
alters output on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_cli_outputs.py

and says which entries changed and why.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

from conftest import run_cli

PINS = Path(__file__).with_name("cli_outputs.json")
# stderr by exit code: the wall-time line, after one error line on exit 2
STDERR = {0: re.compile(r"elapsed_seconds: \d+\.\d{6}\n"),
          2: re.compile(r"error: [^\n]*\nelapsed_seconds: \d+\.\d{6}\n")}

CONSTRUCT = [
    ("bidiagonal", "--d", "1 2 3", "--e", "4 5"),
    ("bidiagonal", "--d", "2", "--e", ""),
    ("bidiagonal", "--d", "1/2 0.75", "--e", "5/3"),
    ("bidiagonal", "--d", "1,2,3,4", "--e", "1,1/2,1"),
    ("bidiagonal", "--d", "1 0", "--e", "1"),
    ("antibidiagonal", "--a", "2", "--b", "3 5", "--c", "7 11"),
    ("antibidiagonal", "--a", "1", "--b", "", "--c", ""),
    ("antibidiagonal", "--a", "1/3", "--b", "0.5 2/7", "--c", "1.25 3"),
    ("antibidiagonal", "--a", "1", "--b", "1,2,3", "--c", "4,5,6"),
    ("antibidiagonal", "--a", "1", "--b", "1", "--c", "-1"),
    ("tridiagonal-equivalent", "--a", "5", "--b", "2", "--c", "3"),
    ("tridiagonal-equivalent", "--a", "4", "--b", "", "--c", ""),
    ("tridiagonal-equivalent", "--a", "0.5", "--b", "1/2 3", "--c", "2 1/3"),
    ("tridiagonal-equivalent", "--a", "2", "--b", "1,1,1", "--c", "1,1,1"),
    ("tridiagonal-equivalent", "--a", "1", "--b", "-1", "--c", "1"),
    ("jacobi", "--a", "2 2 2", "--b", "1 1", "--c", "1 1"),
    ("jacobi", "--a", "1", "--b", "", "--c", ""),
    ("jacobi", "--a", "1 1/2", "--b", "0.25", "--c", "-3"),
    ("jacobi", "--a", "1,2,3,4", "--b", "1,1,1", "--c", "2,2,2"),
    ("jacobi", "--a", "1 2", "--b", "1 2", "--c", "1"),
    ("antijacobi", "--a", "1 2 3", "--b", "4,5", "--c", "6 7"),
    ("antijacobi", "--a", "-2", "--b", "", "--c", ""),
    ("antijacobi", "--a", "1/3 0.5", "--b", "2", "--c", "1/7"),
    ("antijacobi", "--a", "1,1,1,1", "--b", "1,1,1", "--c", "1,1,1"),
    ("antijacobi", "--a", "1 2", "--b", "x", "--c", "1"),
    ("random-tnn", "--n", "1"),
    ("random-tnn", "--n", "4"),
    ("random-tnn", "--n", "3", "--seed", "5"),
    ("random-tnn", "--n", "0"),
    ("random-positive-tnn", "--n", "1"),
    ("random-positive-tnn", "--n", "3", "--seed", "7"),
    ("random-positive-tnn", "--n", "4", "--seed", "2"),
    ("random-positive-tnn", "--seed", "3"),
    ("random-oscillatory", "--n", "1"),
    ("random-oscillatory", "--n", "3"),
    ("random-oscillatory", "--n", "4", "--seed", "11"),
    ("random-oscillatory",),
]

DOCUMENTS = {
    "identity": "n: 3\nrows:\n1 0 0\n0 1 0\n0 0 1\n",
    "zero": "n: 2\nrows:\n0 0\n0 0\n",
    "singular": "n: 3\nrows:\n1 2 3\n2 4 6\n1 1 1\n",
    "negative": "n: 2\nrows:\n-1 2\n3 -4\n",
    "thirds": "n: 3\nrows:\n1/3 1/3 0\n1/3 2/3 1/3\n0 1/3 1\n",
    "repeated": "n: 3\nrows:\n2 1 0\n0 2 0\n0 0 1\n",
    "pm_pair": "n: 2\nrows:\n0 2\n2 0\n",
    "golden": "n: 2\nrows:\n0 1\n1 1\n",
    "unit_upper": "n: 2\nrows:\n1 1\n0 1\n",
    "params_only": "n: 3\nstructure: jacobi\na: 3 3 3\nb: 1 1\nc: 1 1\n",
    "mixed_corners": "n: 3\nrows:\n0 0 0\n1 0 0\n1 1 0\n",
}

ANALYSES = [
    ("classify", "-"),
    ("classify", "-", "--json"),
    ("jflip", "-", "--json"),
    ("jflip", "-", "--json", "--side", "right"),
    ("spectrum", "-"),
    ("spectrum", "-", "--json"),
    ("spectrum", "-", "--tol", "1/1000"),
    ("spectrum", "-", "--kind", "II"),
]

POLYS = [
    "1 -1 -1",          # kind I
    "-1 1 1",           # negative leading coefficient
    "1 -1 -2 1",
    "1 1 -2 -1",        # kind II
    "1 -2 1",           # repeated root
    "1 0 -4",           # +-2 pair
    "1 0 -5 0 4",       # two +-pairs
    "1 -3 2 0",         # root at 0
    "0 0 1 -1 -1",      # leading zeros
    "1/2 -1/3 -1",      # rational leading coefficient
    "-3/2 1 1 -1/4",
    "2 -7",             # degree 1
    "1 0 1",            # imaginary pair
    "1 1 1 1",
    "5",                # a constant has no roots: exit 2
]


def run_corpus() -> dict[str, list]:
    """Case label -> [exit code, SHA-256 of stdout], for the whole corpus,
    each run's stderr checked against the pattern of its exit code."""
    results: dict[str, list] = {}

    def record(label, argv, stdin=""):
        code, out, err = run_cli(*argv, stdin=stdin)
        assert label not in results, label
        assert code in STDERR and STDERR[code].fullmatch(err), (label, code, err)
        results[label] = [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
        return code, out

    documents = dict(DOCUMENTS)
    for args in CONSTRUCT:
        argv = ("construct", *args)
        code, out = record(shlex.join(argv), argv)
        if code == 0:
            documents[shlex.join(args)] = out
    for name, text in documents.items():
        for argv in ANALYSES:
            record(f"{shlex.join(argv)} < {name}", argv, text)
    for coeffs in POLYS:
        for extra in ((), ("--json",), ("--kind", "II")):
            argv = ("poly", "--coeffs", coeffs, *extra)
            record(shlex.join(argv), argv)
    return results


def test_cli_outputs_match_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    results = run_corpus()
    assert len(results) >= 150
    assert results.keys() == pinned.keys()
    changed = [label for label in results if results[label] != pinned[label]]
    assert changed == []


if __name__ == "__main__":
    pins = sorted(run_corpus().items())
    PINS.write_text("{\n" + ",\n".join(f" {json.dumps(label)}: {json.dumps(pin)}"
                                        for label, pin in pins) + "\n}\n",
                    encoding="utf-8")
