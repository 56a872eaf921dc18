"""Scale sweep of the spectrum front end and the minor scan: each layer
timed over n.

    PYTHONPATH=src python bench/sweep.py --label after
    PYTHONPATH=/path/to/other/src python bench/sweep.py --label before

Writes ``BENCH_<label>.json`` (into the repository root unless ``--out`` says
otherwise). It imports ``interlace`` from the import path, so one sweep can
time two source trees, and records the SHA-256 of the source it imported.

Six layers are swept over ``--sizes``:

- ``charpoly``: ``Matrix.charpoly`` of the input;
- ``hurwitz_minors``: ``hurwitz_minors`` of the twist of that characteristic
  polynomial, the kind I verdict's whole work;
- ``isolate_real_roots``: isolation of that characteristic polynomial by
  the route it carries: the continuants of the band that ``charpoly``
  attached, or else the Sturm chain, built afresh on every run, since a
  polynomial keeps its chain (a copy keeps the band and drops the chain);
- ``spectrum_report``: the full report, charpoly to certified enclosures;
- ``refine_root``: ``refine_root`` of every isolation box of the squarefree
  part that the report isolates to the default width, as
  ``spectrum_report`` refines them;
- ``modulus_sort``: ``spectra._certified_modulus_sort`` of those refined
  boxes, the report's certified order by decreasing modulus.

and two over ``--scan-sizes`` (n = 4..10 by default), where the budget ends
each series at the exponential wall:

- ``sign_scan``: ``classify_sign_definite`` of the input, a full minor scan
  for every sign definite input and the class n+ power search after it;
- ``jflip``: ``cli.main(["jflip", doc, "--json"])``, the whole certificate
  pipeline (documents, three minor scans, the spectrum report, the JSON
  report), on the document of ``random_positive_tnn(n, 1)``, whose row flip
  is the ``tnn_flip`` input; it runs on that input alone, and writing the
  document is set-up.

The inputs are the anti-bidiagonal matrix with a = 1, b_(k+2) = 1/(k+2) and
c_(k+2) = 1/(k+3), the Jacobi matrix with diagonal 2 and the same ladders,
the column-reversed (anti-Jacobi) form of that Jacobi matrix, and the row
flip of ``random_positive_tnn(n, 1)`` for n <= 32. Building an input and
its twist is not timed.

Every time is at the host-speed reference of ``perfbench/run.py``
(``run.reference_s``, imported and only called): a run that takes t seconds
right after a reference run of r seconds counts as t * REFERENCE_S / r. A
row reports the median of its runs at reference speed, the fastest measured
run, and deterministic counts of its result. A row makes up to five runs
and stops repeating once a further run would not fit the budget of 10 s at
reference speed. A run that exceeds the budget is interrupted and marks its
row "over_budget", which ends that layer's sweep on that input: the larger
sizes are not run, so an exponential wall shows up as data, not as a hang.
A layer over budget also ends the sweeps of the layers that start from it
(``STARTS_FROM``) on that input at that size: the charpoly those of the
next three layers, the report those of the last two, whose untimed
set-up runs the report's stages.

The isolation layers read the band route off ``m.charpoly()``, so the sweep
times source trees whose ``charpoly`` attaches the band: an older tree,
which kept the band outside the polynomial, is isolated by the chain on
every input, and its isolation rows do not compare with a newer tree's.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import platform
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench's host-speed reference)

import interlace  # noqa: E402
from interlace import (  # noqa: E402
    DEFAULT_WIDTH_BOUND,
    AntiBidiagonalSpec,
    JacobiSpec,
    MatrixDocument,
    anti_bidiagonal,
    anti_jacobi,
    classify_sign_definite,
    cli,
    flip_rows,
    format_matrix_document,
    hurwitz_minors,
    isolate_real_roots,
    jacobi_matrix,
    random_positive_tnn,
    refine_root,
    si_twist,
    spectra,
    spectrum_report,
    squarefree_part,
)

SCHEMA = "interlace-sweep/1"
LAYERS = ("charpoly", "hurwitz_minors", "isolate_real_roots", "spectrum_report",
          "refine_root", "modulus_sort", "sign_scan", "jflip")
SCAN_LAYERS = ("sign_scan", "jflip")  # swept over --scan-sizes
ONLY_ON = {"jflip": "tnn_flip"}  # layer -> the one input it runs on
STARTS_FROM = {"hurwitz_minors": "charpoly", "isolate_real_roots": "charpoly",
               "spectrum_report": "charpoly", "refine_root": "spectrum_report",
               "modulus_sort": "spectrum_report"}
TNN_MAX = 32
REPEATS = 5
BUDGET_S = 10.0  # per row, at reference speed


class OverBudget(Exception):
    """Raised by the interval timer inside a run that exceeds the budget."""


def _ladders(n: int) -> tuple[list[Fraction], list[Fraction]]:
    return ([Fraction(1, k + 2) for k in range(n - 1)],
            [Fraction(1, k + 3) for k in range(n - 1)])


def _jacobi_spec(n: int) -> JacobiSpec:
    return JacobiSpec([2] * n, *_ladders(n))


INPUTS = {
    "anti_bidiagonal": lambda n: anti_bidiagonal(AntiBidiagonalSpec(1, *_ladders(n))),
    "jacobi": lambda n: jacobi_matrix(_jacobi_spec(n)),
    "anti_jacobi": lambda n: anti_jacobi(_jacobi_spec(n)),
    "tnn_flip": lambda n: flip_rows(random_positive_tnn(n, 1)),
}


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _jflip(m, work: Path):
    """(call, counts) of the jflip pipeline on the document of A = J m,
    written to ``work`` here, untimed."""
    doc = work / f"tnn-n{m.n}.mx"
    doc.write_text(format_matrix_document(MatrixDocument(flip_rows(m))), encoding="utf-8")

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["jflip", str(doc), "--json"])
        return code, out.getvalue()

    def counts(result):
        certificate = json.loads(result[1])["certificate"]
        return {"exit": result[0], "passed": certificate["passed"],
                "eigenvalues": len(certificate["spectrum"]["eigenvalues"])}

    return call, counts


def _layer(name: str, m, work: Path):
    """(call, counts of its result) for one layer on the matrix ``m``; a
    layer that needs files writes them under ``work``."""
    if name == "jflip":
        return _jflip(m, work)
    if name == "charpoly":
        return m.charpoly, lambda p: {"degree": p.degree,
                                      "peak_bits": max(map(_bits, p.coeffs))}
    if name == "hurwitz_minors":
        twist = si_twist(m.charpoly())
        return (lambda: hurwitz_minors(twist)), lambda minors: {
            "minors": len(minors), "zero_minors": minors.count(0),
            "peak_bits": max(map(_bits, minors))}
    if name == "isolate_real_roots":
        p = m.charpoly()
        return (lambda: isolate_real_roots(copy.copy(p))), lambda boxes: {
            "roots": len(boxes)}
    if name in ("refine_root", "modulus_sort"):
        sf = squarefree_part(m.charpoly())
        boxes = isolate_real_roots(sf)
        if name == "refine_root":
            return (lambda: [refine_root(sf, box, DEFAULT_WIDTH_BOUND) for box in boxes]), \
                lambda refined: {"roots": len(refined),
                                 "exact": sum(box.is_exact for box in refined)}
        refined = [refine_root(sf, box, DEFAULT_WIDTH_BOUND) for box in boxes]
        return (lambda: spectra._certified_modulus_sort(sf, refined)), lambda order: {
            "roots": len(order), "refined": len(set(order) - set(refined))}
    if name == "sign_scan":
        return (lambda: classify_sign_definite(m)), lambda cls: {
            "verdict": cls.verdict.value, "power_exponent": cls.power_exponent}
    return (lambda: spectrum_report(m)), lambda rep: {
        "roots": len(rep.boxes), "verdict": rep.verdict.value}


def _timed(call, limit_s: float):
    """(result, measured s, s at reference speed) of one run of ``call``,
    interrupted by OverBudget once it has run ``limit_s`` measured seconds."""
    ref = run.reference_s()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed * run.REFERENCE_S / ref


def measure(call, counts) -> dict:
    """One row: at least one run, and more while the next is expected to
    fit the budget at reference speed, up to REPEATS."""
    measured, scaled, result = [], [], None
    while len(scaled) < REPEATS and (not scaled or sum(scaled) + scaled[-1] <= BUDGET_S):
        # the budget is at reference speed; the timer counts measured seconds
        limit = BUDGET_S * run.reference_s() / run.REFERENCE_S
        try:
            result, elapsed, at_ref = _timed(call, limit)
        except OverBudget:
            return {"status": "over_budget", "runs": len(scaled)}
        measured.append(elapsed)
        scaled.append(at_ref)
    return {"status": "ok", "runs": len(scaled), "median_s": statistics.median(scaled),
            "fastest_measured_s": min(measured), "counts": counts(result)}


def source_sha(package_dir: Path) -> str:
    """SHA-256 over the package's modules, as perfbench's ``source_sha``."""
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sweep(sizes, scan_sizes, work: Path) -> list[dict]:
    rows = []
    inputs_end = {kind: TNN_MAX + 1 if kind == "tnn_flip" else float("inf") for kind in INPUTS}
    ends = {}  # layer -> input -> least size not swept
    for layer in LAYERS:
        end = ends.get(STARTS_FROM.get(layer), inputs_end)
        ends[layer] = dict(end)
        for kind, build in INPUTS.items():
            if ONLY_ON.get(layer, kind) != kind:
                continue
            for n in scan_sizes if layer in SCAN_LAYERS else sizes:
                if n >= end[kind]:
                    break
                row = {"layer": layer, "input": kind, "n": n}
                row.update(measure(*_layer(layer, build(n), work)))
                rows.append(row)
                if row["status"] == "over_budget":
                    ends[layer][kind] = n
                    break
    return rows


def _interrupt(signum, frame):
    raise OverBudget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64, 128])
    parser.add_argument("--scan-sizes", type=int, nargs="+", default=list(range(4, 11)))
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if min(args.sizes + args.scan_sizes) < 2:
        parser.error("sizes must be >= 2")

    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        with tempfile.TemporaryDirectory() as work:
            rows = sweep(args.sizes, args.scan_sizes, Path(work))
    finally:
        signal.signal(signal.SIGALRM, previous)
    report = {
        "schema": SCHEMA,
        "label": args.label,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "source_sha256": source_sha(Path(interlace.__file__).resolve().parent),
        },
        "reference_s": run.REFERENCE_S,
        "budget_s": BUDGET_S,
        "repeats": REPEATS,
        "rows": rows,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
