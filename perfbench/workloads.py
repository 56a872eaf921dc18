"""The three benchmark workloads: inputs, timed calls, canonical outputs, oracles.

Every input comes from the workload seed through ``SplitMix64`` and the
package's public constructors. An item is one timed call into the package.
Its canonical output is text that must be identical on every pass of a run
(and, for a pinned seed, across commits). Its oracle is an independent check
computed here, outside the timed region, on the first pass only.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Item:
    kind: str
    n: int
    run: Callable[[], object]
    canon: Callable[[object], str]
    oracle: Callable[[object], Optional[str]]  # error text, or None when right


@dataclass
class Workload:
    setup: Callable  # (package, seed, workdir) -> (items, inputs fingerprint)
    predicted: tuple[str, ...]  # traced functions that must run at least once
    absent: tuple[str, ...] = ()  # traced functions that must never run


# -- independent exact arithmetic for the oracles -------------------------------


def exact_det(rows) -> Fraction:
    """Gaussian elimination over Fractions; independent of Matrix.det."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def horner(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _minor_value(m, sel) -> Fraction:
    return exact_det([[m.rows[i - 1][j - 1] for j in sel.cols] for i in sel.rows])


def is_first_in_scan(m, witness, bad) -> bool:
    """No minor before ``witness`` in scan order (order, then rows, then
    columns, each lexicographic) has a value for which ``bad`` holds."""
    sel = witness[0]
    index = range(1, m.n + 1)
    for order in range(1, sel.order + 1):
        for rows in combinations(index, order):
            for cols in combinations(index, order):
                if (rows, cols) == (sel.rows, sel.cols):
                    return True
                if bad(exact_det([[m.rows[i - 1][j - 1] for j in cols] for i in rows])):
                    return False
    return False


def check_charpoly_by_evaluation(m, coeffs) -> Optional[str]:
    """det(zI - M) == p(z) at z = 0..n pins a monic degree-n polynomial."""
    n = m.n
    if len(coeffs) != n + 1 or coeffs[0] != 1:
        return f"char poly is not monic of degree {n}"
    for z in range(n + 1):
        shifted = [[(z if i == j else 0) - x for j, x in enumerate(row)]
                   for i, row in enumerate(m.rows)]
        if exact_det(shifted) != horner(coeffs, z):
            return f"char poly disagrees with det(zI - M) at z = {z}"
    return None


def anti_bidiagonal_charpoly(spec) -> list[Fraction]:
    """Three-term recurrence of the equivalent tridiagonal (a, 0, ..., 0):
    p_1 = z - a, p_k = z p_(k-1) - b_k c_k p_(k-2)."""
    prev, cur = [Fraction(1)], [Fraction(1), -spec.a]
    for b, c in zip(spec.sup, spec.sub):
        shifted = cur + [Fraction(0)]
        padded = [Fraction(0)] * (len(shifted) - len(prev)) + prev
        prev, cur = cur, [x - b * c * y for x, y in zip(shifted, padded)]
    return cur


def check_enclosures(report, expect_kind: Optional[str] = None) -> Optional[str]:
    """Every box certifies one root of the char poly within the width bound."""
    coeffs = list(report.char_poly.coeffs)
    boxes = report.boxes
    for k, box in enumerate(boxes):
        if box.hi - box.lo > report.width_bound or box.lo > box.hi:
            return f"box {k} wider than the bound or inverted"
        if box.lo == box.hi:
            if horner(coeffs, box.lo) != 0:
                return f"exact box {k} is not a root"
        elif report.squarefree and (_sign(horner(coeffs, box.lo))
                                    * _sign(horner(coeffs, box.hi)) >= 0):
            return f"box {k} does not bracket a sign change"
        if box.sign != (_sign(box.lo) if box.lo != 0 else _sign(box.hi)):
            return f"box {k} carries the wrong root sign"
    ordered = sorted(boxes, key=lambda b: b.lo)
    if any(a.hi >= b.lo and not (a.lo == a.hi == b.lo == b.hi)
           for a, b in zip(ordered, ordered[1:])):
        return "boxes overlap"
    if not report.modulus_tie:
        mods = [b.modulus_interval for b in boxes]
        if any(lo_a <= hi_b for (lo_a, _), (_, hi_b) in zip(mods, mods[1:])):
            return "modulus order not certified"
    if expect_kind is not None:
        if report.verdict.value != expect_kind:
            return f"verdict {report.verdict.value}, expected {expect_kind}"
        lead = 1 if expect_kind == "kind_I" else -1
        want = tuple(lead * (-1) ** k for k in range(len(coeffs) - 1))
        if len(boxes) != len(coeffs) - 1 or report.signs != want:
            return "self-interlacing verdict without the alternating real spectrum"
    return None


# -- canonical text of outputs ------------------------------------------------------


def _witness(w) -> str:
    if w is None:
        return "none"
    sel, val = w
    return f"{sel.rows}x{sel.cols}={val}"


def canon_classification(cls) -> str:
    conflict = "none"
    if cls.conflict is not None:
        conflict = (f"{cls.conflict.order}:{_witness(cls.conflict.positive)}"
                    f"/{_witness(cls.conflict.negative)}")
    return (f"{cls.verdict.value} sig={cls.signature} conflict={conflict} "
            f"power={cls.power_exponent} cap={cls.power_cap}")


def canon_report(report) -> str:
    boxes = " ".join(f"[{b.lo},{b.hi}]{b.sign:+d}" for b in report.boxes)
    return (f"{report.verdict.value} p={[str(c) for c in report.char_poly.coeffs]} "
            f"tie={report.modulus_tie} sf={report.squarefree} boxes={boxes}")


# The jflip report keys of schema 1; keys added later do not change the digest.
_JFLIP_KEYS = ("schema", "command", "command_line", "input_sha256", "n")
_CERT_KEYS = ("side", "passed", "failed_stage", "stages", "flipped",
              "sign_classification", "spectrum")


def canon_jflip(out, doc: Path) -> str:
    code, text = out
    if code != 0:
        return f"exit {code}"
    report = json.loads(text)
    kept = {k: report.get(k) for k in _JFLIP_KEYS}
    kept["command_line"] = kept["command_line"].replace(str(doc), doc.name)
    kept["certificate"] = {k: report["certificate"].get(k) for k in _CERT_KEYS}
    return json.dumps(kept, sort_keys=True)


# -- shared input helpers -------------------------------------------------------------


def _rational(rng) -> Fraction:
    return Fraction(1 + rng.below(9), 1 + rng.below(4))


def _fingerprint(matrices) -> str:
    return "\n".join(repr(m) for m in matrices)


def run_cli(cli, argv) -> tuple[int, str]:
    """cli.main in process with stdout captured; stderr (timing) discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- flip_certify ------------------------------------------------------------------------

# Documents per size and the sides each is certified on. Of the 41 items the
# median falls among the first n = 5 ones and the 75th percentile in the upper
# middle of them, whatever the seed, and a pass stays short enough for about
# ten passes in a run: an item's latency is its fastest pass, so it needs
# passes spread over the whole run.
FLIP_DOCS = {4: (8, ("left", "right")), 5: (11, ("left", "right")),
             6: (1, ("left", "right")), 7: (1, ("left",))}


def setup_flip_certify(il, seed: int, workdir: Path):
    rng = il.SplitMix64(seed)
    items, docs = [], []
    for n, (count, sides) in FLIP_DOCS.items():
        for k in range(count):
            code, text = run_cli(il.cli, ["construct", "random-positive-tnn",
                                          "--n", str(n), "--seed", str(rng.next_u64())])
            if code != 0:
                raise RuntimeError(f"construct exited {code}")
            doc = workdir / f"tnn-n{n}-{k}.mx"
            doc.write_text(text, encoding="utf-8")
            docs.append(text)
            for side in sides:
                items.append(_jflip_item(il, n, doc, side))
    return items, "".join(docs)


def _jflip_item(il, n, doc: Path, side: str) -> Item:
    argv = ["jflip", str(doc), "--json", "--side", side]

    def oracle(out):
        code, text = out
        if code != 0:
            return f"jflip exited {code}"
        if json.loads(text)["certificate"]["passed"] is not True:
            return "certificate did not pass on a positive nonsingular TNN matrix"
        return None

    return Item("jflip", n, lambda: run_cli(il.cli, argv),
                lambda out: canon_jflip(out, doc), oracle)


# -- spectrum_enclose ------------------------------------------------------------------

# Sizes are repeated so that, of the 41 items, the median and the 75th
# percentile both fall among the twenty n = 10 spectra, whatever the seed; the
# n = 12..16 ones sit above the tail and keep a pass short.
SPECTRUM_ANTI_BIDIAGONAL = (8,) + (10,) * 10 + (12, 12, 16)
SPECTRUM_ANTI_JACOBI = (10,) * 10 + (12, 12, 14)
SPECTRUM_FLIPS = (6, 8)
POLY_DEGREES = (4, 6, 9, 12)  # three polynomials each


def setup_spectrum_enclose(il, seed: int, workdir: Path):
    rng = il.SplitMix64(seed)
    items, inputs = [], []
    for n in SPECTRUM_ANTI_BIDIAGONAL:
        spec = il.AntiBidiagonalSpec(_rational(rng), [_rational(rng) for _ in range(n - 1)],
                                     [_rational(rng) for _ in range(n - 1)])
        m = il.anti_bidiagonal(spec)
        inputs.append(m)
        items.append(_spectrum_item(il, "anti_bidiagonal", m, spec=spec))
    for n in SPECTRUM_ANTI_JACOBI:
        spec = il.JacobiSpec([_rational(rng) for _ in range(n)],
                             [_rational(rng) for _ in range(n - 1)],
                             [_rational(rng) for _ in range(n - 1)])
        m = il.anti_jacobi(spec)
        inputs.append(m)
        items.append(_spectrum_item(il, "anti_jacobi", m))
    for n in SPECTRUM_FLIPS:
        m = il.flip_rows(il.random_positive_tnn(n, rng.next_u64()))
        inputs.append(m)
        items.append(_spectrum_item(il, "tnn_flip", m, expect_kind="kind_I"))
    for d in POLY_DEGREES:
        roots = _alternating_roots(rng, d)
        for rs, truth in ((roots, (True, False)),                   # kind I
                          ([-r for r in roots], (False, True)),     # kind II
                          ([-roots[0]] + roots[1:], (False, False))):  # broken
            p = il.poly_from_roots(rs)
            inputs.append(p)
            items.append(_poly_item(il, d, p, truth))
    return items, _fingerprint(inputs)


def _alternating_roots(rng, d: int) -> list[Fraction]:
    """r_1 > -r_2 > r_3 > ... > 0 in modulus, signs +, -, +, ... (kind I)."""
    mags, acc = [], Fraction(0)
    for _ in range(d):
        acc += Fraction(1 + rng.below(5), 1 + rng.below(3))
        mags.append(acc)
    mags.reverse()
    return [m if k % 2 == 0 else -m for k, m in enumerate(mags)]


def _spectrum_item(il, kind, m, spec=None, expect_kind=None) -> Item:
    def oracle(report):
        coeffs = list(report.char_poly.coeffs)
        if spec is not None:
            if coeffs != anti_bidiagonal_charpoly(spec):
                return "char poly disagrees with the three-term recurrence"
            expect = "kind_I"
        else:
            error = check_charpoly_by_evaluation(m, coeffs)
            if error:
                return error
            expect = expect_kind
        return check_enclosures(report, expect)

    return Item(kind, m.n, lambda: il.spectrum_report(m), canon_report, oracle)


def _poly_item(il, d, p, truth) -> Item:
    kinds = (il.SIKind.KIND_I, il.SIKind.KIND_II)

    def run():
        return tuple(il.is_self_interlacing(p, kind) for kind in kinds)

    def oracle(out):
        return None if out == truth else f"interlacing {out}, roots say {truth}"

    return Item("poly", d, run, repr, oracle)


# -- classify_scan ------------------------------------------------------------------------

# Of the 40 items the median falls among the n = 5 perturbed, kind-II and
# sign-pattern items and the 75th percentile in the middle of the twelve row
# flips, whose class n+ power search is what the tail measures.
NONNEG_PER_N = {5: 2, 6: 2, 7: 2}
PERTURBED_PER_N = {5: 6, 6: 2, 7: 2}
TNN_FLIPS_N = 5
# Singular flips are kept only when their square still has a zero entry:
# then every power fails at its first minor, the search runs out at the cap
# after 2(n-1) - 1 powers, and the cost of an item does not swing with how
# deep each power's scan happens to get.
TNN_FLIPS = {"tnn_flip_singular": 6, "tnn_flip_nonsingular": 6}
REPORTS_N = 5  # kind-II and sign-pattern reports on the perturbed sources of this n


def setup_classify_scan(il, seed: int, workdir: Path):
    rng = il.SplitMix64(seed)
    items, inputs = [], []
    for n, count in NONNEG_PER_N.items():
        for _ in range(count):
            m = _nonnegative_not_tnn(il, rng, n)
            inputs.append(m)
            items.append(_scan_item(il, "nonnegative", m))
    sources = []
    for n, count in PERTURBED_PER_N.items():
        for _ in range(count):
            a = il.random_positive_tnn(n, rng.next_u64())
            if n == REPORTS_N:
                sources.append(a)
            m = _perturbed(il, a)
            inputs.append(m)
            items.append(_scan_item(il, "perturbed_tnn", m))
    wanted = dict(TNN_FLIPS)
    for _ in range(400):
        if not any(wanted.values()):
            break
        m = il.flip_rows(il.random_tnn(TNN_FLIPS_N, rng.next_u64()))
        if exact_det(m.rows) != 0:
            kind = "tnn_flip_nonsingular"
        elif any(x == 0 for row in _square(m.rows) for x in row):
            kind = "tnn_flip_singular"
        else:
            continue
        if wanted[kind]:
            wanted[kind] -= 1
            inputs.append(m)
            items.append(_scan_item(il, kind, m))
    if any(wanted.values()):
        raise RuntimeError(f"random_tnn draws ran out before filling {wanted}")
    for a in sources:
        items.append(_kind_two_item(il, -a))
        items.append(_sign_pattern_item(il, il.flip_rows(a)))
    return items, _fingerprint(inputs)


def _square(rows):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)] for row in rows]


def _nonnegative_not_tnn(il, rng, n):
    """Entries 0..9, redrawn until a contiguous 2x2 minor is negative."""
    while True:
        rows = [[rng.below(10) for _ in range(n)] for _ in range(n)]
        if any(rows[i][j] * rows[i + 1][j + 1] < rows[i][j + 1] * rows[i + 1][j]
               for i in range(n - 1) for j in range(n - 1)):
            return il.Matrix(rows)


def _perturbed(il, a):
    """Raise entry (n-1, n) until the trailing 2x2 minor is negative.

    The bump sits in the last row pair, so every scan meets its first witness
    late in order 2 and the cost of an item does not depend on the seed's
    choice of position.
    """
    rows = [list(r) for r in a.rows]
    r0, r1 = rows[-2], rows[-1]
    r0[-1] += r0[-2] * r1[-1] / r1[-2] + 1
    return il.Matrix(rows)


def _scan_item(il, kind, m) -> Item:
    def run():
        return (il.tnn_violation(m), il.stp_violation(m), il.classify_sign_definite(m),
                il.is_oscillatory(m), il.is_oscillatory_by_definition(m))

    def canon(out):
        tnn, stp, cls, crit, definition = out
        return (f"tnn={_witness(tnn)} stp={_witness(stp)} {canon_classification(cls)} "
                f"osc={crit}/{definition}")

    def oracle(out):
        tnn, stp, cls, crit, definition = out
        if crit != definition:
            return f"oscillation criterion {crit} != definition {definition}"
        if tnn is not None and not (tnn[1] < 0 and _minor_value(m, tnn[0]) == tnn[1]
                                    and is_first_in_scan(m, tnn, lambda v: v < 0)):
            return "TNN witness is not the first negative minor of the input"
        if stp is not None and not (stp[1] <= 0 and _minor_value(m, stp[0]) == stp[1]
                                    and is_first_in_scan(m, stp, lambda v: v <= 0)):
            return "STP witness is not the first nonpositive minor of the input"
        if cls.conflict is not None:
            (ps, pv), (ns, nv) = cls.conflict.positive, cls.conflict.negative
            if not (pv > 0 > nv and _minor_value(m, ps) == pv and _minor_value(m, ns) == nv):
                return "sign conflict witnesses are not minors of opposite sign"
        if kind in ("nonnegative", "perturbed_tnn") and tnn is None:
            return "a matrix built to violate TNN passed the scan"
        if kind == "tnn_flip_singular" and (cls.verdict.value != "sign_definite_class_n"
                                            or cls.power_exponent is not None):
            return "a singular flip must exhaust the power search"
        if kind == "tnn_flip_nonsingular" and not cls.is_class_n_plus:
            return "a nonsingular TNN flip must reach class n+"
        return None

    return Item(kind, m.n, run, canon, oracle)


def _kind_two_item(il, m) -> Item:
    def oracle(report):
        return (check_charpoly_by_evaluation(il.flip_rows(m), list(report.char_poly.coeffs))
                or check_enclosures(report, "kind_II"))

    return Item("kind_two", m.n, lambda: il.kind_two_report(m), canon_report, oracle)


def _sign_pattern_item(il, m) -> Item:
    def oracle(out):
        return None if out is True else "sign pattern of a class n+ flip did not verify"

    return Item("sign_pattern", m.n, lambda: il.verify_sign_pattern(m), repr, oracle)


# -- the table --------------------------------------------------------------------------

_MINOR_LAYER = ("matrices.minors", "matrices.det", "classification.tnn_violation",
                "classification.classify_sign_definite", "classification.is_oscillatory",
                "classification.check_corner_conditions")

WORKLOADS = {
    "flip_certify": Workload(
        setup_flip_certify,
        predicted=_MINOR_LAYER + (
            "matrices.mul", "matrices.charpoly", "classification.jflip_si_certificate",
            "polynomials.isolate_real_roots", "polynomials.refine_root",
            "spectra.spectrum_report", "constructors.random_positive_tnn",
            "documents.parse_matrix_document", "documents.format_matrix_document",
            "cli.main")),
    "spectrum_enclose": Workload(
        setup_spectrum_enclose,
        predicted=("matrices.charpoly", "matrices.det", "polynomials.poly_gcd",
                   "polynomials.squarefree_part", "polynomials.hurwitz_minors",
                   "polynomials.is_self_interlacing", "polynomials.isolate_real_roots",
                   "polynomials.refine_root", "spectra.spectrum_report",
                   "constructors.random_positive_tnn"),
        absent=("matrices.minors",)),
    "classify_scan": Workload(
        setup_classify_scan,
        predicted=_MINOR_LAYER + (
            "matrices.pow", "matrices.mul", "classification.stp_violation",
            "classification.is_oscillatory_by_definition", "spectra.kind_two_report",
            "spectra.verify_sign_pattern", "spectra.spectrum_report",
            "constructors.random_tnn", "constructors.random_positive_tnn")),
}
