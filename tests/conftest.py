"""Shared oracles and generators for the test suite.

The slow routes here are naive on purpose; each validates one shipped fast
path. The cofactor determinant checks the Bareiss determinant, and cofactor
minors on plain integer rows check the minor stream on integer inputs. The
four corner products over Fraction entries check the corner walk over the
integer form and its transpose. The entrywise Fraction product and negation
check the integer-form product and negation; entrywise Fraction sums and
scalings build test inputs, as the package has neither. Faddeev-LeVerrier
over Fraction rows checks every route of ``Matrix.charpoly``, and plain
division-free Berkowitz on the integer form, with no zero-pattern test,
checks its continuant routes where Fractions would be slow. Euclid, Sturm
isolation and bisection over Fraction coefficient lists, with their own
Horner evaluation, long division and derivative, check the integer remainder
sequence and the integer-coordinate isolation and refinement; they call no
polynomial kernel of the package. The modulus sort that rescans from the
first pair of boxes after every refinement checks the one-pass certified
modulus sort. The class n+ power search that scans
every minor of each power checks the search that reads each power's
contiguous minors alone.

``run_cli`` is the one in-process command-line harness: every test of the
command line runs ``cli.main`` through it, except the few that test the
process boundary itself.
"""

import contextlib
import io
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Optional

import pytest

from interlace import (
    InternalInvariantViolation,
    Matrix,
    MinorSelector,
    Polynomial,
    RootBox,
    SplitMix64,
    cli,
    polynomials,
)
from interlace.matrices import _berkowitz


def run_cli(*argv: str, stdin: str = "") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run of ``cli.main`` on
    ``argv`` with ``stdin`` on standard input, as ``python -m interlace.cli``
    would give them: argparse's SystemExit becomes its exit code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    # cli reads stdin's binary buffer, which a StringIO does not have
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def euclid_walks(monkeypatch) -> list:
    """The argument pairs of every Euclid walk (call of
    ``polynomials._remainder_sequence``) made while the test runs."""
    walks = []

    def counting(a, b, walk=polynomials._remainder_sequence):
        walks.append((a, b))
        return walk(a, b)

    monkeypatch.setattr(polynomials, "_remainder_sequence", counting)
    return walks


@pytest.fixture
def sturm_evaluations(monkeypatch) -> list:
    """The points of every Sturm count (call of ``polynomials._variations``,
    whose first member, p, is also the exact-root test) and of every other
    evaluation of an integer polynomial at a dyadic point (call of
    ``polynomials._dyadic_value`` made outside a count) while the test runs,
    as ("count" or "value", u, s) for the point u / 2^s."""
    points, counting = [], []

    def count(chain, u, s, variations=polynomials._variations):
        points.append(("count", u, s))
        counting.append(True)
        try:
            return variations(chain, u, s)
        finally:
            counting.pop()

    def value(ic, u, s, dyadic_value=polynomials._dyadic_value):
        if not counting:
            points.append(("value", u, s))
        return dyadic_value(ic, u, s)

    monkeypatch.setattr(polynomials, "_variations", count)
    monkeypatch.setattr(polynomials, "_dyadic_value", value)
    return points


def cofactor_det(m: Matrix) -> Fraction:
    """Laplace expansion along the first row; exponential but obviously right."""

    def expand(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            if rows[0][j] == 0:
                continue
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * expand(sub)
            total += term if j % 2 == 0 else -term
        return total

    return expand([list(r) for r in m.rows])


def integer_minors(rows) -> list:
    """Every minor of the square integer matrix ``rows`` as (selector, int),
    orders 1..n, each order in ``Matrix.minors`` order (row selectors outer,
    column selectors inner, both lexicographic). Each k-minor is the
    cofactor expansion along its first row, over the (k-1)-minors already
    expanded, on plain int rows: no Matrix and no Fraction per minor."""
    n = len(rows)
    idx = tuple(range(1, n + 1))
    dets: dict = {}
    out = []
    for k in idx:
        subsets = list(combinations(idx, k))
        for rs in subsets:
            top = rows[rs[0] - 1]
            for cs in subsets:
                if k == 1:
                    v = top[cs[0] - 1]
                else:
                    v = sum((-1) ** j * top[c - 1] * dets[rs[1:], cs[:j] + cs[j + 1:]]
                            for j, c in enumerate(cs) if top[c - 1])
                dets[rs, cs] = v
                out.append((MinorSelector(rs, cs), v))
    return out


def corner_conditions_by_products(m: Matrix) -> tuple:
    """(left, right) corner witnesses straight from the four products over
    the Fraction entries m[i, j]: for i = 1..n-1, the least r with
    a(n-i, r)*a(n+1-r, i) > 0 and with a(n+1-i, r)*a(n+1-r, i+1) > 0 (left),
    and with a(i, n+1-r)*a(r, n-i) > 0 and a(i+1, n+1-r)*a(r, n+1-i) > 0
    (right), or None for i when either has no such r."""
    n = m.n

    def first(product):
        return next((r for r in range(1, n + 1) if product(r) > 0), None)

    left, right = [], []
    for i in range(1, n):
        l1 = first(lambda r: m[n - i, r] * m[n + 1 - r, i])
        l2 = first(lambda r: m[n + 1 - i, r] * m[n + 1 - r, i + 1])
        left.append((l1, l2) if l1 is not None and l2 is not None else None)
        r1 = first(lambda r: m[i, n + 1 - r] * m[r, n - i])
        r2 = first(lambda r: m[i + 1, n + 1 - r] * m[r, n + 1 - i])
        right.append((r1, r2) if r1 is not None and r2 is not None else None)
    return tuple(left), tuple(right)


def least_strict_power_by_scan(m: Matrix) -> Optional[int]:
    """The class n+ power search by full minor scans, for an ``m`` whose
    own minors are sign definite: if m is nonsingular, the least e in
    2..2(n-1) whose power m ** e has no vanishing minor of any order (by
    Cauchy-Binet, exactly when it is strictly sign definite), else None."""
    if m.det() == 0:
        return None
    for e in range(2, max(1, 2 * (m.n - 1)) + 1):
        power = m ** e
        if all(v != 0 for k in range(1, m.n + 1) for _, v in power.minors(k)):
            return e
    return None


def fraction_rows_product(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """Row-by-column sums of Fraction products of the rows ``a`` and ``b``."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def fraction_matmul(a: Matrix, b: Matrix) -> Matrix:
    """A*B over the Fraction entries, row by column."""
    return Matrix(fraction_rows_product(a.rows, b.rows))


def entrywise(f, *ms: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of ``f`` applied to the Fraction entries of ``ms`` in one place."""
    return tuple(tuple(map(f, *rows)) for rows in zip(*(m.rows for m in ms)))


def scaled(m: Matrix, c) -> Matrix:
    """c*M from the Fraction entries of ``m``."""
    return Matrix(entrywise(lambda x: c * x, m))


def summed(a: Matrix, b: Matrix) -> Matrix:
    """A + B from the Fraction entries of ``a`` and ``b``."""
    return Matrix(entrywise(add, a, b))


def faddeev_leverrier_charpoly(m: Matrix) -> Polynomial:
    """det(zI - M) by the trace recursion M_k = M (M_(k-1) + c_(k-1) I),
    c_k = -tr(M_k) / k; n full products of Fraction rows."""
    n, rows = m.n, m.rows
    coeffs = [Fraction(1)]
    aux = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in range(1, n + 1):
        aux = fraction_rows_product(rows, aux)
        c = -sum(aux[i][i] for i in range(n)) / k
        coeffs.append(c)
        aux = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                    for i, row in enumerate(aux))
    return Polynomial(coeffs)


def berkowitz_charpoly(m: Matrix) -> Polynomial:
    """det(zI - M) from Berkowitz on the integer form B = D*M, whatever its
    zero pattern: c_k(M) = c_k(B) / D^k."""
    d, b = m._form
    return Polynomial([Fraction(c, d ** k) for k, c in enumerate(_berkowitz(b))])


def random_rational_matrix(n: int, seed: int, span: int = 4,
                           denominators=(1, 1, 1, 2, 3)) -> Matrix:
    """Seeded matrix with small rational entries (mostly integers)."""
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = rng.below(2 * span + 1) - span
            den = denominators[rng.below(len(denominators))]
            row.append(Fraction(num, den))
        rows.append(row)
    return Matrix(rows)


def random_int_matrix(n: int, seed: int, lo: int = -4, hi: int = 4) -> Matrix:
    rng = SplitMix64(seed)
    return Matrix([[lo + rng.below(hi - lo + 1) for _ in range(n)]
                   for _ in range(n)])


def fraction_horner(coeffs, x) -> Fraction:
    """p(x) over Fractions for the coefficients ``coeffs``, leading first."""
    value = Fraction(0)
    for c in coeffs:
        value = value * x + c
    return value


def fraction_remainder(a, b) -> tuple[Fraction, ...]:
    """a mod b by long division over Fractions, for coefficient sequences
    leading first, b's leading one nonzero; the remainder has no leading
    zero."""
    rem = [Fraction(c) for c in a]
    steps = len(a) - len(b) + 1
    for i in range(steps):
        f = rem[i] / b[0]
        for j, c in enumerate(b):
            rem[i + j] -= f * c
    tail = rem[max(steps, 0):]
    while tail and tail[0] == 0:
        tail.pop(0)
    return tuple(tail)


def fraction_derivative(coeffs) -> tuple[Fraction, ...]:
    """The coefficients of p' for the coefficients ``coeffs`` of p."""
    n = len(coeffs) - 1
    return tuple(c * (n - k) for k, c in enumerate(coeffs[:-1]))


def remainder_sequence(a, b) -> list[tuple[Fraction, ...]]:
    """Euclid's signed remainder sequence a, b, -(a mod b), ... over
    Fraction coefficient sequences (leading first, no leading zero), up to
    its last nonzero member."""
    seq = [tuple(a)]
    while b:
        seq.append(tuple(b))
        a, b = b, tuple(-c for c in fraction_remainder(a, b))
    return seq


def primitive_ints(coeffs) -> tuple[int, ...]:
    """The coefficients ``coeffs`` times the positive rational that makes
    them coprime ints."""
    m = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * m) for c in coeffs]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_isolation(p: Polynomial) -> tuple[RootBox, ...]:
    """Recursive Sturm bisection over Fractions for a squarefree p of
    degree >= 1: the power-of-two Cauchy box, midpoint splits, an exact hit
    isolated by a symmetric gap halved from a quarter of its box, and boxes
    straddling zero split there."""
    coeffs = p.coeffs
    chain = remainder_sequence(coeffs, fraction_derivative(coeffs))

    def value(x):
        return fraction_horner(coeffs, x)

    def var(x):
        signs = [s for s in (_sign(fraction_horner(q, x)) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    lead = abs(coeffs[0])
    bound = 1 + max((abs(c) for c in coeffs[1:]), default=0) / lead
    top = Fraction(1)
    while top <= bound:
        top *= 2
    raw = []

    def split(a, b, va, vb):
        if va - vb == 0:
            return
        if va - vb == 1:
            raw.append((a, b))
            return
        mid = (a + b) / 2
        if value(mid) != 0:
            vm = var(mid)
            split(a, mid, va, vm)
            split(mid, b, vm, vb)
            return
        delta = (b - a) / 4
        while not (value(mid - delta) != 0 and value(mid + delta) != 0
                   and var(mid - delta) - var(mid + delta) == 1):
            delta /= 2
        raw.append((mid, mid))
        split(a, mid - delta, va, var(mid - delta))
        split(mid + delta, b, var(mid + delta), vb)

    split(-top, top, var(-top), var(top))
    out = []
    for lo, hi in sorted(raw):
        if lo < 0 < hi:
            if value(0) == 0:
                lo = hi = Fraction(0)
            elif _sign(value(lo)) != _sign(value(0)):
                hi = Fraction(0)
            else:
                lo = Fraction(0)
        out.append(RootBox(lo, hi, _sign(lo) if lo == hi else (1 if lo >= 0 else -1)))
    return tuple(out)


def fraction_bisection(p: Polynomial, box: RootBox, width) -> RootBox:
    """Halve [lo, hi] at (lo + hi) / 2 over Fractions until the width is at
    most ``width``; a midpoint root collapses the box to that point."""
    if box.is_exact:
        return box
    coeffs, lo, hi = p.coeffs, box.lo, box.hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        at_mid = fraction_horner(coeffs, mid)
        if at_mid == 0:
            return RootBox(mid, mid, _sign(mid))
        if _sign(at_mid) == _sign(fraction_horner(coeffs, lo)):
            lo = mid
        else:
            hi = mid
    return RootBox(lo, hi, box.sign)


def restart_modulus_sort(sf: Polynomial, boxes, refine) -> list[RootBox]:
    """Find the first pair of boxes whose modulus intervals overlap, halve
    each of its boxes that is not exact with ``refine(sf, box, width / 2)``,
    and rescan from the first pair; sort by decreasing modulus once no pair
    overlaps. Two exact boxes that overlap raise InternalInvariantViolation."""

    def overlap(a, b):
        (alo, ahi), (blo, bhi) = a.modulus_interval, b.modulus_interval
        return alo <= bhi and blo <= ahi

    boxes = list(boxes)
    while True:
        clash = None
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if overlap(boxes[i], boxes[j]):
                    clash = (i, j)
                    break
            if clash:
                break
        if clash is None:
            break
        i, j = clash
        for k in (i, j):
            box = boxes[k]
            if not box.is_exact:
                boxes[k] = refine(sf, box, box.width / 2)
        if boxes[i].is_exact and boxes[j].is_exact:
            if overlap(boxes[i], boxes[j]):
                raise InternalInvariantViolation(
                    "tie detection missed equal-modulus roots")
    boxes.sort(key=lambda b: b.modulus_interval[0], reverse=True)
    return boxes
