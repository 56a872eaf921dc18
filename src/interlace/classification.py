"""Minor-based sign classification and oscillation criteria.

Witnesses come from scanning exact minors in one fixed order: orders 1..n,
and within an order lexicographically (rows outer, columns inner).
``_scan_orders`` is the single place that decides this order (``_scan``
reads it as one stream), and with it the first witness reported for any
failure and the minor where each check stops.

Exact Neville elimination of M and M^T decides in O(n^3) whether M is
nonsingular totally nonnegative (Gasca & Peña, "Total positivity and
Neville elimination", LAA 165, 1992); it answers only that question.

Contiguous minors (consecutive rows and columns) decide strictness. Dodgson
condensation computes all of them in O(n^3), and by Karlin's Fekete-type
criterion (Total Positivity, 1968, ch. 2) a matrix is strictly sign regular
with signature σ exactly when every contiguous k-minor has sign σ_k. So
strict total positivity (σ = (1, ..., 1)) and each power of the class n+
search are read off contiguous minors alone; that search forms only powers
of a nonsingular input, and none past 2(n-1), which decides it.

The scan runs only where its result is needed: the violation reports fall
back to it after a "no" so a failure carries the scan's first witness,
``is_totally_nonnegative`` needs it only for a singular input, and sign
classification scans the input itself in full. ``stp_violation`` scans only
the least order that holds a contiguous minor <= 0, since every lower order
is then all positive.
Verdicts form a hierarchy: strictly sign definite implies class n+ (power
exponent 1), which implies sign definite of class n.

A key consumer is the flip certificate: multiplying a totally nonnegative A
by the anti-identity J gives B = JA (or C = AJ) whose nonzero order-k minors
all carry the sign (-1)^(k(k-1)/2); under corner conditions on the entries,
B gets a self-interlacing spectrum. As AJ = (JA^T)^T, the conditions for AJ
are those for JA of A^T, so one walk over the integer form serves both.
Each stage is certified separately, and the pipeline stops at the first failure.

The checks here take any matrix; the structured families and their
tridiagonal criteria live in ``constructors``, which imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import NonnegativityViolated
from .matrices import Matrix, MinorSelector, flip_cols, flip_rows
from .polynomials import DEFAULT_WIDTH_BOUND, _twist_sign, as_width_bound

if TYPE_CHECKING:
    from .spectra import SpectrumReport

Signature = tuple[Optional[int], ...]


def jflip_signature(n: int) -> tuple[int, ...]:
    """Target signature ε_k = (-1)^(k(k-1)/2) (+,-,-,+,...) for k=1..n: the twist's signs."""
    return tuple(map(_twist_sign, range(n)))


class SignVerdict(Enum):
    NOT_SIGN_DEFINITE = "not_sign_definite"
    SIGN_DEFINITE_CLASS_N = "sign_definite_class_n"
    CLASS_N_PLUS = "class_n_plus"
    STRICTLY_SIGN_DEFINITE = "strictly_sign_definite"


@dataclass(frozen=True)
class SignConflict:
    """First pair of same-order minors with opposite strict signs."""

    order: int
    positive: tuple[MinorSelector, Fraction]
    negative: tuple[MinorSelector, Fraction]


@dataclass(frozen=True)
class SignClassification:
    """Outcome of the sign-definiteness scan.

    ``signature[k-1]`` is the shared sign of nonzero order-k minors (None if
    every order-k minor vanishes, or undetermined past a conflict).
    ``power_exponent`` is the least m with M^m strictly sign definite, or
    None when no power is. ``power_cap`` is the deciding exponent 2(n-1)
    past which the search never looks.
    """

    verdict: SignVerdict
    signature: Signature
    conflict: Optional[SignConflict]
    power_exponent: Optional[int]

    @property
    def power_cap(self) -> int:
        return default_power_cap(len(self.signature))

    @property
    def is_sign_definite(self) -> bool:
        return self.verdict is not SignVerdict.NOT_SIGN_DEFINITE

    @property
    def is_class_n_plus(self) -> bool:
        return self.verdict in (SignVerdict.CLASS_N_PLUS,
                                SignVerdict.STRICTLY_SIGN_DEFINITE)


def _scan_orders(m: Matrix, start: int = 1
                 ) -> Iterator[tuple[int, Iterator[tuple[MinorSelector, Fraction]]]]:
    """(k, the ``Matrix.minors`` stream of order k) for k = ``start``..n.

    The one place that fixes scan order. A check that keeps state per order
    (``classify_sign_definite``) reads each order's stream in turn, with k
    from the loop; the others read ``_scan``. Each check reports the first
    minor of the scan that breaks it and stops reading there. Checks read a
    minor's sign off its numerator: a Fraction's denominator is positive.
    """
    for order in range(start, m.n + 1):
        yield order, m.minors(order)


def _scan(m: Matrix, start: int = 1) -> Iterator[tuple[MinorSelector, Fraction]]:
    """Every minor of ``m`` of order ``start``..n, as one stream in the
    order of ``_scan_orders``."""
    for _, minors in _scan_orders(m, start):
        yield from minors


def _contiguous_minors(b) -> Iterator[list[list[int]]]:
    """Tables of the contiguous minors of the square integer matrix ``b``.

    Table k (k = 1..n) holds at [i][j] the k-minor of rows i..i+k-1 and
    columns j..j+k-1 (0-based). It comes from the two tables before it by
    the Desnanot-Jacobi identity (Dodgson condensation):
    C_(k+1) = (NW * SE - NE * SW) / interior C_(k-1), each division exact.
    The divisors of table k+1 are the entries of table k-1, so a consumer
    must stop at the first table holding a zero. ``_first_contiguous_failure``
    stops at the first table that fails its sign test, which such a table
    does.
    """
    prev = [[1] * (len(b) + 1)] * (len(b) + 1)
    cur = [list(row) for row in b]
    while cur:
        yield cur
        prev, cur = cur, [
            [(nw * se - ne * sw) // c
             for nw, ne, sw, se, c in zip(top, top[1:], bottom, bottom[1:], inner[1:])]
            for top, bottom, inner in zip(cur, cur[1:], prev[1:])]


def _first_contiguous_failure(m: Matrix, signature: tuple[int, ...]) -> Optional[int]:
    """Least order k holding a contiguous k-minor of ``m`` that is zero or not
    of sign ``signature[k-1]``, read off D*M (D > 0), or None if none does:
    by Karlin's Fekete-type criterion, exactly when ``m`` is strictly sign
    regular with that signature."""
    _, b = m._form
    for k, (table, s) in enumerate(zip(_contiguous_minors(b), signature), 1):
        if not (min(map(min, table)) > 0 if s > 0 else max(map(max, table)) < 0):
            return k
    return None


def _signature(first: dict[int, tuple[MinorSelector, Fraction]], orders: int) -> Signature:
    """Sign of the first nonzero minor of each order 1..orders, None if none."""
    return tuple((1 if first[k][1].numerator > 0 else -1) if k in first else None
                 for k in range(1, orders + 1))


def default_power_cap(n: int) -> int:
    """2(n-1), floored at 1 so 1x1 inputs still get a power-1 search."""
    return max(1, 2 * (n - 1))


def classify_sign_definite(m: Matrix) -> SignClassification:
    """Classify minor sign consistency and search powers for strictness.

    Scans orders k = 1..n, each order's minors as its own stream: the
    first nonzero k-minor is kept as the order's sign, and every later
    k-minor costs a zero test and one sign compare against it. A strict
    sign conflict at any order yields NOT_SIGN_DEFINITE with the first
    conflicting pair as witness. If no order conflicts and no minor
    vanishes the matrix is strictly sign definite (power exponent 1). Otherwise, if M is nonsingular, powers M^m
    for m = 2..2(n-1) are tried. By Cauchy-Binet every k-minor of M^m is
    0 or of sign σ_k^m, so M^m is strict exactly when none vanishes, and by
    Karlin's criterion exactly when every contiguous k-minor has sign σ_k^m;
    the search reads only those of each power, and the least power that
    passes certifies class n+. Else the verdict is SIGN_DEFINITE_CLASS_N,
    and it is final: a singular M has only singular powers, and for a
    nonsingular M, M^2 is nonsingular TNN by Cauchy-Binet, so if any power
    is strict, M^2 is oscillatory and M^(2(n-1)) is strict
    (Gantmacher-Krein).
    """
    n = m.n

    first: dict[int, tuple[MinorSelector, Fraction]] = {}  # order -> first nonzero minor
    saw_zero = False
    for order, minors in _scan_orders(m):
        for sel, val in minors:  # up to the first nonzero minor of this order
            if val.numerator:
                first[order] = earlier = (sel, val)
                positive = val.numerator > 0
                break
            saw_zero = True
        else:
            continue
        for sel, val in minors:  # a zero test and one sign compare per minor
            num = val.numerator
            if not num:
                saw_zero = True
            elif (num > 0) is not positive:
                pos, neg = (earlier, (sel, val)) if positive else ((sel, val), earlier)
                sig = _signature(first, order - 1) + (None,) * (n - order + 1)
                return SignClassification(SignVerdict.NOT_SIGN_DEFINITE, sig,
                                          SignConflict(order, pos, neg), None)

    sig = _signature(first, n)
    if not saw_zero:
        return SignClassification(SignVerdict.STRICTLY_SIGN_DEFINITE, sig, None, 1)
    if sig[-1] is not None:  # M is nonsingular
        for exponent in range(2, default_power_cap(n) + 1):
            power, power_sig = m ** exponent, tuple(s ** exponent for s in sig)
            if _first_contiguous_failure(power, power_sig) is None:
                return SignClassification(SignVerdict.CLASS_N_PLUS, sig, None, exponent)
    return SignClassification(SignVerdict.SIGN_DEFINITE_CLASS_N, sig, None, None)


# -- total nonnegativity / positivity ----------------------------------------


def _neville_blocks(rows: list[list[int]]) -> Iterator[list[list[int]]]:
    """Neville elimination of an integer matrix, one trailing block per step.

    Before step k it yields the block of rows k..n and columns k..n, whose
    first column holds the pivots of that step. The step clears that column
    below row k from the bottom up, each row with the one above it, without
    fractions: row_i <- p_(i-1) row_i - p_i row_(i-1), then divided by its
    content. While every p_(i-1) used is positive, each row stays a positive
    multiple of the exact Neville row, so every pivot and multiplier keeps
    its sign; a consumer stops at the first block whose pivots break that.
    """
    while rows:
        yield rows
        head, rows = rows, []
        for above, row in zip(head, head[1:]):
            up, x = above[0], row[0]
            tail = row[1:]
            if x:
                tail = [up * a - x * b for a, b in zip(tail, above[1:])]
                g = gcd(*tail)
                if g > 1:
                    tail = [v // g for v in tail]
            rows.append(tail)


def _neville(m: Matrix) -> bool:
    """Gasca-Peña decider (LAA 165, 1992) on Neville elimination of M and M^T:
    each pivot column is a positive diagonal pivot, then positive pivots, then
    zeros (no row exchange, every multiplier >= 0), which holds exactly when
    M is nonsingular and totally nonnegative. A singular TNN matrix gets
    False.
    """
    _, b = m._form
    for rows in (b, [list(col) for col in zip(*b)]):
        for block in _neville_blocks(rows):
            pivots = [row[0] for row in block]
            positive = next((i for i, p in enumerate(pivots) if p <= 0), len(pivots))
            # past a nonempty run of positive pivots from the diagonal, only zeros
            if positive < len(pivots) and (not positive or any(pivots[positive:])):
                return False
    return True


def _first_bad_minor(m: Matrix, bad, start: int = 1) -> Optional[tuple[MinorSelector, Fraction]]:
    """First minor of the scan from order ``start`` whose value ``bad``
    rejects, or None."""
    return next(((sel, val) for sel, val in _scan(m, start) if bad(val)), None)


def tnn_violation(m: Matrix) -> Optional[tuple[MinorSelector, Fraction]]:
    """First negative minor in enumeration order, or None if all >= 0.

    A nonsingular TNN matrix is recognised by Neville elimination; only
    other inputs are scanned, so a witness is always the scan's first.
    """
    return None if _neville(m) else _first_bad_minor(m, lambda v: v.numerator < 0)


def is_totally_nonnegative(m: Matrix) -> bool:
    """Neville elimination passes every nonsingular TNN matrix, so its "no"
    on a nonsingular input is final; only a singular input is scanned."""
    return _neville(m) or (
        m.det() == 0 and _first_bad_minor(m, lambda v: v.numerator < 0) is None)


def stp_violation(m: Matrix) -> Optional[tuple[MinorSelector, Fraction]]:
    """First minor <= 0 in enumeration order, or None if all > 0.

    The witness lies in the least order k* that holds a minor <= 0. By
    Fekete's criterion that is the least order holding a contiguous
    minor <= 0, which condensation finds in O(n^3), and every lower order is
    all positive; so only order k* is scanned, and none when there is no k*.
    """
    order = _first_contiguous_failure(m, (1,) * m.n)
    return None if order is None else _first_bad_minor(
        m, lambda v: v.numerator <= 0, order)


def is_strictly_totally_positive(m: Matrix) -> bool:
    return _first_contiguous_failure(m, (1,) * m.n) is None


def is_oscillatory(m: Matrix) -> bool:
    """Criterion route (Gantmacher-Krein): both off-diagonals strictly
    positive (read off D*M, as D > 0), then nonsingular and totally
    nonnegative, which Neville elimination decides exactly."""
    _, b = m._form
    return all(b[j][j + 1] > 0 < b[j + 1][j] for j in range(m.n - 1)) and _neville(m)


def is_oscillatory_by_definition(m: Matrix) -> bool:
    """Definitional route: totally nonnegative with some power strictly
    totally positive. By Gantmacher-Krein a TNN matrix has such a power
    exactly when M^(n-1) (M itself for n = 1) is one, so that power alone is
    tested. A singular M has no such power, so the nonsingular TNN test of
    Neville elimination suffices; the power's strictness is read off its
    contiguous minors."""
    return _neville(m) and is_strictly_totally_positive(m ** max(1, m.n - 1))


# -- corner conditions ----------------------------------------------------------


@dataclass(frozen=True)
class CornerConditionReport:
    """Entrywise witnesses for the two corner-product conditions.

    For each i = 1..n-1, ``left[i-1]`` holds (r1, r2) with
    a(n-i, r1)*a(n+1-r1, i) > 0 and a(n+1-i, r2)*a(n+1-r2, i+1) > 0, or None
    when no witness exists; these govern the row-flipped product JA.
    ``right`` mirrors the products for AJ, those of JA for A^T:
    a(i, n+1-r1)*a(r1, n-i) > 0 and a(i+1, n+1-r2)*a(r2, n+1-i) > 0.
    Witnesses are the smallest valid r. r -> n+1-r turns the left products
    at i into the right ones at n-i, so the sides fail at mirrored indices
    and one verdict, ``holds``, serves JA and AJ.
    """

    n: int
    left: tuple[Optional[tuple[int, int]], ...]
    right: tuple[Optional[tuple[int, int]], ...]

    @property
    def holds(self) -> bool:
        return None not in self.left

    def failing_indices(self, side: str) -> tuple[int, ...]:
        _check_side(side)
        wits = self.left if side == "left" else self.right
        return tuple(i + 1 for i, w in enumerate(wits) if w is None)


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def _corner_walk(b) -> tuple[Optional[tuple[int, int]], ...]:
    """The ``left`` witnesses of ``CornerConditionReport``, read off the form
    D*M (D > 0) of a nonnegative matrix: both factors of a product > 0."""
    n, up = len(b), list(zip(*b[::-1]))  # column j bottom up: a(n+1-r, j) at r

    def first(row, column) -> Optional[int]:
        return next((r for r, (x, y) in enumerate(zip(row, column), 1) if x > 0 < y), None)

    pairs = ((first(b[n - 1 - i], up[i - 1]), first(b[n - i], up[i])) for i in range(1, n))
    return tuple(None if None in pair else pair for pair in pairs)


def check_corner_conditions(m: Matrix) -> CornerConditionReport:
    """Evaluate both corner conditions on an entrywise-nonnegative matrix;
    ``right`` is the ``left`` walk of A^T, as AJ = (JA^T)^T. For n = 1 there
    is no i to check and both sides hold vacuously."""
    d, b = m._form
    for i, row in enumerate(b, 1):
        for j, x in enumerate(row, 1):
            if x < 0:
                raise NonnegativityViolated(f"entry ({i},{j}) = {Fraction(x, d)} is negative")
    return CornerConditionReport(m.n, _corner_walk(b), _corner_walk(tuple(zip(*b))))


# -- flip certificate ------------------------------------------------------------


@dataclass(frozen=True)
class StageResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class JFlipCertificate:
    """Staged certificate that a flip JA (or AJ) has a kind-I spectrum.

    Stages run in order and stop at the first failure (later stages are
    recorded as skipped): entrywise minors nonnegative; nonsingular; corner
    conditions for the requested side; the square of the flip oscillatory;
    sign classification lands in class n+ with the alternating-pairs
    signature; spectrum certified kind I. The sign stage cannot fail once
    the first four pass: the flip of a TNN matrix is sign definite with that
    signature, and its square is oscillatory, so by Gantmacher-Krein and
    Cauchy-Binet its 2(n-1)-th power, which the search reaches, is strict.
    ``flipped`` is always populated
    (it is just a row or column reversal), ``classification`` and
    ``spectrum`` only once their stages ran.
    """

    side: str
    matrix: Matrix
    flipped: Matrix
    stages: tuple[StageResult, ...]
    classification: Optional[SignClassification]
    spectrum: Optional[SpectrumReport]

    @property
    def passed(self) -> bool:
        return all(s.status == "pass" for s in self.stages)

    @property
    def failed_stage(self) -> Optional[str]:
        for s in self.stages:
            if s.status == "fail":
                return s.name
        return None


@dataclass
class _FlipRun:
    """What the flip stages read, and the two results they leave behind."""

    matrix: Matrix
    flipped: Matrix
    side: str
    width_bound: Fraction
    classification: Optional[SignClassification] = None
    spectrum: Optional[SpectrumReport] = None


def _tnn_stage(run: _FlipRun) -> tuple[bool, str]:
    viol = tnn_violation(run.matrix)
    if viol is None:
        return True, ""
    sel, val = viol
    return False, f"minor rows={sel.rows} cols={sel.cols} = {val}"


def _nonsingular_stage(run: _FlipRun) -> tuple[bool, str]:
    det = run.matrix.det()
    return det != 0, f"determinant = {det}"


def _corner_stage(run: _FlipRun) -> tuple[bool, str]:
    corners = check_corner_conditions(run.matrix)
    if corners.holds:
        return True, ""
    return False, f"no witness for i in {corners.failing_indices(run.side)}"


def _flip_square_stage(run: _FlipRun) -> tuple[bool, str]:
    if is_oscillatory(run.flipped * run.flipped):
        return True, ""
    return False, "square of the flip fails the oscillation criterion"


def _sign_stage(run: _FlipRun) -> tuple[bool, str]:
    cls = run.classification = classify_sign_definite(run.flipped)
    target = jflip_signature(run.matrix.n)
    if not cls.is_class_n_plus:
        return False, f"verdict {cls.verdict.value} (power cap {cls.power_cap})"
    if tuple(cls.signature) != target:
        return False, f"signature {cls.signature} != expected {target}"
    return True, f"class n+ at power {cls.power_exponent}"


def _spectrum_stage(run: _FlipRun) -> tuple[bool, str]:
    from .spectra import spectrum_report, SpectrumVerdict

    spectrum = run.spectrum = spectrum_report(run.flipped, run.width_bound)
    if spectrum.verdict is SpectrumVerdict.KIND_I:
        return True, f"kind I, {len(spectrum.boxes)} real roots"
    return False, f"verdict {spectrum.verdict.value}"


_JFLIP_STAGES = (("totally_nonnegative", _tnn_stage),
                 ("nonsingular", _nonsingular_stage),
                 ("corner_conditions", _corner_stage),
                 ("flip_square_oscillatory", _flip_square_stage),
                 ("sign_classification", _sign_stage),
                 ("spectrum", _spectrum_stage))


def jflip_si_certificate(m: Matrix, side: str = "left",
                         width_bound=DEFAULT_WIDTH_BOUND) -> JFlipCertificate:
    """Run the full flip pipeline on A and certify each stage.

    side "left" forms B = JA (row reversal), side "right" forms C = AJ
    (column reversal); the corner condition checked matches the side.
    Arguments are checked before any stage runs.
    """
    _check_side(side)
    width_bound = as_width_bound(width_bound)
    flipped = flip_rows(m) if side == "left" else flip_cols(m)
    run = _FlipRun(m, flipped, side, width_bound)
    stages: list[StageResult] = []
    for name, check in _JFLIP_STAGES:
        if stages and stages[-1].status != "pass":
            stages.append(StageResult(name, "skipped"))
        else:
            passed, detail = check(run)
            stages.append(StageResult(name, "pass" if passed else "fail", detail))
    return JFlipCertificate(side, m, flipped, tuple(stages),
                            run.classification, run.spectrum)

