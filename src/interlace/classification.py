"""Minor-based sign classification and oscillation criteria.

Witnesses come from scanning exact minors in one fixed order: orders 1..n,
and within an order lexicographically (rows outer, columns inner). ``_scan``
is the single place that decides this order, and with it the first witness
reported for any failure and the minor where each check stops.

Exact Neville elimination of M and M^T decides in O(n^3) whether M is
nonsingular totally nonnegative and whether it is strictly totally positive
(Gasca & Peña, "Total positivity and Neville elimination", LAA 165, 1992).
The yes/no predicates for strict total positivity and oscillation read it
alone. The scan runs only where its result is needed: the violation
reports fall back to it after a "no" so a failure carries the scan's first
witness, ``is_totally_nonnegative`` needs it only for a singular input,
and sign classification and its power search are always a full scan.
Verdicts form a hierarchy: strictly sign definite implies class n+ (power
exponent 1), which implies sign definite of class n.

A key consumer is the flip certificate: multiplying a totally nonnegative A
by the anti-identity J gives B = JA (or C = AJ) whose nonzero order-k minors
all carry the sign (-1)^(k(k-1)/2); under corner conditions on the entries,
B gets a self-interlacing spectrum. Each stage of that chain is certified
separately and the pipeline stops at the first failure.

The checks here take any matrix; the structured families and their
tridiagonal criteria live in ``constructors``, which imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional

from .errors import NonnegativityViolated, PositivityViolated
from .matrices import Matrix, MinorSelector, as_fraction, flip_cols, flip_rows

Signature = tuple[Optional[int], ...]


def jflip_signature(n: int) -> tuple[int, ...]:
    """Target signature ε_k = (-1)^(k(k-1)/2) (+,-,-,+,+,-,-,...) for k=1..n."""
    return tuple(-1 if (k * (k - 1) // 2) % 2 else 1 for k in range(1, n + 1))


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
    ``power_exponent`` is the least m with M^m strictly sign definite when
    the class n+ search succeeded; a missing exponent with verdict
    SIGN_DEFINITE_CLASS_N means "not certified within power_cap", not a
    definitive negative.
    """

    verdict: SignVerdict
    signature: Signature
    conflict: Optional[SignConflict]
    power_exponent: Optional[int]
    power_cap: int

    @property
    def is_sign_definite(self) -> bool:
        return self.verdict is not SignVerdict.NOT_SIGN_DEFINITE

    @property
    def is_class_n_plus(self) -> bool:
        return self.verdict in (SignVerdict.CLASS_N_PLUS,
                                SignVerdict.STRICTLY_SIGN_DEFINITE)


def _scan(m: Matrix) -> Iterator[tuple[MinorSelector, Fraction]]:
    """Every minor of ``m``: orders 1..n, each in ``Matrix.minors`` order.

    The one place that fixes scan order; each check below reports the first
    minor of this stream that breaks it and stops reading there.
    """
    for order in range(1, m.n + 1):
        yield from m.minors(order)


def _strictly_sign_definite(m: Matrix) -> bool:
    """Every minor nonzero and, per order, of one shared sign (short-circuit)."""
    positive: dict[int, bool] = {}  # order -> sign of its first minor
    for sel, val in _scan(m):
        if val == 0 or positive.setdefault(sel.order, val > 0) != (val > 0):
            return False
    return True


def _signature(first: dict[int, tuple[MinorSelector, Fraction]], orders: int) -> Signature:
    """Sign of the first nonzero minor of each order 1..orders, None if none."""
    return tuple((1 if first[k][1] > 0 else -1) if k in first else None
                 for k in range(1, orders + 1))


def default_power_cap(n: int) -> int:
    """2(n-1), floored at 1 so 1x1 inputs still get a power-1 search."""
    return max(1, 2 * (n - 1))


def classify_sign_definite(m: Matrix, power_cap: Optional[int] = None) -> SignClassification:
    """Classify minor sign consistency and search powers for strictness.

    Scans orders k = 1..n; a strict sign conflict at any order yields
    NOT_SIGN_DEFINITE with the first conflicting pair as witness. If no
    order conflicts and no minor vanishes the matrix is strictly sign
    definite (power exponent 1). Otherwise powers M^m for m = 2..power_cap
    are tested for strict sign definiteness; the least hit certifies class
    n+. Exhausting the cap leaves the verdict at SIGN_DEFINITE_CLASS_N.
    """
    n = m.n
    cap = default_power_cap(n) if power_cap is None else power_cap
    if cap < 1:
        raise PositivityViolated("power cap must be >= 1")

    first: dict[int, tuple[MinorSelector, Fraction]] = {}  # order -> first nonzero minor
    saw_zero = False
    for sel, val in _scan(m):
        if val == 0:
            saw_zero = True
            continue
        earlier = first.setdefault(sel.order, (sel, val))
        if (earlier[1] > 0) != (val > 0):
            pos, neg = (earlier, (sel, val)) if val < 0 else ((sel, val), earlier)
            sig = _signature(first, sel.order - 1) + (None,) * (n - sel.order + 1)
            return SignClassification(SignVerdict.NOT_SIGN_DEFINITE, sig,
                                      SignConflict(sel.order, pos, neg), None, cap)

    sig = _signature(first, n)
    if not saw_zero:
        return SignClassification(SignVerdict.STRICTLY_SIGN_DEFINITE, sig,
                                  None, 1, cap)
    for exponent in range(2, cap + 1):
        if _strictly_sign_definite(m ** exponent):
            return SignClassification(SignVerdict.CLASS_N_PLUS, sig,
                                      None, exponent, cap)
    return SignClassification(SignVerdict.SIGN_DEFINITE_CLASS_N, sig,
                              None, None, cap)


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


def _neville(m: Matrix, strict: bool) -> bool:
    """Gasca-Peña decider (LAA 165, 1992) on Neville elimination of M and M^T.

    strict: every pivot is > 0, which holds exactly when M is strictly
    totally positive. Otherwise: each pivot column is a positive diagonal
    pivot, then positive pivots, then zeros (no row exchange, every
    multiplier >= 0), which holds exactly when M is nonsingular and totally
    nonnegative. Both answers are exact; a singular TNN matrix gets False.
    """
    _, b = m._integer_form()
    for rows in (b, [list(col) for col in zip(*b)]):
        for block in _neville_blocks(rows):
            pivots = [row[0] for row in block]
            positive = next((i for i, p in enumerate(pivots) if p <= 0), len(pivots))
            # past the run of positive pivots from the diagonal: strict allows
            # nothing, otherwise a nonempty run followed only by zeros
            if positive < len(pivots) and (strict or not positive or any(pivots[positive:])):
                return False
    return True


def tnn_violation(m: Matrix) -> Optional[tuple[MinorSelector, Fraction]]:
    """First negative minor in enumeration order, or None if all >= 0.

    A nonsingular TNN matrix is recognised by Neville elimination; only
    other inputs are scanned, so a witness is always the scan's first.
    """
    if _neville(m, strict=False):
        return None
    return next(((sel, val) for sel, val in _scan(m) if val < 0), None)


def is_totally_nonnegative(m: Matrix) -> bool:
    """Neville elimination passes every nonsingular TNN matrix, so its "no"
    on a nonsingular input is final; only a singular input is scanned."""
    return _neville(m, strict=False) or (m.det() == 0 and tnn_violation(m) is None)


def stp_violation(m: Matrix) -> Optional[tuple[MinorSelector, Fraction]]:
    """First minor <= 0 in enumeration order, or None if all > 0.

    A strictly totally positive matrix is recognised by Neville elimination;
    only other inputs are scanned.
    """
    if _neville(m, strict=True):
        return None
    return next(((sel, val) for sel, val in _scan(m) if val <= 0), None)


def is_strictly_totally_positive(m: Matrix) -> bool:
    return _neville(m, strict=True)


def is_oscillatory(m: Matrix) -> bool:
    """Criterion route (Gantmacher-Krein): both off-diagonals strictly
    positive (entries (j, j+1) and (j+1, j)), then nonsingular and totally
    nonnegative, which Neville elimination decides exactly."""
    n = m.n
    for j in range(1, n):
        if m[j, j + 1] <= 0 or m[j + 1, j] <= 0:
            return False
    return _neville(m, strict=False)


def is_oscillatory_by_definition(m: Matrix, power_cap: Optional[int] = None) -> bool:
    """Definitional route: totally nonnegative with some power strictly
    totally positive. A cap of n-1 (floored at 1) is decisive: when any
    power works, the (n-1)-th already does. A singular M has no such power,
    so the nonsingular TNN test of Neville elimination suffices."""
    cap = max(1, m.n - 1) if power_cap is None else power_cap
    if cap < 1:
        raise PositivityViolated("power cap must be >= 1")
    if not _neville(m, strict=False):
        return False
    power = m
    for exponent in range(1, cap + 1):
        if exponent > 1:
            power = power * m
        if is_strictly_totally_positive(power):
            return True
    return False


# -- corner conditions ----------------------------------------------------------


@dataclass(frozen=True)
class CornerConditionReport:
    """Entrywise witnesses for the two corner-product conditions.

    For each i = 1..n-1, ``left[i-1]`` holds (r1, r2) with
    a(n-i, r1)*a(n+1-r1, i) > 0 and a(n+1-i, r2)*a(n+1-r2, i+1) > 0, or None
    when no witness exists; these govern the row-flipped product JA.
    ``right`` mirrors the products for AJ: a(i, n+1-r1)*a(r1, n-i) > 0 and
    a(i+1, n+1-r2)*a(r2, n+1-i) > 0. Witnesses are the smallest valid r.
    """

    n: int
    left: tuple[Optional[tuple[int, int]], ...]
    right: tuple[Optional[tuple[int, int]], ...]

    @property
    def left_holds(self) -> bool:
        return all(w is not None for w in self.left)

    @property
    def right_holds(self) -> bool:
        return all(w is not None for w in self.right)

    def holds(self, side: str) -> bool:
        return self.left_holds if side == "left" else self.right_holds

    def failing_indices(self, side: str) -> tuple[int, ...]:
        wits = self.left if side == "left" else self.right
        return tuple(i + 1 for i, w in enumerate(wits) if w is None)


def _first_r(n: int, predicate) -> Optional[int]:
    for r in range(1, n + 1):
        if predicate(r):
            return r
    return None


def check_corner_conditions(m: Matrix) -> CornerConditionReport:
    """Evaluate both corner conditions on an entrywise-nonnegative matrix.

    For n = 1 there is no i to check and both sides hold vacuously.
    """
    n = m.n
    for i, j, x in m.entries():
        if x < 0:
            raise NonnegativityViolated(f"entry ({i},{j}) = {x} is negative")

    left: list[Optional[tuple[int, int]]] = []
    right: list[Optional[tuple[int, int]]] = []
    for i in range(1, n):
        l1 = _first_r(n, lambda r: m[n - i, r] * m[n + 1 - r, i] > 0)
        l2 = _first_r(n, lambda r: m[n + 1 - i, r] * m[n + 1 - r, i + 1] > 0)
        left.append((l1, l2) if l1 is not None and l2 is not None else None)
        r1 = _first_r(n, lambda r: m[i, n + 1 - r] * m[r, n - i] > 0)
        r2 = _first_r(n, lambda r: m[i + 1, n + 1 - r] * m[r, n + 1 - i] > 0)
        right.append((r1, r2) if r1 is not None and r2 is not None else None)
    return CornerConditionReport(n, tuple(left), tuple(right))


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
    signature; spectrum certified kind I. ``flipped`` is always populated
    (it is just a row or column reversal), ``classification`` and
    ``spectrum`` only once their stages ran.
    """

    side: str
    matrix: Matrix
    flipped: Matrix
    stages: tuple[StageResult, ...]
    classification: Optional[SignClassification]
    spectrum: object  # Optional[SpectrumReport]; typed loosely to avoid an import cycle

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
    power_cap: Optional[int]
    width_bound: Fraction
    classification: Optional[SignClassification] = None
    spectrum: object = None


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
    if corners.holds(run.side):
        return True, ""
    return False, f"no witness for i in {corners.failing_indices(run.side)}"


def _flip_square_stage(run: _FlipRun) -> tuple[bool, str]:
    if is_oscillatory(run.flipped * run.flipped):
        return True, ""
    return False, "square of the flip fails the oscillation criterion"


def _sign_stage(run: _FlipRun) -> tuple[bool, str]:
    cls = run.classification = classify_sign_definite(run.flipped, run.power_cap)
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
                         power_cap: Optional[int] = None,
                         width_bound=Fraction(1, 10 ** 9)) -> JFlipCertificate:
    """Run the full flip pipeline on A and certify each stage.

    side "left" forms B = JA (row reversal), side "right" forms C = AJ
    (column reversal); the corner condition checked matches the side.
    Arguments are checked before any stage runs.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if power_cap is not None and power_cap < 1:
        raise PositivityViolated("power cap must be >= 1")
    if as_fraction(width_bound) <= 0:
        raise PositivityViolated("width bound must be positive")
    flipped = flip_rows(m) if side == "left" else flip_cols(m)
    run = _FlipRun(m, flipped, side, power_cap, width_bound)
    stages: list[StageResult] = []
    for name, check in _JFLIP_STAGES:
        if stages and stages[-1].status != "pass":
            stages.append(StageResult(name, "skipped"))
        else:
            passed, detail = check(run)
            stages.append(StageResult(name, "pass" if passed else "fail", detail))
    return JFlipCertificate(side, m, flipped, tuple(stages),
                            run.classification, run.spectrum)

