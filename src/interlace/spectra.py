"""Certified eigenvalue reports: kind verdicts, root enclosures, sign patterns.

The verdict is ``is_self_interlacing`` (exact, no numerics) on the
characteristic polynomial p, from the Hurwitz minors of a twist; the
enclosures come from Sturm isolation on p's squarefree part. When the
matrix's integer form is tridiagonal or anti-bidiagonal with every
off-diagonal product positive (``_simple_band``), p's roots are simple, so
p is its own squarefree part, and the Sturm counts are the band's
continuants; every other matrix is isolated by p's Sturm chain. The
verdict and the enclosures share only p. For any self-interlacing verdict
they must agree in every detail (no tie, count, signs, strict modulus
descent), and a mismatch raises InternalInvariantViolation rather than
producing a report: that error marks a bug, never bad input.

The modulus order is certified in one pass over pairs of boxes, refining
each overlapping pair until it is disjoint. A refined box lies inside the old
one and no box straddles zero, so a pair once disjoint stays disjoint. Boxes
whose moduli are already disjoint skip the pass. Isolation and refinement run
on integers and build Fractions only for the ends of the boxes they return;
the modulus sort compares those ends as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .classification import _JFLIP_STAGES, _FlipRun, classify_sign_definite
from .errors import (
    InternalInvariantViolation,
    ModulusTie,
    NotClassNPlus,
    PreconditionFailed,
)
from .matrices import Matrix, _band, flip_rows
from .polynomials import (
    DEFAULT_WIDTH_BOUND,
    Polynomial,
    RootBox,
    SIKind,
    as_width_bound,
    is_self_interlacing,
    isolate_real_roots,
    poly_gcd,
    refine_root,
    squarefree_part,
)


class SpectrumVerdict(Enum):
    KIND_I = "kind_I"
    KIND_II = "kind_II"
    NEITHER = "neither"


@dataclass(frozen=True)
class SpectrumReport:
    """Exact spectral summary of one matrix.

    ``boxes`` encloses each *distinct* real eigenvalue once (isolation runs
    on the squarefree part of the characteristic polynomial), sorted by
    decreasing modulus. The order is certified (pairwise disjoint modulus
    intervals) exactly when ``modulus_tie`` is False; with a tie the order is
    best-effort and no strict-ordering claim is made. ``modulus_tie`` is set
    when eigenvalues tie in modulus algebraically: a ±λ pair (a common
    root of p's even and odd halves, read in z^2, other than 0) or a repeated
    eigenvalue (p not squarefree). Certified self-interlacing verdicts are
    incompatible with ties, so every accepted spectrum has simple real
    nonzero eigenvalues and multiplicity 1 per box.
    """

    char_poly: Polynomial
    verdict: SpectrumVerdict
    boxes: tuple[RootBox, ...]
    signs: tuple[int, ...]
    modulus_tie: bool
    squarefree: bool
    width_bound: Fraction

    @property
    def degree(self) -> int:
        return self.char_poly.degree

    @property
    def distinct_real_roots(self) -> int:
        return len(self.boxes)


def _has_pm_pair(p: Polynomial) -> bool:
    """True when p(z) and p(-z) share a factor other than a power of z.

    Write p = z^r A(z^2) + z^r' B(z^2), {r, r'} = {0, 1}, with A and B read
    off p's alternate coefficients. For λ != 0, p(λ) = p(-λ) = 0 exactly
    when λ^2 is a common root of A and B, so the gcd runs at half the degree.
    """
    # g = w^k h with h(0) != 0, and h is not constant iff g has two nonzero terms
    ints = p._form[1]
    g = poly_gcd(Polynomial._trusted(Fraction(1), ints[::2]),
                 Polynomial._trusted(Fraction(1), ints[1::2]))
    return sum(1 for x in g._form[1] if x) > 1


def _certified_modulus_sort(sf: Polynomial, boxes: list[RootBox]) -> list[RootBox]:
    """Refine boxes until all modulus intervals are pairwise disjoint, then
    sort by strictly decreasing modulus; the caller has excluded modulus ties.
    One lexicographic pass over pairs is enough: a refined box lies inside the
    old one and none straddles zero, so a passed pair stays disjoint. Each
    box's modulus interval is kept beside it and rebuilt only when that box
    is refined.

    The pass is skipped when it would refine nothing: in the order of
    decreasing lower ends, intervals whose neighbours are disjoint are
    pairwise disjoint, so that order is the answer. The moduli are the
    boxes' Fraction ends, negated for a negative root; no Fraction is built
    by its constructor here."""
    boxes = list(boxes)
    moduli = [box.modulus_interval for box in boxes]
    order = sorted(range(len(boxes)), key=lambda k: moduli[k][0], reverse=True)
    if all(moduli[i][0] > moduli[j][1] for i, j in zip(order, order[1:])):
        return [boxes[k] for k in order]
    for i, j in combinations(range(len(boxes)), 2):
        while moduli[i][0] <= moduli[j][1] and moduli[j][0] <= moduli[i][1]:
            if boxes[i].is_exact and boxes[j].is_exact:  # equal moduli: a true tie
                raise InternalInvariantViolation(
                    "tie detection missed equal-modulus roots")
            for k in (i, j):
                box = boxes[k]
                if not box.is_exact:
                    boxes[k] = box = refine_root(sf, box, box.width / 2)
                    moduli[k] = box.modulus_interval
    order = sorted(range(len(boxes)), key=lambda k: moduli[k][0], reverse=True)
    return [boxes[k] for k in order]


def _simple_band(m: Matrix) -> Optional[tuple[int, list[int], list[int]]]:
    """(D, diagonal, products) of the band of m's integer form D*M
    (``matrices._band``) when every product is positive, else None. Such a
    band is similar to an irreducible symmetric tridiagonal matrix, so m's
    eigenvalues are real and simple, and its continuants count them in
    ``isolate_real_roots``."""
    d, b = m._form
    band = _band(b)
    if band is None or not all(x > 0 for x in band[1]):
        return None
    return (d, *band)


def _expected_signs(verdict: SpectrumVerdict, count: int) -> tuple[int, ...]:
    lead = 1 if verdict is SpectrumVerdict.KIND_I else -1
    return tuple(lead * (-1) ** k for k in range(count))


def spectrum_report(m: Matrix, width_bound=DEFAULT_WIDTH_BOUND) -> SpectrumReport:
    """Classify the spectrum of ``m`` and enclose its real eigenvalues.

    The width bound must be positive (checked before any work). The verdict
    is decided exactly on the characteristic polynomial; the boxes are then
    refined to ``width_bound`` and, absent modulus ties, refined further
    until the modulus order is certified. Self-interlacing verdicts are
    cross-checked against the enclosures before the report is returned.
    """
    width_bound = as_width_bound(width_bound)
    p = m.charpoly()
    band = _simple_band(m)
    sf = p if band else squarefree_part(p)  # a simple band's roots are simple
    squarefree = sf == p
    tie = not squarefree or _has_pm_pair(p)

    verdict = next((SpectrumVerdict[kind.name] for kind in SIKind
                    if is_self_interlacing(p, kind)), SpectrumVerdict.NEITHER)

    boxes = [refine_root(sf, box, width_bound) for box in isolate_real_roots(sf, band=band)]
    if not tie:
        boxes = _certified_modulus_sort(sf, boxes)
    else:
        boxes.sort(key=lambda b: (abs(b.midpoint), b.sign), reverse=True)
    signs = tuple(box.sign for box in boxes)

    if verdict is not SpectrumVerdict.NEITHER:
        # not tie implies squarefree, and expected signs are +-1, never 0
        chain_ok = (not tie and len(boxes) == p.degree
                    and signs == _expected_signs(verdict, len(boxes)))
        if not chain_ok:
            raise InternalInvariantViolation(
                f"twist route says {verdict.value} but enclosures disagree: "
                f"{len(boxes)} real roots of degree {p.degree}, signs {signs}")
    return SpectrumReport(p, verdict, tuple(boxes), signs, tie, squarefree,
                          width_bound)


def verify_sign_pattern(m: Matrix) -> bool:
    """Check sign(λ_k) = ε_k/ε_(k-1) against the certified spectrum.

    Requires the sign classification to land in class n+ (raises
    NotClassNPlus otherwise) and strictly separated moduli (raises
    ModulusTie). λ_k is the k-th eigenvalue by decreasing modulus and ε is
    the minor signature with ε_0 = 1.
    """
    cls = classify_sign_definite(m)
    if not cls.is_class_n_plus:
        raise NotClassNPlus(f"verdict {cls.verdict.value}")
    report = spectrum_report(m)
    if report.modulus_tie:
        raise ModulusTie("eigenvalue moduli are not strictly separated")
    eps = cls.signature
    if any(e is None for e in eps) or len(report.boxes) != m.n:
        raise InternalInvariantViolation(
            "class n+ matrix without a determined signature or full real spectrum")
    # ε_k / ε_(k-1) = ε_k ε_(k-1) for signs in {-1, +1}
    return list(report.signs) == [e * prev for prev, e in zip((1, *eps), eps)]


def kind_two_report(m: Matrix, width_bound=DEFAULT_WIDTH_BOUND) -> SpectrumReport:
    """Certify a kind-II spectrum for the row flip JA of a matrix whose
    negation is totally nonnegative.

    JA = -J(-A), so the hypotheses are the flip theorem's for -A: the first
    three ``jflip_si_certificate`` stages run on -A, and the first failing
    one raises PreconditionFailed with its detail. A nonpositive width bound
    fails first. The returned report is for JA and must come back kind II.
    """
    width_bound = as_width_bound(width_bound)
    flipped = flip_rows(m)
    run = _FlipRun(-m, -flipped, "left", width_bound)
    for check, (_, stage) in zip(("negated_totally_nonnegative", "nonsingular",
                                  "corner_conditions"), _JFLIP_STAGES):
        passed, detail = stage(run)
        if not passed:
            raise PreconditionFailed(check, detail)
    report = spectrum_report(flipped, width_bound)
    if report.verdict is not SpectrumVerdict.KIND_II:
        raise InternalInvariantViolation(
            f"flip of a negated-totally-nonnegative matrix reported "
            f"{report.verdict.value}, expected kind II")
    return report
