"""Acceptance suite: eight desk-scale property checks, all exact.

Each test prints one ``acceptance k: PASS/FAIL`` line (run with ``-s`` to see
them on success). Counts, size ranges, the 60 s runtime budget and the 1e-9
anchor tolerance are pinned here on purpose; loosening them is not allowed.
"""

import time
from fractions import Fraction as F

import pytest

from interlace import (
    AntiBidiagonalSpec,
    JacobiSpec,
    Matrix,
    ModulusTie,
    Polynomial,
    SIKind,
    SplitMix64,
    SpectrumVerdict,
    anti_bidiagonal,
    anti_jacobi,
    anti_tridiagonal_criterion,
    classify_sign_definite,
    equivalent_tridiagonal,
    flip_cols,
    flip_rows,
    hurwitz_minors,
    is_oscillatory,
    is_oscillatory_by_definition,
    is_self_interlacing,
    jacobi_matrix,
    jacobi_oscillatory_criterion,
    jflip_si_certificate,
    jflip_signature,
    poly_from_roots,
    random_oscillatory,
    random_positive_tnn,
    random_tnn,
    si_twist,
    spectrum_report,
    verify_sign_pattern,
)
from conftest import berkowitz_charpoly, random_int_matrix

ANCHOR_TOL = F(1, 10**9)


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nacceptance {number}: {status} - {description}")
    assert not failures, failures[:5]


def _contains_within(box_lo: F, box_hi: F, anchor: F, tol: F) -> bool:
    return box_lo - tol <= anchor <= box_hi + tol


# -- shared corpora ---------------------------------------------------------------


@pytest.fixture(scope="module")
def flip_certificates():
    """Suite 1 corpus: 200 positive nonsingular TNN matrices and their
    flip certificates, with the wall time the whole batch took."""
    start = time.perf_counter()
    certs = []
    for seed in range(200):
        n = 2 + seed % 5                     # sizes 2..6
        certs.append(jflip_si_certificate(random_positive_tnn(n, seed)))
    return certs, time.perf_counter() - start


def _positive_jacobi_spec(rng: SplitMix64, n: int) -> JacobiSpec:
    # diagonal dominant enough that every leading minor stays positive
    return JacobiSpec(
        tuple(F(4 + rng.below(2)) for _ in range(n)),
        tuple(F(1 + rng.below(2)) for _ in range(n - 1)),
        tuple(F(1 + rng.below(2)) for _ in range(n - 1)))


def _leading_minors(spec: JacobiSpec) -> list[F]:
    # three-term recurrence for tridiagonal leading principal minors
    minors = [F(1), spec.diag[0]]
    for k in range(1, spec.n):
        minors.append(spec.diag[k] * minors[-1]
                      - spec.sup[k - 1] * spec.sub[k - 1] * minors[-2])
    return minors[1:]


def _adversarial_jacobi_spec(rng: SplitMix64, n: int, exact_zero: bool) -> JacobiSpec:
    """Positive spec retuned so one leading minor is exactly zero or negative."""
    base = _positive_jacobi_spec(rng, n)
    k = 2 + rng.below(n - 1)                # violate minor of order k in 2..n
    minors = [F(1)] + _leading_minors(base)
    pivot = base.sup[k - 2] * base.sub[k - 2] * minors[k - 2] / minors[k - 1]
    delta = F(1) if exact_zero else F(1, 2)
    diag = list(base.diag)
    diag[k - 1] = pivot * delta             # still > 0, kills minor k
    return JacobiSpec(tuple(diag), base.sup, base.sub)


@pytest.fixture(scope="module")
def jacobi_suite():
    """Suite 4 corpus: 200 positive specs plus 50 adversarial ones, each with
    both criterion verdicts and the spectrum verdict of the reversed matrix."""
    rng = SplitMix64(2024)
    specs = []
    for _ in range(200):
        specs.append(_positive_jacobi_spec(rng, 2 + rng.below(5)))
    for idx in range(50):
        specs.append(_adversarial_jacobi_spec(rng, 2 + rng.below(5), idx % 2 == 0))
    results = []
    for spec in specs:
        results.append((
            spec,
            anti_tridiagonal_criterion(spec),
            jacobi_oscillatory_criterion(spec),
            spectrum_report(anti_jacobi(spec)).verdict,
        ))
    return results


# -- criteria ---------------------------------------------------------------------


def test_acceptance_1_flip_certificates(flip_certificates):
    certs, elapsed = flip_certificates
    failures = []
    for seed, cert in enumerate(certs):
        n = cert.matrix.n
        ok = (cert.passed
              and cert.classification is not None
              and cert.classification.is_class_n_plus
              and cert.classification.signature == jflip_signature(n)
              and cert.spectrum is not None
              and cert.spectrum.verdict is SpectrumVerdict.KIND_I)
        if not ok:
            failures.append((seed, cert.failed_stage))
    if elapsed >= 60.0:
        failures.append(("runtime_seconds", elapsed))
    _report(1, "200 positive TNN flips certified class n+ and kind I "
               f"({elapsed:.1f} s)", failures)


def test_acceptance_2_flip_minor_signs():
    failures = []
    for seed in range(100):
        n = 2 + seed % 4                     # sizes 2..5
        a = random_tnn(n, seed)
        target = jflip_signature(n)
        for label, flipped in (("JA", flip_rows(a)), ("AJ", flip_cols(a))):
            for order in range(1, n + 1):
                want = target[order - 1]
                for sel, val in flipped.minors(order):
                    if val != 0 and (1 if val > 0 else -1) != want:
                        failures.append((seed, label, order, sel))
    _report(2, "100 TNN flips: nonzero k-minors all carry sign "
               "(-1)^(k(k-1)/2)", failures)


def test_acceptance_3_anti_bidiagonal_spectra():
    failures = []
    for seed in range(200):
        n = 2 + seed % 7                     # sizes 2..8
        rng = SplitMix64(seed)
        spec = AntiBidiagonalSpec(
            F(1 + rng.below(6), 1 + rng.below(3)),
            tuple(F(1 + rng.below(6), 1 + rng.below(3)) for _ in range(n - 1)),
            tuple(F(1 + rng.below(6), 1 + rng.below(3)) for _ in range(n - 1)))
        b = anti_bidiagonal(spec)
        if spectrum_report(b).verdict is not SpectrumVerdict.KIND_I:
            failures.append((seed, "verdict"))
        if b.charpoly() != equivalent_tridiagonal(spec).charpoly():
            failures.append((seed, "charpoly"))
        # both sides above take the continuant route; Berkowitz is independent
        if b.charpoly() != berkowitz_charpoly(b):
            failures.append((seed, "charpoly oracle"))
    _report(3, "200 positive anti-bidiagonal matrices: kind I and exact "
               "tridiagonal charpoly match", failures)


def test_acceptance_4_criterion_equivalence(jacobi_suite):
    failures = []
    saw_true = saw_false = 0
    for spec, anti, direct, verdict in jacobi_suite:
        spectral = verdict is SpectrumVerdict.KIND_I
        if not (anti == direct == spectral):
            failures.append((spec, anti, direct, verdict))
        if direct:
            saw_true += 1
        else:
            saw_false += 1
    if not (saw_true and saw_false):
        failures.append(("one-sided corpus", saw_true, saw_false))
    _report(4, "250 tridiagonal specs: anti-pattern criterion == minor "
               "criterion == kind I spectrum", failures)


def test_acceptance_5_oscillation_routes():
    failures = []
    rng = SplitMix64(77)
    for seed in range(100):
        n = 2 + seed % 4                     # sizes 2..5
        kind = seed % 4
        if kind == 0:
            m = random_tnn(n, seed)
        elif kind == 1:
            m = random_oscillatory(n, seed)
        elif kind == 2:
            m = jacobi_matrix(JacobiSpec(
                tuple(F(rng.below(4)) for _ in range(n)),
                tuple(F(1 + rng.below(3)) for _ in range(n - 1)),
                tuple(F(1 + rng.below(3)) for _ in range(n - 1))))
        else:
            m = random_int_matrix(n, seed, lo=0, hi=3)
        if is_oscillatory(m) != is_oscillatory_by_definition(m):
            failures.append((seed, kind))
    _report(5, "100 nonnegative matrices: oscillation criterion equals the "
               "power definition", failures)


def test_acceptance_6_sign_pattern_verification(flip_certificates, jacobi_suite):
    certs, _ = flip_certificates
    # expected_plus: matrices the producing suite already certifies as class n+
    candidates = [("suite1", i, c.flipped, True) for i, c in enumerate(certs)]
    for i, (spec, anti, direct, verdict) in enumerate(jacobi_suite):
        candidates.append(("suite4", i, anti_jacobi(spec), direct))
    failures = []
    checked = 0
    for origin, idx, m, expected_plus in candidates:
        cls = classify_sign_definite(m)
        if not cls.is_class_n_plus:
            if expected_plus:
                failures.append((origin, idx, "not class n+"))
            continue
        checked += 1
        try:
            if not verify_sign_pattern(m):
                failures.append((origin, idx, "pattern mismatch"))
        except ModulusTie:
            failures.append((origin, idx, "modulus tie"))
    if checked < 200:
        failures.append(("too few class n+ candidates", checked))
    _report(6, f"verified eigenvalue sign pattern on {checked} class n+ "
               "matrices from suites 1 and 4", failures)


def test_acceptance_7_worked_anchors():
    failures = []

    flip = flip_rows(Matrix([[1, 1], [0, 1]]))
    if flip != Matrix([[0, 1], [1, 1]]):
        failures.append("flip layout")
    rep = spectrum_report(flip, ANCHOR_TOL)
    if rep.char_poly != Polynomial([1, -1, -1]):
        failures.append("char poly 2x2")
    for box, anchor in zip(rep.boxes, (F("1.618033989"), F("-0.618033989"))):
        if box.width > ANCHOR_TOL or not _contains_within(
                box.lo, box.hi, anchor, ANCHOR_TOL):
            failures.append(("2x2 anchor", str(anchor)))

    twist = si_twist(rep.char_poly)
    if twist != Polynomial([1, 1, 1]):
        failures.append("twist coefficients")
    if hurwitz_minors(twist) != (F(1), F(1)):
        failures.append("twist minor chain")

    cube = anti_bidiagonal(AntiBidiagonalSpec(1, (1, 1), (1, 1)))
    rep3 = spectrum_report(cube, ANCHOR_TOL)
    if rep3.char_poly != Polynomial([1, -1, -2, 1]):
        failures.append("char poly 3x3")
    if rep3.verdict is not SpectrumVerdict.KIND_I:
        failures.append("3x3 verdict")
    anchors3 = (F("1.801937736"), F("-1.246979604"), F("0.445041867"))
    for box, anchor in zip(rep3.boxes, anchors3):
        if box.width > ANCHOR_TOL or not _contains_within(
                box.lo, box.hi, anchor, ANCHOR_TOL):
            failures.append(("3x3 anchor", str(anchor)))

    _report(7, "worked 2x2 and 3x3 anchors reproduced within 1e-9", failures)


def _si_poly(rng: SplitMix64, degree: int, kind: SIKind) -> Polynomial:
    total = F(0)
    moduli = []
    for _ in range(degree):
        total += F(1 + rng.below(4), 1 + rng.below(2))
        moduli.append(total)
    moduli.reverse()                         # strictly decreasing
    lead = 1 if kind is SIKind.KIND_I else -1
    roots = [m if (i % 2 == 0) == (lead == 1) else -m
             for i, m in enumerate(moduli)]
    return poly_from_roots(roots)


def test_acceptance_8_reflection_involution():
    failures = []
    rng = SplitMix64(99)
    for trial in range(500):
        degree = 1 + rng.below(8)
        if trial % 5 == 0:
            kind = SIKind.KIND_I if trial % 10 == 0 else SIKind.KIND_II
            p = _si_poly(rng, degree, kind)
        else:
            lead = F((1 + rng.below(5)) * (1 if rng.below(2) else -1))
            p = Polynomial([lead] + [F(rng.below(11) - 5)
                                     for _ in range(degree)])
        mirrored = p.compose_neg()
        if is_self_interlacing(p, SIKind.KIND_I) != \
                is_self_interlacing(mirrored, SIKind.KIND_II):
            failures.append((trial, "I vs mirrored II", p.coeffs))
        if is_self_interlacing(p, SIKind.KIND_II) != \
                is_self_interlacing(mirrored, SIKind.KIND_I):
            failures.append((trial, "II vs mirrored I", p.coeffs))
    _report(8, "500 polynomials: interlacing kind swaps under z -> -z, "
               "both directions", failures)
