"""Spectrum reports, certified ordering, sign-pattern verification, mirror route."""

from fractions import Fraction as F

import pytest

from interlace import (
    AntiBidiagonalSpec,
    Matrix,
    ModulusTie,
    NotClassNPlus,
    Polynomial,
    PositivityViolated,
    PreconditionFailed,
    SIKind,
    SpectrumVerdict,
    anti_bidiagonal,
    anti_identity,
    decimal_string,
    flip_cols,
    flip_rows,
    identity,
    is_self_interlacing,
    jflip_si_certificate,
    kind_two_report,
    random_positive_tnn,
    spectrum_report,
    verify_sign_pattern,
)
from conftest import random_rational_matrix


# -- frozen worked examples --------------------------------------------------------


def test_spectrum_of_all_ones_antibidiagonal():
    m = anti_bidiagonal(AntiBidiagonalSpec(1, (1, 1), (1, 1)))
    assert m == Matrix([[0, 0, 1], [0, 1, 1], [1, 1, 0]])
    rep = spectrum_report(m)
    assert rep.char_poly == Polynomial([1, -1, -2, 1])
    assert rep.verdict is SpectrumVerdict.KIND_I
    assert rep.signs == (1, -1, 1)
    assert not rep.modulus_tie and rep.squarefree
    assert rep.distinct_real_roots == 3
    approx = [decimal_string(b.midpoint, 9) for b in rep.boxes]
    assert approx == ["1.801937736", "-1.246979604", "0.445041868"]


def test_spectrum_golden_ratio_matrix():
    rep = spectrum_report(Matrix([[0, 1], [1, 1]]))
    assert rep.char_poly == Polynomial([1, -1, -1])
    assert rep.verdict is SpectrumVerdict.KIND_I
    assert rep.signs == (1, -1)
    assert decimal_string(rep.boxes[0].midpoint, 9) == "1.618033989"
    assert decimal_string(rep.boxes[1].midpoint, 9) == "-0.618033989"
    # enclosures honour the requested width bound
    for box in rep.boxes:
        assert box.is_exact or box.width <= rep.width_bound


def test_spectrum_width_bound_is_respected():
    rep = spectrum_report(Matrix([[0, 1], [1, 1]]), width_bound=F(1, 10**15))
    for box in rep.boxes:
        assert box.is_exact or box.width <= F(1, 10**15)
    lo, hi = rep.boxes[0].lo, rep.boxes[0].hi
    # the enclosure must overlap this 1e-18-wide bracket of the golden ratio
    assert lo < F("1.618033988749894849") and hi > F("1.618033988749894848")


def test_spectrum_rejects_nonpositive_width_bound():
    """Checked up front, even when no real root would reach the refinement."""
    rotation = Matrix([[0, -1], [1, 0]])
    for bound in (-1, 0, "0"):
        with pytest.raises(PositivityViolated):
            spectrum_report(rotation, bound)


def test_spectrum_kind_two_mirror_example():
    rep = spectrum_report(Matrix([[0, 1], [1, -1]]))
    assert rep.char_poly == Polynomial([1, 1, -1])
    assert rep.verdict is SpectrumVerdict.KIND_II
    assert rep.signs == (-1, 1)


def test_spectrum_modulus_ties_are_reported_not_certified():
    eye = spectrum_report(identity(2))          # repeated eigenvalue 1
    assert eye.verdict is SpectrumVerdict.NEITHER
    assert eye.modulus_tie and not eye.squarefree

    swap = spectrum_report(Matrix([[0, 1], [1, 0]]))  # eigenvalues +1 and -1
    assert swap.verdict is SpectrumVerdict.NEITHER
    assert swap.modulus_tie and swap.squarefree


def test_spectrum_zero_eigenvalue_gets_exact_box():
    rep = spectrum_report(Matrix([[0, 0], [0, 1]]))   # roots 1 and 0
    assert rep.verdict is SpectrumVerdict.NEITHER     # zero root excluded
    assert not rep.modulus_tie
    assert rep.signs == (1, 0)
    zero_box = rep.boxes[1]
    assert zero_box.is_exact and zero_box.lo == 0 and zero_box.sign == 0


def test_spectrum_order_is_certified_modulus_descending():
    for seed in range(10):
        m = flip_rows(random_positive_tnn(4, seed))
        rep = spectrum_report(m)
        assert rep.verdict is SpectrumVerdict.KIND_I, seed
        moduli = [b.modulus_interval for b in rep.boxes]
        for (lo_a, hi_a), (lo_b, hi_b) in zip(moduli, moduli[1:]):
            assert lo_a > hi_b, (seed, moduli)  # disjoint, strictly decreasing


def test_spectrum_agrees_with_twist_route():
    """Verdict computed from the coefficient test matches the verified roots."""
    for rows, kind in (
        ([[0, 1], [1, 1]], SIKind.KIND_I),
        ([[0, 1], [1, -1]], SIKind.KIND_II),
    ):
        rep = spectrum_report(Matrix(rows))
        assert is_self_interlacing(rep.char_poly, kind)


def _polynomial_verdict(p: Polynomial) -> SpectrumVerdict:
    if is_self_interlacing(p, SIKind.KIND_I):
        return SpectrumVerdict.KIND_I
    if is_self_interlacing(p, SIKind.KIND_II):
        return SpectrumVerdict.KIND_II
    return SpectrumVerdict.NEITHER


def test_spectrum_verdict_matches_is_self_interlacing():
    """The report's one squarefree test plus the twists decides exactly what
    is_self_interlacing decides on the characteristic polynomial."""
    cases = [random_rational_matrix(n, 700 + 10 * n + k) for n in range(1, 7)
             for k in range(6)]
    for n in range(2, 7):
        spec = AntiBidiagonalSpec(F(n, 2), tuple(F(k + 1, 3) for k in range(n - 1)),
                                  tuple(F(2, k + 1) for k in range(n - 1)))
        cases.append(anti_bidiagonal(spec))
        cases.append(flip_rows(random_positive_tnn(n, 300 + n) * F(-1)))
    cases += [
        identity(3),                                        # repeated eigenvalue
        Matrix([[2, 0, 0], [0, 2, 0], [0, 0, -1]]),
        Matrix([[3, 0, 0], [0, -3, 0], [0, 0, 1]]),          # a +-3 pair
        Matrix([[0, 0, 0], [0, 2, 0], [0, 0, -1]]),          # a zero eigenvalue
    ]
    seen = set()
    for m in cases:
        rep = spectrum_report(m)
        assert rep.verdict is _polynomial_verdict(rep.char_poly), m
        seen.add(rep.verdict)
    assert seen == set(SpectrumVerdict)


def test_flip_similarity_gives_equal_verdicts():
    for seed in range(6):
        a = random_positive_tnn(3, seed + 40)
        left = spectrum_report(flip_rows(a))
        right = spectrum_report(flip_cols(a))
        assert left.char_poly == right.char_poly
        assert left.verdict is right.verdict
        assert left.signs == right.signs


# -- sign-pattern verification ------------------------------------------------------


def test_verify_sign_pattern_on_strictly_positive_example():
    assert verify_sign_pattern(Matrix([[2, 1], [1, 1]]))


def test_verify_sign_pattern_on_flipped_generated_matrices():
    for seed in range(10):
        n = 2 + seed % 4
        cert = jflip_si_certificate(random_positive_tnn(n, seed))
        assert cert.passed, seed
        assert verify_sign_pattern(cert.flipped), seed


def test_verify_sign_pattern_requires_class_n_plus():
    with pytest.raises(NotClassNPlus):
        verify_sign_pattern(anti_identity(3))
    with pytest.raises(NotClassNPlus):
        verify_sign_pattern(Matrix([[1, -1], [1, 1]]))


def test_verify_sign_pattern_predicts_sign_ratios():
    """Sign of the k-th eigenvalue equals the product of adjacent signature terms."""
    m = Matrix([[0, 1], [1, 1]])
    assert verify_sign_pattern(m)
    # signature (1, -1) predicts signs (e1*e0, e2*e1) = (1, -1)
    assert spectrum_report(m).signs == (1, -1)


# -- mirrored spectra ---------------------------------------------------------------


def test_kind_two_report_worked_example():
    rep = kind_two_report(Matrix([[-1, -1], [0, -1]]))
    assert rep.verdict is SpectrumVerdict.KIND_II
    assert rep.char_poly == Polynomial([1, 1, -1])
    assert rep.signs == (-1, 1)


def test_kind_two_report_checks_negated_nonnegativity():
    with pytest.raises(PreconditionFailed) as info:
        kind_two_report(Matrix([[1, 1], [0, 1]]))
    assert info.value.check == "negated_totally_nonnegative"


def test_kind_two_report_checks_nonsingularity():
    with pytest.raises(PreconditionFailed) as info:
        kind_two_report(Matrix([[-1, -1], [-1, -1]]))
    assert info.value.check == "nonsingular"


def test_kind_two_report_checks_corner_conditions():
    with pytest.raises(PreconditionFailed) as info:
        kind_two_report(identity(2) * F(-1))
    assert info.value.check == "corner_conditions"


def test_kind_two_report_matches_negated_flip_route():
    """-A oscillatory-flip route and the direct mirrored report agree."""
    for seed in range(6):
        n = 2 + seed % 3
        a = random_positive_tnn(n, seed + 90)
        rep = kind_two_report(a * F(-1))
        assert rep.verdict is SpectrumVerdict.KIND_II, seed
        mirror = spectrum_report(flip_rows(a))
        assert mirror.verdict is SpectrumVerdict.KIND_I
        # char poly of the negated matrix is the reflected char poly, made monic
        assert rep.char_poly == mirror.char_poly.compose_neg().monic()
        # eigenvalues are the negatives of the kind-I ones
        assert rep.signs == tuple(-s for s in mirror.signs)
