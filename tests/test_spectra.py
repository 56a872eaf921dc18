"""Spectrum reports, certified ordering, sign-pattern verification, mirror route."""

import ast
import inspect
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    DEFAULT_WIDTH_BOUND,
    AntiBidiagonalSpec,
    InternalInvariantViolation,
    JacobiSpec,
    Matrix,
    ModulusTie,
    NotClassNPlus,
    NotSquarefree,
    Polynomial,
    PositivityViolated,
    PreconditionFailed,
    RootBox,
    SIKind,
    SplitMix64,
    SpectrumVerdict,
    anti_bidiagonal,
    anti_identity,
    anti_jacobi,
    decimal_string,
    flip_cols,
    flip_rows,
    identity,
    is_self_interlacing,
    isolate_real_roots,
    jacobi_matrix,
    jflip_si_certificate,
    kind_two_report,
    poly_from_roots,
    poly_gcd,
    random_positive_tnn,
    refine_root,
    spectrum_report,
    verify_sign_pattern,
)
from interlace import polynomials, spectra
from conftest import random_rational_matrix, restart_modulus_sort

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interlace"


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
        with pytest.raises(PositivityViolated):  # before any precondition fails
            kind_two_report(Matrix([[1, 2], [3, 4]]), bound)


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
    """The report's verdict is what is_self_interlacing decides on the
    characteristic polynomial, over all three verdicts."""
    cases = [random_rational_matrix(n, 700 + 10 * n + k) for n in range(1, 7)
             for k in range(6)]
    for n in range(2, 7):
        spec = AntiBidiagonalSpec(F(n, 2), tuple(F(k + 1, 3) for k in range(n - 1)),
                                  tuple(F(2, k + 1) for k in range(n - 1)))
        cases.append(anti_bidiagonal(spec))
        cases.append(flip_rows(-random_positive_tnn(n, 300 + n)))
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


def test_not_squarefree_char_poly_skips_the_pm_pair_gcd(monkeypatch, euclid_walks):
    """A repeated eigenvalue is already a tie: no gcd of (p, p(-z)), and two
    Euclid walks in all, the Sturm chains of p and of its squarefree part."""
    calls = []

    def counting_gcd(p, q, gcd=polynomials.poly_gcd):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(polynomials, "poly_gcd", counting_gcd)
    monkeypatch.setattr(spectra, "poly_gcd", counting_gcd)
    rep = spectrum_report(identity(3))
    assert calls == [] and len(euclid_walks) == 2
    assert rep.modulus_tie and not rep.squarefree


def test_squarefree_spectrum_walks_euclid_once_on_p_and_p_prime(euclid_walks):
    """One chain of p serves the squarefree test and isolation (the kinds
    and refinement read no chain); the other walk is the gcd of p's even and
    odd halves."""
    rep = spectrum_report(flip_rows(random_positive_tnn(6, 1)))
    assert rep.squarefree and rep.verdict is SpectrumVerdict.KIND_I
    assert len(euclid_walks) == 2


def test_a_positive_band_builds_no_sturm_chain(euclid_walks):
    """Tridiagonal and anti-bidiagonal inputs with every off-diagonal product
    positive are isolated by their continuants: the report builds no Sturm
    chain and walks Euclid once, for the +-pair gcd. A dense input, an
    anti-Jacobi one, and a band with one zero or one negative product build
    the chain."""
    third = F(1, 3)
    banded = [anti_bidiagonal(AntiBidiagonalSpec(F(3, 2), (1, third, 2, F(5, 7)),
                                                 (third, 1, F(2, 3), 4))),
              jacobi_matrix(JacobiSpec((2, third, -1, 0, 1), (1, -third, 2, F(1, 2)),
                                       (F(1, 2), -1, 3, 1))),
              Matrix([[F(5, 4)]])]
    for m in banded:
        euclid_walks.clear()
        rep = spectrum_report(m)
        assert rep.char_poly._chain is None and len(euclid_walks) == 1, m
        assert rep.squarefree and len(rep.boxes) == m.n
    chained = [flip_rows(random_positive_tnn(4, 3)),
               anti_jacobi(JacobiSpec((1, third, 1), (third, 1), (2, third))),
               jacobi_matrix(JacobiSpec((2, 1, 2, 1), (1, 0, 1), (1, 1, 1))),
               jacobi_matrix(JacobiSpec((2, 1, 2, 1), (1, -1, 1), (1, 1, 1)))]
    for m in chained:
        rep = spectrum_report(m)
        assert rep.char_poly._chain is not None, m


def _pm_pair_by_reflection(p: Polynomial) -> bool:
    """The definition: p(z) and p(-z) share a factor other than a power of z."""
    g = poly_gcd(p, p.compose_neg())
    return sum(1 for x in g.coeffs if x) > 1


def test_pm_pair_test_matches_the_reflection_gcd_exhaustively():
    """Every integer polynomial of degree 1..4 with coefficients in -2..2."""
    ties = 0
    for degree in range(1, 5):
        for coeffs in product(range(-2, 3), repeat=degree + 1):
            if coeffs[0]:
                p = Polynomial(coeffs)
                tie = spectra._has_pm_pair(p)
                assert tie is _pm_pair_by_reflection(p), coeffs
                ties += tie
    assert 0 < ties < 3120


_FACTORS = st.one_of(
    st.fractions(-4, 4, max_denominator=5).map(lambda r: [1, -r]),        # a real root
    st.fractions(0, 4, max_denominator=5).map(lambda r: [1, 0, -r * r]),  # a +-pair
    st.fractions(0, 4, max_denominator=5).map(lambda r: [1, 0, r * r]),   # an imaginary pair
    st.just([1, 0]),                                                      # a root at 0
    st.tuples(st.fractions(-3, 3, max_denominator=3),
              st.fractions(-3, 3, max_denominator=3)).map(lambda t: [1, *t]),
)


@settings(max_examples=200, deadline=None)
@given(factors=st.lists(_FACTORS, min_size=1, max_size=5), repeat=st.booleans(),
       lead=st.fractions(-3, 3, max_denominator=4).filter(bool))
def test_pm_pair_test_matches_the_reflection_gcd_on_products(factors, repeat, lead):
    """Products with planted +-pairs, imaginary pairs, roots at 0 and
    repeated roots (the first factor drawn twice)."""
    p = Polynomial([lead])
    for coeffs in factors + factors[:repeat]:
        p = p * Polynomial(coeffs)
    assert spectra._has_pm_pair(p) is _pm_pair_by_reflection(p)


# -- certified modulus sort ---------------------------------------------------------


def _compare_with_restart_sort(monkeypatch, sf, boxes) -> int:
    """Sort ``boxes`` both ways; equal boxes and equal refine_root calls.
    Returns the number of refinements."""
    one_pass, restart = [], []

    def recording(log):
        def refine(p, box, width):
            log.append((box, width))
            return refine_root(p, box, width)
        return refine

    monkeypatch.setattr(spectra, "refine_root", recording(one_pass))
    got = spectra._certified_modulus_sort(sf, boxes)
    want = restart_modulus_sort(sf, boxes, recording(restart))
    assert got == want, (sf, boxes)
    assert one_pass == restart, (sf, boxes)
    return len(one_pass)


def test_spectrum_kernels_never_build_the_coefficient_view(monkeypatch):
    """Every kernel of a report and of both kind tests reads a polynomial's
    integer form, so the Fraction coefficients are never built: on
    anti-bidiagonal and 1/3-entry anti-Jacobi matrices and on matrices with
    repeated, zero and +-paired eigenvalues."""
    reads = []
    view = vars(Polynomial)["coeffs"]
    monkeypatch.setattr(Polynomial, "coeffs", property(
        lambda p: reads.append(p) or view.__get__(p, Polynomial)))
    third = F(1, 3)
    cases = [anti_bidiagonal(AntiBidiagonalSpec(F(3, 2), (1, third, 2, F(5, 7)),
                                                (third, 1, F(2, 3), 4))),
             anti_jacobi(JacobiSpec((1, third, 1, third), (third,) * 3, (third,) * 3)),
             anti_jacobi(JacobiSpec((third, -1, 2), (F(2, 3), third), (third, 1))),
             Matrix([[2, 0, 0], [0, 2, 0], [0, 0, third]]),       # repeated
             Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),           # +-1 and 0
             Matrix([[0, third, 1], [3, 0, 0], [0, 0, 2]]),       # +-1 and 2
             flip_rows(random_positive_tnn(5, 2))]
    verdicts = set()
    for m in cases:
        rep = spectrum_report(m)
        verdicts.add((rep.verdict, rep.squarefree, rep.modulus_tie))
        for kind in SIKind:
            is_self_interlacing(rep.char_poly, kind)
    assert reads == []
    assert {(SpectrumVerdict.KIND_I, True, False), (SpectrumVerdict.NEITHER, False, True),
            (SpectrumVerdict.NEITHER, True, True)} <= verdicts
    assert str(rep.char_poly) and reads  # the view itself still counts


def test_spectrum_reports_never_run_the_validating_constructor(monkeypatch):
    """gcds and the NotSquarefree message build their polynomials from
    primitive integers by the trusted constructor, so no report, not even
    one with +-paired, zero or repeated eigenvalues, validates coefficients
    again through Polynomial(...)."""
    third = F(1, 3)
    cases = [Matrix([[2, 0, 0], [0, 2, 0], [0, 0, third]]),       # repeated
             Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),           # +-1 and 0
             Matrix([[0, third, 1], [3, 0, 0], [0, 0, 2]]),       # +-1 and 2
             Matrix([[0, 0, 0], [0, 0, 0], [0, 0, third]]),       # 0 repeated
             flip_rows(random_positive_tnn(5, 2))]
    calls = []
    validating = vars(Polynomial)["__new__"]
    monkeypatch.setattr(Polynomial, "__new__", staticmethod(
        lambda cls, coeffs: calls.append(coeffs) or validating(cls, coeffs)))
    reports = [spectrum_report(m) for m in cases]
    with pytest.raises(NotSquarefree, match=r"^repeated roots; gcd\(p, p'\) = z - 2$"):
        isolate_real_roots(reports[0].char_poly)
    assert calls == []
    assert [(rep.squarefree, rep.modulus_tie) for rep in reports] == [
        (False, True), (True, True), (True, True), (False, True), (True, False)]
    assert Polynomial([1, 2]) and calls == [[1, 2]]  # the patch itself counts


def test_a_twist_verdict_on_a_repeated_root_fails_the_cross_check(monkeypatch):
    """The verdict reads no Sturm chain, so a kind I answer forged for
    (z - 2)^2 (z - 1/3), which has a repeated root, meets enclosures that
    found a tie, and the report raises instead of being returned."""
    m = Matrix([[2, 0, 0], [0, 2, 0], [0, 0, F(1, 3)]])
    monkeypatch.setattr(spectra, "is_self_interlacing",
                        lambda p, kind: SIKind(kind) is SIKind.KIND_I)
    with pytest.raises(InternalInvariantViolation, match="twist route says kind_I"):
        spectrum_report(m)


def test_modulus_sort_matches_restart_loop_on_reports(monkeypatch):
    rng = SplitMix64(15)

    def value():
        return F(1 + rng.below(9), 1 + rng.below(4))

    matrices = []
    for n in range(8, 17):
        matrices.append(anti_bidiagonal(AntiBidiagonalSpec(
            value(), [value() for _ in range(n - 1)], [value() for _ in range(n - 1)])))
        matrices.append(anti_jacobi(JacobiSpec(
            [value() for _ in range(n)], [value() for _ in range(n - 1)],
            [value() for _ in range(n - 1)])))
        matrices.append(flip_rows(random_positive_tnn(n, rng.next_u64())))
    sorts = []

    def capture(sf, boxes):
        sorts.append((sf, list(boxes)))
        return restart_modulus_sort(sf, boxes, refine_root)

    monkeypatch.setattr(spectra, "_certified_modulus_sort", capture)
    for m in matrices:
        spectrum_report(m)
    monkeypatch.undo()
    assert len(sorts) >= 20
    refines = sum(_compare_with_restart_sort(monkeypatch, sf, boxes)
                  for sf, boxes in sorts)
    assert refines > 0


def _close_moduli_roots(rng) -> list[F]:
    """3 to 6 roots, the first two of opposite signs, the rest of random
    sign; successive moduli differ by j/1000 or by the dyadic j/1024."""
    modulus = F(1 + rng.below(16), 8)
    roots = []
    for k in range(3 + rng.below(4)):
        negative = k == 1 or (k > 1 and rng.below(2))
        roots.append(-modulus if negative else modulus)
        modulus += F(1 + rng.below(3), 1024 if rng.below(2) else 1000)
    return roots


def test_modulus_sort_matches_restart_loop_on_close_moduli(monkeypatch):
    rng = SplitMix64(271828)
    refines = exact = 0
    for _ in range(2000):
        sf = poly_from_roots(_close_moduli_roots(rng))
        boxes = isolate_real_roots(sf)
        exact += sum(box.is_exact for box in boxes)
        refines += _compare_with_restart_sort(monkeypatch, sf, boxes)
    assert refines >= 5000 and exact >= 100, (refines, exact)


def test_modulus_sort_raises_on_two_exact_boxes_of_equal_modulus():
    r = F(3, 4)
    boxes = [RootBox(r, r, 1), RootBox(-r, -r, -1)]
    with pytest.raises(InternalInvariantViolation,
                       match="tie detection missed equal-modulus roots"):
        spectra._certified_modulus_sort(poly_from_roots([r, -r]), boxes)


def test_modulus_sort_separates_an_open_box_from_an_exact_one():
    half, root = F(1, 2), F(-501, 1000)
    sf = poly_from_roots([half, root])
    exact = RootBox(half, half, 1)
    for boxes in ([exact, RootBox(F(-1), F(-1, 4), -1)],
                  [RootBox(F(-1), F(-1, 4), -1), exact]):
        far, near = spectra._certified_modulus_sort(sf, boxes)
        assert near == exact
        assert far.lo < root < far.hi
        assert far.modulus_interval[0] > half


def test_one_default_width_bound():
    """Every width-taking entry point defaults to the one DEFAULT_WIDTH_BOUND,
    which one module assigns; verify_sign_pattern takes no width at all."""
    assert spectra.DEFAULT_WIDTH_BOUND is polynomials.DEFAULT_WIDTH_BOUND
    assert DEFAULT_WIDTH_BOUND is polynomials.DEFAULT_WIDTH_BOUND
    for fn in (jflip_si_certificate, spectrum_report, kind_two_report):
        default = inspect.signature(fn).parameters["width_bound"].default
        assert default is DEFAULT_WIDTH_BOUND, fn.__name__
    assert list(inspect.signature(verify_sign_pattern).parameters) == ["m"]
    assigned = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "DEFAULT_WIDTH_BOUND"
                        for t in node.targets)]
    assert assigned == ["polynomials"]


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


def test_verify_sign_pattern_rejects_forged_reports(monkeypatch):
    """A class n+ matrix has n real eigenvalues of strictly separated moduli,
    so both failures are forged: the report of the identity, whose
    eigenvalue 1 is repeated, and that of a matrix with eigenvalues 1 +- i."""
    tied = spectrum_report(identity(2))
    complex_pair = spectrum_report(Matrix([[1, -1], [1, 1]]))
    assert tied.modulus_tie
    assert not complex_pair.modulus_tie and complex_pair.boxes == ()
    for report, error, match in (
            (tied, ModulusTie, "not strictly separated"),
            (complex_pair, InternalInvariantViolation, "without a determined signature")):
        monkeypatch.setattr(spectra, "spectrum_report", lambda m, forged=report: forged)
        with pytest.raises(error, match=match):
            verify_sign_pattern(Matrix([[2, 1], [1, 1]]))


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
        kind_two_report(-identity(2))
    assert info.value.check == "corner_conditions"


@pytest.mark.parametrize("m, check", [
    (Matrix([[1, 1], [0, 1]]), "negated_totally_nonnegative"),
    (Matrix([[-1, -1], [-1, -1]]), "nonsingular"),
    (-identity(2), "corner_conditions"),
    (Matrix([[-1, -2, 0], [0, -1, -3], [-2, 0, -1]]), "negated_totally_nonnegative"),
])
def test_kind_two_report_reads_the_flip_stages_of_the_negation(m, check):
    """Each hypothesis is the flip theorem's for -A: the failure carries the
    detail that the failing stage of jflip_si_certificate(-A) records."""
    with pytest.raises(PreconditionFailed) as info:
        kind_two_report(m)
    failed = [s for s in jflip_si_certificate(-m).stages if s.status == "fail"]
    assert len(failed) == 1 and failed[0].detail
    assert info.value.check == check
    assert info.value.detail == failed[0].detail


def test_kind_two_report_raises_when_the_flip_is_not_kind_two(monkeypatch):
    """The hypotheses force kind II, so the other verdict is forged."""
    neither = spectrum_report(Matrix([[1, 0], [0, 2]]))
    monkeypatch.setattr(spectra, "spectrum_report", lambda m, width_bound: neither)
    with pytest.raises(InternalInvariantViolation, match="reported neither, expected kind II"):
        kind_two_report(Matrix([[-1, -1], [0, -1]]))


def test_kind_two_report_matches_negated_flip_route():
    """-A oscillatory-flip route and the direct mirrored report agree."""
    for seed in range(6):
        n = 2 + seed % 3
        a = random_positive_tnn(n, seed + 90)
        rep = kind_two_report(-a)
        assert rep.verdict is SpectrumVerdict.KIND_II, seed
        mirror = spectrum_report(flip_rows(a))
        assert mirror.verdict is SpectrumVerdict.KIND_I
        # char poly of the negated matrix is the reflected char poly, made monic
        assert rep.char_poly == mirror.char_poly.compose_neg().monic()
        # eigenvalues are the negatives of the kind-I ones
        assert rep.signs == tuple(-s for s in mirror.signs)
