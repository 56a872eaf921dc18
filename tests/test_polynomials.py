"""Polynomial arithmetic, the sign twist, Hurwitz stability, root isolation."""

from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fraction_bisection,
    fraction_derivative,
    fraction_horner,
    fraction_remainder,
    primitive_ints,
    remainder_sequence,
    sturm_isolation,
)
from interlace import (
    AntiBidiagonalSpec,
    DegreeZero,
    JacobiSpec,
    Matrix,
    NotSquarefree,
    Polynomial,
    PositivityViolated,
    RootBox,
    SIKind,
    SplitMix64,
    ZeroPolynomial,
    anti_bidiagonal,
    anti_jacobi,
    flip_rows,
    hurwitz_matrix,
    hurwitz_minors,
    hurwitz_stable,
    is_self_interlacing,
    isolate_real_roots,
    jacobi_matrix,
    matrices,
    poly_from_roots,
    poly_gcd,
    polynomials,
    random_positive_tnn,
    refine_root,
    si_twist,
    spectra,
    squarefree_part,
)
from interlace.polynomials import (
    _continuant_variations,
    _dyadic_root_bound,
    _dyadic_value,
    _fujiwara_exponent,
    _horner,
    _lowest_terms,
    _remainder_sequence,
    _sturm_chain,
    _variations,
    _variations_at_infinity,
)

WIDTH = F(1, 10 ** 9)


def _at(p: Polynomial, x) -> F:
    """p(x) by Fraction Horner evaluation of p's Fraction coefficients."""
    return fraction_horner(p.coeffs, x)


# -- basic arithmetic --------------------------------------------------------


def test_normalization_and_degree():
    assert Polynomial([0, 0, 1, 2]).coeffs == (F(1), F(2))
    assert Polynomial([]).is_zero and Polynomial([0, 0]).is_zero
    assert Polynomial([]).degree == -1
    assert Polynomial([3]).degree == 0
    assert Polynomial([1, 0, -2]).degree == 2
    assert str(Polynomial([0, 0])) == "0" and str(Polynomial([-1, 0, F(1, 2)])) == "-z^2 + 1/2"


def test_evaluation_and_coefficient_access():
    p = Polynomial([1, -1, -2, 1])  # z^3 - z^2 - 2z + 1
    assert _at(p, 0) == 1 and _at(p, 1) == -1 and _at(p, F(1, 2)) == -F(1, 8)
    assert p.coeffs == (1, -1, -2, 1) and Polynomial([F(1, 2), 0]).coeffs == (F(1, 2), 0)


def test_gcd_contains_common_factor():
    rng = SplitMix64(9)
    for _ in range(20):
        g = poly_from_roots([rng.below(7) - 3 for _ in range(1 + rng.below(2))])
        a = g * Polynomial([1, rng.below(5)])
        b = g * Polynomial([1, rng.below(5), 1 + rng.below(4)])
        got = poly_gcd(a, b)
        assert not fraction_remainder(got.coeffs, g.coeffs)  # a multiple of every common factor


def _sympy_monic_gcd(sympy, p: Polynomial, q: Polynomial) -> Polynomial:
    z = sympy.Symbol("z")

    def poly(x: Polynomial):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in x.coeffs] or [0], z, domain="QQ")

    g = poly(p).gcd(poly(q))
    if g.is_zero:
        return Polynomial([])
    return Polynomial([F(int(c.p), int(c.q)) for c in g.monic().all_coeffs()])


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = SplitMix64(11)
    zero = Polynomial([])
    pairs = [(zero, zero), (zero, Polynomial([F(-3, 2)])),
             (poly_from_roots([1, 2]), zero), (zero, poly_from_roots([F(1, 3), -2])),
             (Polynomial([5]), Polynomial([7])), (Polynomial([5]), poly_from_roots([1]))]
    for _ in range(30):
        common = Polynomial([1 + rng.below(3)] + [F(rng.below(9) - 4, 1 + rng.below(3))
                                                  for _ in range(rng.below(4))])
        u = Polynomial([rng.below(9) - 4 for _ in range(1 + rng.below(5))])
        v = Polynomial([rng.below(9) - 4 for _ in range(1 + rng.below(5))])
        pairs.append((common * u, common * v))
    for p, q in pairs:
        assert poly_gcd(p, q) == _sympy_monic_gcd(sympy, p, q), (p, q)


def test_squarefree_part_strips_multiplicity():
    p = poly_from_roots([1, 1, -2])
    assert squarefree_part(p) == poly_from_roots([1, -2])
    assert squarefree_part(poly_from_roots([2, -3])) == poly_from_roots([2, -3])
    with pytest.raises(ZeroPolynomial):
        squarefree_part(Polynomial([]))


def test_poly_from_roots_frozen():
    assert poly_from_roots([3, -2, 1]).coeffs == (F(1), F(-2), F(-5), F(6))
    assert poly_from_roots([]).coeffs == (F(1),)


def test_derivative():
    assert Polynomial([1, -1, -2, 1]).derivative() == Polynomial([3, -2, -2])
    assert Polynomial([5]).derivative().is_zero


def test_compose_neg_matches_pointwise_evaluation():
    rng = SplitMix64(17)
    for _ in range(15):
        p = Polynomial([rng.below(11) - 5 for _ in range(1 + rng.below(7))])
        q = p.compose_neg()
        for t in (F(0), F(2), F(-3), F(5, 7)):
            assert _at(q, t) == _at(p, -t)


# -- the twist -----------------------------------------------------------------


def test_twist_sign_pattern():
    p = Polynomial([1] * 9)  # degree 8, all ones
    signs = [1 if c > 0 else -1 for c in si_twist(p).coeffs]
    assert signs == [1, -1, -1, 1, 1, -1, -1, 1, 1]


def test_twist_frozen_examples():
    assert si_twist(Polynomial([1, -1, -2, 1])) == Polynomial([1, 1, 2, 1])
    assert si_twist(Polynomial([1, -1, -1])) == Polynomial([1, 1, 1])


def test_twist_preserves_leading_and_moduli():
    rng = SplitMix64(23)
    for _ in range(10):
        p = Polynomial([1 + rng.below(5)] + [rng.below(11) - 5
                                             for _ in range(rng.below(7))])
        q = si_twist(p)
        assert q.coeffs[0] == p.coeffs[0]
        assert [abs(c) for c in q.coeffs] == [abs(c) for c in p.coeffs]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=10))
def test_twist_is_an_involution(coeffs):
    p = Polynomial(coeffs)
    if p.is_zero:
        return
    assert si_twist(si_twist(p)) == p


# -- Hurwitz machinery ------------------------------------------------------------


def test_hurwitz_matrix_layout():
    # degree 3, coefficients (a0, a1, a2, a3): H = [[a1,a3,0],[a0,a2,0],[0,a1,a3]]
    p = Polynomial([2, 3, 5, 7])
    h = hurwitz_matrix(p)
    assert h.rows == Matrix([[3, 7, 0], [2, 5, 0], [0, 3, 7]]).rows


def test_hurwitz_minors_frozen():
    assert hurwitz_minors(Polynomial([1, 2, 2, 1])) == (F(2), F(3), F(3))
    assert hurwitz_minors(Polynomial([1, 1, 2, 1])) == (F(1), F(1), F(1))
    assert hurwitz_minors(Polynomial([1, 1, 1])) == (F(1), F(1))
    # roots +-i and -1: a zero pivot, after which Δ_3 is its own determinant
    assert hurwitz_minors(Polynomial([1, 1, 1, 1])) == (F(1), F(0), F(0))


def _hurwitz_by_det(p: Polynomial) -> tuple[F, ...]:
    """The oracle: each leading principal minor of the Hurwitz matrix as its
    own determinant."""
    h = hurwitz_matrix(p)
    return tuple(h.leading_principal_minor(k) for k in range(1, h.n + 1))


def test_hurwitz_minors_match_one_determinant_each():
    """The walk against one determinant per order, on polynomials with
    rational coefficients, zero coefficients and both leading signs, and on
    their twists."""
    polys = _remainder_corpus() + [Polynomial([1, 1, 1, 1]), Polynomial([1, 0, 2, 0, 1])]
    zero = 0
    for p in polys:
        if p.degree < 1:
            continue
        for q in (p, si_twist(p)):
            by_det = _hurwitz_by_det(q)
            assert hurwitz_minors(q) == by_det, q
            zero += 0 in by_det
    assert zero >= 3


@pytest.fixture
def hurwitz_fallbacks(monkeypatch) -> list:
    """Every polynomial whose Hurwitz minors left the Routh walk for
    determinants of its Hurwitz matrix."""
    calls = []

    def counting(p, build=polynomials.hurwitz_matrix):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(polynomials, "hurwitz_matrix", counting)
    return calls


def test_routh_walk_against_elimination_exhaustively(hurwitz_fallbacks):
    """Every polynomial of degree 1..4 with coefficients in -2..2."""
    walked = 0
    for degree in range(1, 5):
        for coeffs in product(range(-2, 3), repeat=degree + 1):
            if coeffs[0]:
                p = Polynomial(coeffs)
                before = len(hurwitz_fallbacks)
                assert hurwitz_minors(p) == _hurwitz_by_det(p), p
                walked += len(hurwitz_fallbacks) == before
    # 3,120 polynomials, 1,164 of them with a zero minor before the last
    assert (walked, len(hurwitz_fallbacks)) == (1956, 1164)


def test_routh_walk_falls_back_at_a_zero_pivot(hurwitz_fallbacks, monkeypatch):
    """A zero Δ_k before Δ_n leaves the walk's Δ_1..Δ_k, and each later minor
    is its own determinant of the Hurwitz matrix, so only an order above 4
    eliminates anything; a zero Δ_n alone does not leave the walk."""
    blocks = []

    def counting(rows, eliminate=matrices._bareiss):
        blocks.append(len(rows))
        return eliminate(rows)

    planted = [Polynomial([1, 0, 1, 1]),                  # P_1 = 0
               Polynomial([1, 1, 1, 1, 1]),               # Δ_2 = 0, Δ_3 = -1
               Polynomial([F(2, 3), 1, F(3, 2), F(9, 4), 1, 4]),  # rational c, Δ_2 = 0
               Polynomial([1, 1, 1, 1])]                  # Δ_2 = Δ_3 = 0
    expect = [(0, -1, -1), (1, 0, -1, -1), (1, 0, F(5, 3), F(-25, 9), F(-100, 9)),
              (1, 0, 0)]
    for p, want in zip(planted, expect):
        by_det = _hurwitz_by_det(p)
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "_bareiss", counting)
            assert hurwitz_minors(p) == by_det == want, p
        assert blocks == ([5] if p.degree == 5 else []), p
        blocks.clear()
    assert hurwitz_fallbacks == planted
    last_only = Polynomial([1, 2, 3, 0])  # Δ_3 = 0 * Δ_2
    assert hurwitz_minors(last_only) == (2, 6, 0)
    assert hurwitz_fallbacks == planted


@settings(deadline=None, max_examples=80)
@given(st.lists(st.fractions(-6, 6, max_denominator=9), min_size=2, max_size=13)
       .filter(lambda c: c[0] != 0))
def test_routh_walk_against_elimination_property(coeffs):
    """Degree up to 12, rational c."""
    p = Polynomial(coeffs)
    assert hurwitz_minors(p) == _hurwitz_by_det(p)


def test_hurwitz_stable_frozen():
    assert hurwitz_stable(Polynomial([1, 2, 2, 1]))
    assert hurwitz_stable(Polynomial([1, 1, 1]))
    assert not hurwitz_stable(Polynomial([1, -1, 1]))  # nonpositive coefficient
    assert not hurwitz_stable(Polynomial([1, 0, 1]))   # roots on the axis
    assert hurwitz_stable(Polynomial([-1, -1]))        # leading sign flip, root -1
    with pytest.raises(DegreeZero):
        hurwitz_stable(Polynomial([4]))


def test_hurwitz_stable_constructive_oracle():
    """Products of (z + mu), mu > 0, and of z^2 + bz + c, b,c > 0, are exactly
    the stable polynomials this builder can produce; one sign flip breaks it."""
    rng = SplitMix64(31)
    for trial in range(50):
        p = Polynomial([1])
        factors = 1 + rng.below(4)
        for _ in range(factors):
            if rng.below(2):
                p = p * Polynomial([1, F(1 + rng.below(6), 1 + rng.below(3))])
            else:
                p = p * Polynomial([1, F(1 + rng.below(5), 2), 1 + rng.below(5)])
        assert hurwitz_stable(p), trial
        bad = p * Polynomial([1, -F(1 + rng.below(4))])  # one right-half-plane root
        assert not hurwitz_stable(bad), trial


# -- self-interlacing ----------------------------------------------------------


def _si_roots(rng: SplitMix64, n: int, kind: SIKind) -> list[F]:
    """Moduli strictly decreasing, signs alternating from +1 (kind I) or -1."""
    moduli = sorted({F(1 + rng.below(40), 1 + rng.below(5)) for _ in range(3 * n)},
                    reverse=True)[:n]
    while len(moduli) < n:  # top up on collisions, keep strictly decreasing
        moduli.append(moduli[-1] / 2)
    lead = 1 if kind is SIKind.KIND_I else -1
    return [m * lead * (-1) ** k for k, m in enumerate(moduli)]


def test_self_interlacing_by_root_construction():
    rng = SplitMix64(41)
    for trial in range(40):
        n = 1 + rng.below(8)
        roots = _si_roots(rng, n, SIKind.KIND_I)
        p = poly_from_roots(roots)
        assert is_self_interlacing(p, SIKind.KIND_I), (trial, roots)
        assert not is_self_interlacing(p, SIKind.KIND_II) or n == 0
        mirrored = poly_from_roots([-r for r in roots])
        assert is_self_interlacing(mirrored, SIKind.KIND_II), (trial, roots)


def test_self_interlacing_rejects_broken_patterns():
    rng = SplitMix64(43)
    for trial in range(30):
        n = 2 + rng.below(6)
        roots = _si_roots(rng, n, SIKind.KIND_I)
        flipped = list(roots)
        flipped[1 + rng.below(n - 1)] *= -1  # two consecutive same signs
        assert not is_self_interlacing(poly_from_roots(flipped), SIKind.KIND_I), trial


def test_self_interlacing_edge_cases():
    assert is_self_interlacing(Polynomial([1, -2]))        # root 2 > 0
    assert not is_self_interlacing(Polynomial([1, 2]))     # root -2
    assert is_self_interlacing(Polynomial([1, 2]), SIKind.KIND_II)
    assert not is_self_interlacing(Polynomial([1, 0]))     # root 0
    assert not is_self_interlacing(Polynomial([1, 0, -1])) # modulus tie +-1
    assert not is_self_interlacing(poly_from_roots([2, 2]))  # repeated root
    # a kind is an SIKind or its value; anything else is rejected
    p = poly_from_roots([-3, 2, -1])
    assert is_self_interlacing(p, "II") and not is_self_interlacing(p, "I")
    for junk in ("III", "kind_II", 2, None):
        with pytest.raises(ValueError):
            is_self_interlacing(p, junk)
    # negated leading coefficient is normalized away
    assert is_self_interlacing(-poly_from_roots([3, -2, 1]))
    with pytest.raises(DegreeZero):
        is_self_interlacing(Polynomial([1]))


def test_both_kinds_make_no_euclid_walk(euclid_walks):
    p = poly_from_roots([-3, 2, -1])
    assert not is_self_interlacing(p, SIKind.KIND_I)
    assert is_self_interlacing(p, SIKind.KIND_II)
    assert euclid_walks == [] and p._chain is None


def _twists_stable(p: Polynomial) -> tuple[bool, bool]:
    """Hurwitz stability of the twists of p and of p(-z)."""
    return hurwitz_stable(si_twist(p)), hurwitz_stable(si_twist(p.compose_neg()))


def _squarefree_and_twist_rule(p: Polynomial) -> tuple[bool, bool]:
    """Both kinds by the rule that also tested simple roots: p squarefree
    and the twist of p (kind I) or of p(-z) (kind II) Hurwitz stable."""
    squarefree = squarefree_part(p) == p
    return tuple(squarefree and stable for stable in _twists_stable(p))


def _both_kinds(p: Polynomial) -> tuple[bool, bool]:
    return is_self_interlacing(p, SIKind.KIND_I), is_self_interlacing(p, SIKind.KIND_II)


def test_no_repeated_root_has_a_stable_twist_exhaustively():
    """Every integer polynomial of degree 1-4 with coefficients in -2..2: a
    repeated root leaves both twists unstable (Part I: a twist is stable
    only for a self-interlacing p, whose roots are simple), so the twist
    alone decides each kind as the squarefree-and-twist rule does."""
    repeated = 0
    for degree in range(1, 5):
        for coeffs in product((-2, -1, 1, 2), *[range(-2, 3)] * degree):
            p = Polynomial(coeffs)
            if squarefree_part(p) != p:
                repeated += 1
                assert _twists_stable(p) == (False, False), coeffs
            assert _both_kinds(p) == _squarefree_and_twist_rule(p), coeffs
    assert repeated > 100


def _int_coefficients(min_degree: int, max_degree: int):
    """Integer coefficient lists of the given degrees, leads of both signs."""
    return st.tuples(st.integers(-9, 9).filter(bool),
                     st.lists(st.integers(-9, 9), min_size=min_degree,
                              max_size=max_degree)).map(lambda t: [t[0], *t[1]])


@settings(deadline=None, max_examples=150)
@given(_int_coefficients(1, 3), _int_coefficients(0, 3),
       st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool))
def test_no_repeated_root_has_a_stable_twist_hypothesis(a, b, scale):
    """a^2 b, a of degree 1-3 and b of degree 0-3 with integer coefficients,
    times a rational scale of either sign."""
    a, b = Polynomial(a), Polynomial(b)
    p = a * a * b * Polynomial([scale])
    assert squarefree_part(p) != p
    assert _twists_stable(p) == (False, False)
    assert _both_kinds(p) == _squarefree_and_twist_rule(p) == (False, False)


def test_cached_chain_leaves_equality_hash_and_repr_alone():
    p, q = poly_from_roots([-3, 2, -1]), poly_from_roots([-3, 2, -1])
    chain = _sturm_chain(p)
    assert p._chain is chain and q._chain is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert _sturm_chain(p) is chain and len({p, q}) == 1


def test_kind_two_is_kind_one_after_reflection():
    """KIND_II is KIND_I of p(-z), and neither kind depends on the sign (or
    any nonzero scale) of p, for odd and even degree alike."""
    rng = SplitMix64(47)
    cases = [Polynomial([rng.below(9) - 4 for _ in range(2 + rng.below(7))])
             for _ in range(25)]
    cases = [p for p in cases if p.degree >= 1]
    rng = SplitMix64(53)
    for n in range(1, 9):
        for kind in SIKind:
            cases.append(poly_from_roots(_si_roots(rng, n, kind)))
        cases.append(Polynomial([1 + rng.below(4)]
                                + [rng.below(9) - 4 for _ in range(n)]))
        cases.append(poly_from_roots([rng.below(5) - 2 for _ in range(n)]))
    seen = set()
    for p in cases:
        for kind in SIKind:
            verdict = is_self_interlacing(p, kind)
            assert is_self_interlacing(-p, kind) == verdict, (p, kind)
            assert is_self_interlacing(p * Polynomial([F(-3, 2)]), kind) == verdict, (p, kind)
            seen.add((p.degree % 2, kind, verdict))
        assert is_self_interlacing(p, SIKind.KIND_II) == \
            is_self_interlacing(p.compose_neg(), SIKind.KIND_I), p
    assert len(seen) == 8  # both parities, both kinds, both answers


# -- root isolation -----------------------------------------------------------


def test_isolation_requires_squarefree():
    with pytest.raises(NotSquarefree):
        isolate_real_roots(poly_from_roots([1, 1]))
    for roots, gcd in (([1, 1, -2], "z - 1"),
                       ([3, 3, 3, F(1, 2), F(1, 2)], "z^3 - 13/2*z^2 + 12*z - 9/2")):
        with pytest.raises(NotSquarefree) as exc:
            isolate_real_roots(poly_from_roots(roots))
        assert str(exc.value) == f"repeated roots; gcd(p, p') = {gcd}"
    with pytest.raises(ZeroPolynomial):
        isolate_real_roots(Polynomial([]))
    assert isolate_real_roots(Polynomial([5])) == ()


def test_isolation_recovers_rational_roots():
    rng = SplitMix64(53)
    for trial in range(25):
        roots = set()
        while len(roots) < 1 + rng.below(6):
            roots.add(F(rng.below(21) - 10, 1 + rng.below(4)))
        p = poly_from_roots(sorted(roots))
        boxes = isolate_real_roots(p)
        assert len(boxes) == len(roots), trial
        for box, root in zip(boxes, sorted(roots)):
            assert box.lo <= root <= box.hi
            if not box.is_exact:
                assert _at(p, box.lo) * _at(p, box.hi) < 0
            sign = (root > 0) - (root < 0)
            assert box.sign == sign


def test_isolation_brackets_irrational_roots():
    p = Polynomial([1, 0, -2])  # z^2 - 2
    boxes = isolate_real_roots(p)
    assert len(boxes) == 2
    assert boxes[0].sign == -1 and boxes[1].sign == 1
    for box in boxes:
        assert _at(p, box.lo) * _at(p, box.hi) < 0


def test_isolation_zero_root_gets_sign_zero():
    boxes = isolate_real_roots(poly_from_roots([0, 3, -5]))
    signs = sorted(box.sign for box in boxes)
    assert signs == [-1, 0, 1]
    exact_zero = [box for box in boxes if box.sign == 0]
    assert exact_zero[0].lo == 0 and exact_zero[0].hi == 0


def test_isolation_count_matches_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = SplitMix64(59)
    checked = 0
    for trial in range(20):
        coeffs = [rng.below(11) - 5 for _ in range(2 + rng.below(6))]
        p = Polynomial(coeffs)
        if p.degree < 1 or poly_gcd(p, p.derivative()).degree >= 1:
            continue
        expr = sum(int(c) * z ** (p.degree - k) for k, c in enumerate(p.coeffs))
        expected = sympy.Poly(expr, z).count_roots()
        assert len(isolate_real_roots(p)) == expected, (trial, coeffs)
        checked += 1
    assert checked >= 10


def test_refine_root_shrinks_and_keeps_the_root():
    p = Polynomial([1, 0, -2])
    box = isolate_real_roots(p)[1]
    tight = refine_root(p, box, F(1, 10 ** 12))
    assert tight.width <= F(1, 10 ** 12)
    assert _at(p, tight.lo) * _at(p, tight.hi) < 0
    assert box.lo <= tight.lo and tight.hi <= box.hi
    # exact boxes pass through untouched
    exact = RootBox(F(2), F(2), 1)
    assert refine_root(poly_from_roots([2, 5]), exact, WIDTH) == exact
    with pytest.raises(PositivityViolated):
        refine_root(p, box, 0)


def test_refine_root_reads_p_without_a_euclid_walk(euclid_walks):
    """Refinement evaluates P from p's form, so a polynomial that was never
    isolated gets no Sturm chain; the box matches the chain-holding twin's."""
    twin = Polynomial([3, -1, -7, 2])
    boxes = isolate_real_roots(twin)
    euclid_walks.clear()
    for box in boxes:
        p = Polynomial([3, -1, -7, 2])
        assert refine_root(p, box, WIDTH) == refine_root(twin, box, WIDTH)
        assert p._chain is None
    assert euclid_walks == [] and len(boxes) == 3


def test_refine_root_lands_on_exact_rational_hits():
    p = poly_from_roots([F(1, 2), 4])
    box = [b for b in isolate_real_roots(p) if b.lo <= F(1, 2) <= b.hi][0]
    tight = refine_root(p, box, F(1, 10 ** 15))
    assert tight.lo <= F(1, 2) <= tight.hi
    assert tight.width <= F(1, 10 ** 15)


# -- integer remainder sequence, isolation and bisection against Fractions -------


def _fraction_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    *_, g = remainder_sequence(p.coeffs, q.coeffs)
    g = Polynomial(g)
    return g if g.is_zero else g.monic()


def _fraction_chain(p: Polynomial) -> list[tuple[int, ...]]:
    return [primitive_ints(r) for r in remainder_sequence(p.coeffs, fraction_derivative(p.coeffs))]


def _remainder_corpus() -> list[Polynomial]:
    """Degrees 0..10 with leading coefficients of both signs, and products
    with repeated rational roots."""
    rng = SplitMix64(71)

    def rat():
        return F(rng.below(41) - 20, 1 + rng.below(7))

    polys = []
    for d in range(11):
        for _ in range(5):
            polys.append(Polynomial([rat() or -1] + [rat() for _ in range(d)]))
        roots = [rat() for _ in range(1 + d // 2)]
        polys.append(poly_from_roots(roots + roots[:1 + d // 3]) * Polynomial([rat() or -1]))
    return polys


def test_integer_remainder_sequence_matches_fraction_euclid():
    polys = _remainder_corpus()
    zero = Polynomial([])
    assert any(p.coeffs[0] < 0 for p in polys)
    for p in polys:
        assert _sturm_chain(p) == _fraction_chain(p), p
    common = poly_from_roots([F(2, 3), -1])
    pairs = ([(zero, zero), (zero, polys[7]), (polys[7], zero), (zero, Polynomial([-3]))]
             + list(zip(polys, polys[1:])) + list(zip(polys[1:], polys))
             + [(p * common, q * common) for p, q in zip(polys[::3], polys[1::3])])
    assert any(p.degree < q.degree for p, q in pairs)
    for p, q in pairs:
        assert poly_gcd(p, q) == _fraction_gcd(p, q), (p, q)
        assert (_remainder_sequence(primitive_ints(p.coeffs), primitive_ints(q.coeffs))
                == [primitive_ints(r) for r in remainder_sequence(p.coeffs, q.coeffs)]), (p, q)
    assert poly_gcd(zero, zero).is_zero
    assert poly_gcd(zero, Polynomial([-3, 6])) == Polynomial([1, -2])


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@settings(deadline=None, max_examples=80)
@given(st.lists(_rationals, max_size=10), st.lists(_rationals, max_size=8))
def test_integer_remainder_sequence_matches_fraction_euclid_hypothesis(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert poly_gcd(p, q) == _fraction_gcd(p, q)
    assert (_remainder_sequence(primitive_ints(p.coeffs), primitive_ints(q.coeffs))
            == [primitive_ints(r) for r in remainder_sequence(p.coeffs, q.coeffs)])
    if not p.is_zero:
        assert _sturm_chain(p) == _fraction_chain(p)


def test_fraction_oracles_call_no_polynomial_kernel(monkeypatch):
    """Sturm isolation and bisection over Fractions evaluate and divide on
    their own: they run with the package's Horner loop and remainder
    sequence made to raise, and outside that patch their boxes are those of
    ``isolate_real_roots`` and ``refine_root``."""
    p = poly_from_roots([F(3, 4)]) * Polynomial([1, 0, -2])  # roots -√2, 3/4, √2

    def kernel(*args):
        raise AssertionError("an oracle called a polynomial kernel")

    with monkeypatch.context() as patch:
        patch.setattr(polynomials, "_horner", kernel)
        patch.setattr(polynomials, "_remainder_sequence", kernel)
        boxes = sturm_isolation(p)
        refined = [fraction_bisection(p, box, WIDTH) for box in boxes]
    assert boxes == isolate_real_roots(p)
    assert refined == [refine_root(p, box, WIDTH) for box in boxes]
    assert [box.is_exact for box in refined] == [False, True, False]
    assert refined[1].lo == F(3, 4) and refined[2].lo ** 2 < 2 < refined[2].hi ** 2


# rational coefficient lists with leading zeros, leads of both signs and
# roots at 0
_coefficient_lists = st.builds(lambda lead, body, roots: [0] * lead + body + [0] * roots,
                               st.integers(0, 2), st.lists(_rationals, max_size=8),
                               st.integers(0, 3))


def _stripped(values) -> tuple:
    values = list(values)
    while values and values[0] == 0:
        values.pop(0)
    return tuple(values)


@settings(deadline=None, max_examples=150)
@given(_coefficient_lists, _coefficient_lists)
def test_form_is_canonical_and_transforms_match_fraction_definitions_hypothesis(a, b):
    """(c, P) has gcd(P) = 1, c > 0 and a nonzero head, or is (1, ()); each
    transform on the form, and p * q, is its Fraction definition on the
    coefficients; the Sturm chain starts with P, and the Hurwitz matrix is
    the layout over the lcm of the coefficient denominators."""
    p, q = Polynomial(a), Polynomial(b)
    for r, source in ((p, a), (q, b)):
        c, ints = r._form
        assert type(c) is F and c > 0
        assert (gcd(*ints) == 1 and ints[0] != 0) if ints else r._form == (1, ())
        assert r.coeffs == _stripped(map(F, source)) and Polynomial(r.coeffs) == r
    a, b, n = p.coeffs, q.coeffs, p.degree
    assert (-p).coeffs == tuple(-x for x in a)
    assert p.derivative().coeffs == _stripped(x * (n - k) for k, x in enumerate(a[:-1]))
    assert p.compose_neg().coeffs == tuple(-x if (n - k) % 2 else x for k, x in enumerate(a))
    product = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert (p * q).coeffs == _stripped(product)
    assert _sturm_chain(p)[0] == p._form[1]
    if p.is_zero:
        return
    assert si_twist(p).coeffs == tuple((-1) ** (k * (k + 1) // 2) * x for k, x in enumerate(a))
    assert p.monic().coeffs == tuple(x / a[0] for x in a)
    if n >= 1:
        d = lcm(*(x.denominator for x in a))
        layout = tuple(tuple(int(a[2 * j - i] * d) if 0 <= 2 * j - i <= n else 0
                             for j in range(1, n + 1)) for i in range(1, n + 1))
        assert hurwitz_matrix(p)._form == (d, layout)


def _fraction_sign(x: F) -> int:
    return (x > 0) - (x < 0)


# u = w 2^t: zero, both signs, and up to 90 spare factors of two, so that
# lowest terms reach s = 0 as well as stop short of it
_dyadic_numerators = st.builds(lambda w, t: w << t, st.integers(-200, 200), st.integers(0, 90))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9), _dyadic_numerators,
       st.integers(0, 80))
def test_shift_evaluator_matches_fraction_value_hypothesis(coeffs, u, s):
    """_dyadic_value is 2^(s n) p(u / 2^s) exactly, so its sign is the sign
    of the Fraction value; integer coefficients include zeros, and a zero
    leading one keeps n = len - 1. _lowest_terms keeps the point."""
    x, n = F(u, 1 << s), len(coeffs) - 1
    value = _dyadic_value(coeffs, u, s)
    assert value == sum(c * x ** (n - k) for k, c in enumerate(coeffs)) * 2 ** (s * n)
    assert _fraction_sign(F(value)) == _fraction_sign(fraction_horner(coeffs, x))
    low, level = _lowest_terms(u, s)
    assert F(low, 1 << level) == x and 0 <= level <= s
    assert level == 0 or low % 2 == 1


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9).map(Polynomial).filter(
    lambda p: not p.is_zero), _dyadic_numerators, st.integers(0, 80))
def test_variations_match_fraction_sturm_count_hypothesis(p, u, s):
    """The count, or None exactly where p(x) = 0."""
    x = F(u, 1 << s)
    chain = remainder_sequence(p.coeffs, fraction_derivative(p.coeffs))
    signs = [t for t in (_fraction_sign(fraction_horner(q, x)) for q in chain) if t]
    expected = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if fraction_horner(p.coeffs, x) == 0:
        expected = None
    assert _variations(_sturm_chain(p), *_lowest_terms(u, s)) == expected


def _boundary_corpus() -> list[Polynomial]:
    """Roots at and around the power of two above Fujiwara's bound, z - 2^k
    and z + 2^k attaining it; roots at 0; rational and negative leading
    coefficients; non-real roots; and the characteristic polynomials of
    anti-bidiagonal, anti-Jacobi and TNN-flip matrices with n <= 10."""
    z = Polynomial([1, 0])
    polys = []
    for k in range(-2, 7):
        t = F(2) ** k
        polys += [poly_from_roots([t]), poly_from_roots([-t]), poly_from_roots([t, -t]),
                  poly_from_roots([t, t / 2, -t / 4]), poly_from_roots([t - 1, t, t + 1]),
                  poly_from_roots([-t - F(1, 3), 1, t + F(1, 3)]),
                  poly_from_roots([t]) * Polynomial([1, 0, t * t])]
    polys += [z, z * poly_from_roots([1, -2]), z * Polynomial([1, 0, 1]),
              Polynomial([F(-3, 2), 3]),
              poly_from_roots([F(1, 2), F(-5, 4)]) * Polynomial([F(-2, 3)]),
              poly_from_roots([F(7, 3), 0, F(-1, 9)]) * Polynomial([F(5, 7)]),
              Polynomial([-4, 0, 1]),
              Polynomial([1, 0, 1]), Polynomial([1, 0, 0, 0, 1]),
              Polynomial([1, 2, 5]) * poly_from_roots([3]),
              Polynomial([1, 0, 16]) * poly_from_roots([F(1, 8)]) * Polynomial([-1]),
              Polynomial([F(1, 9), 0, 0, 0, 0, -7])]
    rng = SplitMix64(89)

    def rational(signed=False):
        return F(1 + rng.below(9), 1 + rng.below(4)) * (-1 if signed and rng.below(4) == 0 else 1)

    for n in range(2, 11):
        polys.append(anti_bidiagonal(AntiBidiagonalSpec(
            rational(), [rational() for _ in range(n - 1)],
            [rational() for _ in range(n - 1)])).charpoly())
        polys.append(anti_jacobi(JacobiSpec([rational(True) for _ in range(n)],
                                            [rational(True) for _ in range(n - 1)],
                                            [rational(True) for _ in range(n - 1)])).charpoly())
        polys.append(flip_rows(random_positive_tnn(n, 50 + n)).charpoly())
    return polys


def test_isolation_matches_fraction_sturm_bisection():
    rng = SplitMix64(73)
    checked = 0
    for trial in range(60):
        roots = {F(rng.below(33) - 16, 1 << rng.below(4)) for _ in range(rng.below(5))}
        if trial % 3 == 0:
            roots.add(F(0))
        extra = Polynomial([1] + [rng.below(11) - 5 for _ in range(rng.below(4))])
        p = (poly_from_roots(sorted(roots)) * extra
             * Polynomial([F(rng.below(7) - 3 or 2, 1 + rng.below(5))]))
        sf = squarefree_part(p)
        if sf.degree < 1:
            continue
        assert isolate_real_roots(sf) == sturm_isolation(sf), (trial, p)
        checked += 1
    assert checked >= 50
    # one real root, whose start box straddles zero: positive, negative, at 0
    signs = set()
    for trial in range(30):
        root = F(1 + rng.below(16), 1 << rng.below(4)) * (1, -1, 0)[trial % 3]
        b = rng.below(7) - 3
        no_real_root = Polynomial([1, b, b * b + 1 + rng.below(5)])
        p = poly_from_roots([root] * (1 + trial % 2)) * no_real_root
        if trial % 4 > 1:
            p = p * no_real_root
        sf = squarefree_part(p)
        boxes = isolate_real_roots(sf)
        assert boxes == sturm_isolation(sf), (trial, p)
        (box,) = boxes
        assert box.lo <= root <= box.hi and box.sign == (root > 0) - (root < 0)
        signs.add(box.sign)
    assert signs == {-1, 0, 1}
    # around the root bound, at zero, with rational or negative leading
    # coefficients, with non-real roots, and small spectrum charpolys
    kinds = {"attained": 0, "zero root": 0, "negative lead": 0, "non-real": 0}
    for p in _boundary_corpus():
        sf = squarefree_part(p)
        if sf.degree < 1:
            continue
        boxes = isolate_real_roots(sf)
        assert boxes == sturm_isolation(sf), p
        top = 2 ** _fujiwara_exponent(_sturm_chain(sf)[0])
        kinds["attained"] += sf.degree == 1 and abs(_at(sf, 0) / sf.coeffs[0]) == top / 2
        kinds["zero root"] += _at(sf, 0) == 0
        kinds["negative lead"] += sf.coeffs[0] < 0
        kinds["non-real"] += len(boxes) < sf.degree
    assert all(kinds.values()), kinds


def _squarefree_int_polys():
    return st.lists(st.integers(-9, 9), min_size=2, max_size=9).map(Polynomial).filter(
        lambda p: p.degree >= 1).map(squarefree_part).filter(lambda p: p.degree >= 1)


@settings(deadline=None, max_examples=120)
@given(_squarefree_int_polys())
def test_fujiwara_exponent_bounds_every_root_hypothesis(p):
    """2^e is the least power of two with e >= 0 above Fujiwara's bound, it
    is strictly past every root, and the counts there and at the Cauchy
    box's ends are those read off the chain's leading coefficients. The
    boxes follow the Cauchy tree and may reach past 2^e; the root each one
    holds may not."""
    chain = _sturm_chain(p)
    e, n, lead = _fujiwara_exponent(chain[0]), p.degree, abs(p.coeffs[0])
    ratios = [(abs(c) / lead / (2 if k == n else 1), k) for k, c in enumerate(p.coeffs[1:], 1)]
    # 2^e > 2 r^(1/k) exactly when r < 2^((e-1)k)
    assert all(r < F(2) ** ((e - 1) * k) for r, k in ratios)
    assert e == 0 or any(r >= F(2) ** ((e - 2) * k) for r, k in ratios)
    top = 2 ** e
    for box in sturm_isolation(p):
        if box.is_exact:
            assert abs(box.lo) < top, (p, box)
        else:
            assert _at(p, max(box.lo, -top)) * _at(p, min(box.hi, top)) < 0, (p, box)
    bound = _dyadic_root_bound(chain[0])
    at_infinity = _variations_at_infinity(chain)
    assert at_infinity == (_variations(chain, -bound, 0), _variations(chain, bound, 0))
    assert at_infinity == (_variations(chain, -top, 0), _variations(chain, top, 0))


def test_isolation_evaluates_nothing_past_the_fujiwara_bound(sturm_evaluations):
    """Roots 1..10: the Cauchy box is [-2^24, 2^24] and 2^7 is past
    Fujiwara's bound, so the counts and exact-root tests at the tree's
    points of modulus >= 2^7 are all answered by the chain's leading
    coefficients: 19 evaluations here, each a count whose first member is
    the exact-root test, and none of p outside a count."""
    p = poly_from_roots(range(1, 11))
    boxes = isolate_real_roots(p)
    assert len(boxes) == 10 and all(box.lo <= r <= box.hi for box, r in zip(boxes, range(1, 11)))
    top = 2 ** _fujiwara_exponent(_sturm_chain(p)[0])
    assert top == 2 ** 7 and _dyadic_root_bound(_sturm_chain(p)[0]) == 2 ** 24
    assert all(abs(F(u, 1 << s)) < top for _, u, s in sturm_evaluations)
    assert all(kind == "count" for kind, _, _ in sturm_evaluations), sturm_evaluations
    assert len(sturm_evaluations) <= 19, len(sturm_evaluations)


def test_refine_root_matches_fraction_bisection():
    p = poly_from_roots([F(1, 3), F(-2, 7), 5])
    user_boxes = [RootBox(F(1, 7), F(2, 3), 1), RootBox(F(-1, 3), F(-1, 7), -1),
                  RootBox(F(14, 3), F(36, 7), 1)]
    cases = [(p, box) for box in user_boxes + list(isolate_real_roots(p))]
    hits = poly_from_roots([F(3, 8), F(-5, 4), 0, 7])  # dyadic roots: exact hits
    cases += [(hits, box) for box in isolate_real_roots(hits)]
    cases += [(hits, RootBox(F(1, 4), F(1, 2), 1)), (hits, RootBox(F(-1, 3), F(1, 3), 0))]
    # outside the RootBox contract, p(lo) p(hi) >= 0: a root at one end or at
    # both, two roots inside, none; refinement keeps bisection's answer
    two = poly_from_roots([1, 2])
    cases += [(two, RootBox(F(1), F(3, 2), 1)), (two, RootBox(F(3, 2), F(2), 1)),
              (two, RootBox(F(1, 2), F(5, 2), 1)), (two, RootBox(F(3), F(4), 1)),
              (two, RootBox(F(1), F(2), 1)), (p, RootBox(F(1, 3), F(5), 1))]
    widths = [F(1, 7 ** 12), F(1, 10 ** 9), F(1, 2 ** 20), F(1, 3), F(2, 3), F(5)]
    exact = 0
    for q, box in cases:
        for w in widths:
            got = refine_root(q, box, w)
            assert got == fraction_bisection(q, box, w), (q, box, w)
            exact += got.is_exact and not box.is_exact
    assert exact > 0
    assert refine_root(two, RootBox(F(1), F(3, 2), 1), F(1, 1024)) == \
        RootBox(F(1), F(1025, 1024), 1)


@settings(deadline=None, max_examples=80)
@given(_squarefree_int_polys(), st.integers(0, 60), st.integers(1, 9))
def test_refine_root_matches_fraction_bisection_hypothesis(p, shift, odd):
    """On isolation boxes, widths that call for no halving (the box's own),
    one halving (3/4 and 1/2 of it) and up to about sixty (odd / 2^shift of
    it, and 10^-9)."""
    for box in isolate_real_roots(p):
        if box.is_exact:
            continue
        for w in (box.width, box.width * F(3, 4), box.width / 2,
                  box.width * F(odd, 1 << shift), F(1, 10 ** 9)):
            assert refine_root(p, box, w) == fraction_bisection(p, box, w), (p, box, w)


def _assert_built_in_lowest_terms(x) -> None:
    """x is a Fraction whose slots hold a positive denominator and a
    coprime numerator, so that it equals, hashes and prints as the Fraction
    its constructor builds from them."""
    assert type(x) is F, x
    num, den = x._numerator, x._denominator
    assert den > 0 and gcd(num, den) == 1, (num, den)
    twin = F(num, den)
    assert (x, hash(x), str(x)) == (twin, hash(twin), str(twin))


def _assert_boxes_built_in_lowest_terms(boxes) -> None:
    for box in boxes:
        _assert_built_in_lowest_terms(box.lo)
        _assert_built_in_lowest_terms(box.hi)


def _thirds(p: Polynomial, box: RootBox) -> RootBox:
    """The third of ``box`` where p changes sign, with one end or both over
    3 * 2^s, or the exact box of a root at one of the thirds."""
    lo, hi = box.lo, box.hi
    points = [lo, lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3, hi]
    values = [_at(p, x) for x in points]
    for k in range(3):
        if values[k] == 0:
            return RootBox(points[k], points[k], box.sign)
        if values[k] * values[k + 1] < 0:
            return RootBox(points[k], points[k + 1], box.sign)
    raise AssertionError(f"no sign change in {box}")


def _companion(p: Polynomial) -> Matrix:
    """A matrix whose characteristic polynomial is the monic p."""
    _, *tail = p.monic().coeffs
    n = len(tail)
    return Matrix([[-c for c in tail]] + [[int(j == i) for j in range(n)] for i in range(n - 1)])


_dyadic_roots = st.builds(lambda u, s: F(u, 1 << s), st.integers(-40, 40), st.integers(0, 6))
_other_roots = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.one_of(_dyadic_roots, _other_roots, st.just(F(0))), min_size=1,
                max_size=6, unique=True),
       st.sampled_from([None, 2, 3, 5]))
def test_enclosure_fractions_are_built_in_lowest_terms_hypothesis(roots, surd):
    """Roots at dyadic points, at 0 and elsewhere, negative ones, and
    optionally the irrational pair of z^2 - surd. Every end that isolation,
    refinement (no halving, one to three, about thirty, and on boxes with
    non-dyadic ends) and the spectrum report hand out."""
    p = poly_from_roots(roots)
    if surd is not None:
        p = p * Polynomial([1, 0, -surd])
    boxes = isolate_real_roots(p)
    _assert_boxes_built_in_lowest_terms(boxes)
    for box in boxes:
        if box.is_exact:
            continue
        for start in (box, _thirds(p, box)):
            if start.is_exact:
                continue
            widths = [start.width / 2 ** k for k in (0, 1, 2, 3, 30)]
            refined = [refine_root(p, start, w) for w in widths + [start.width * F(3, 4)]]
            _assert_boxes_built_in_lowest_terms(refined)
            assert refined[0] == start
    report = spectra.spectrum_report(_companion(p))
    _assert_boxes_built_in_lowest_terms(report.boxes)
    assert len(report.boxes) == len(boxes)


@pytest.mark.parametrize("lo, hi", [(1, 2), (F(1), 2), (-2, F(-1)), (1, F(3, 2))])
def test_refine_root_takes_int_ends(lo, hi):
    """A box with int ends refines as the same box with Fraction ends,
    and an exact int box comes back as it is."""
    p = Polynomial([1, 0, -2])  # z^2 - 2, roots +-sqrt 2
    box, twin = RootBox(lo, hi, 1 if lo > 0 else -1), RootBox(F(lo), F(hi), 1 if lo > 0 else -1)
    for w in (F(1, 2), F(1, 3), WIDTH):
        got = refine_root(p, box, w)
        assert got == refine_root(p, twin, w) == fraction_bisection(p, twin, w)
        _assert_boxes_built_in_lowest_terms([got] if got != box else [])
    exact = RootBox(2, 2, 1)
    assert refine_root(Polynomial([1, -2]), exact, WIDTH) is exact


def _halvings(box: RootBox, result: RootBox) -> int:
    """Bisection steps from box to result: a hit at level s lies an odd
    multiple of width / 2^s from lo; otherwise the width ratio is 2^s."""
    if result.is_exact:
        return ((result.lo - box.lo) / box.width).denominator.bit_length() - 1
    return (box.width / result.width).numerator.bit_length() - 1


def test_refine_root_evaluates_less_than_bisection_halves(monkeypatch):
    """On a fixed corpus bisection makes one evaluation per halving, after one
    at lo; the final-cell locator makes under two thirds as many in all
    (1,321 against 2,498 here)."""
    evaluations = []

    def counted(ic, u):
        evaluations.append(u)
        return _horner(ic, u)

    monkeypatch.setattr("interlace.polynomials._horner", counted)
    rng = SplitMix64(83)
    bisection = 0
    for _ in range(40):
        coeffs = [1 + rng.below(4)] + [rng.below(19) - 9 for _ in range(2 + rng.below(9))]
        p = squarefree_part(Polynomial(coeffs))
        for box in isolate_real_roots(p):
            got = refine_root(p, box, WIDTH)
            if not box.is_exact:
                bisection += _halvings(box, got) + 1
    assert bisection > 1000
    assert 3 * len(evaluations) < 2 * bisection, (len(evaluations), bisection)


def test_spectrum_charpolys_match_the_fraction_oracles():
    """The characteristic polynomials the spectrum path sees: anti-bidiagonal
    n = 10, 12, 16 and row flips of positive TNN matrices n = 6, 8."""
    rng = SplitMix64(79)

    def positive(k):
        return tuple(F(1 + rng.below(9), 1 + rng.below(4)) for _ in range(k))

    mats = [anti_bidiagonal(AntiBidiagonalSpec(positive(1)[0], positive(n - 1), positive(n - 1)))
            for n in (10, 12, 16)]
    mats += [flip_rows(random_positive_tnn(n, 40 + n)) for n in (6, 8)]
    for m in mats:
        p = m.charpoly()
        assert _sturm_chain(p) == _fraction_chain(p)
        assert poly_gcd(p, p.derivative()) == _fraction_gcd(p, p.derivative())
        assert poly_gcd(p, p.compose_neg()) == _fraction_gcd(p, p.compose_neg())
        sf = squarefree_part(p)
        boxes = isolate_real_roots(sf)
        assert boxes == sturm_isolation(sf)
        for box in boxes:
            assert refine_root(sf, box, WIDTH) == fraction_bisection(sf, box, WIDTH)


def test_deep_isolation_trees_match_fraction_sturm_bisection():
    """Past the spectrum corpus above: the row flip of a positive TNN matrix,
    n = 12, whose eigenvalue moduli spread so far that its tree splits down
    to 2^-21, and an anti-bidiagonal matrix with n = 24."""
    flip = flip_rows(random_positive_tnn(12, 1))
    anti = anti_bidiagonal(AntiBidiagonalSpec(
        1, tuple(F(1, k + 2) for k in range(1, 24)), tuple(F(1, k + 3) for k in range(1, 24))))
    denominators = []
    for m in (flip, anti):
        sf = squarefree_part(m.charpoly())
        boxes = isolate_real_roots(sf)
        assert len(boxes) == m.n
        assert boxes == sturm_isolation(sf)
        denominators.append(max(box.lo.denominator for box in boxes))
    assert denominators[0] >= 2 ** 20


def test_isolation_of_roots_far_apart_needs_no_recursion():
    """Separating 2 from 2^1100 takes about 1,100 halvings of the Cauchy box,
    deeper than the interpreter's default recursion limit."""
    roots = [1, 2, 2 ** 1100]
    p = poly_from_roots(roots)
    boxes = isolate_real_roots(p)
    assert len(boxes) == 3
    for box, root in zip(boxes, roots):
        assert box.lo <= root <= box.hi and box.sign == 1
        if not box.is_exact:
            assert _at(p, box.lo) * _at(p, box.hi) < 0
    tight = refine_root(p, boxes[2], WIDTH)
    assert tight.lo <= roots[2] <= tight.hi and tight.width <= WIDTH


# -- continuant Sturm counts on a positive band ----------------------------------

_POSITIVE_PAIRS = [(x, y) for x in range(-1, 3) for y in range(-1, 3) if x * y > 0]


def _zigzag_matrix(zigzag) -> Matrix:
    """The anti-bidiagonal matrix whose entries (n-1, 0), (n-1, 1),
    (n-2, 1), ..., (0, n-1) (0-based) are ``zigzag``, of length 2n - 1."""
    n = (len(zigzag) + 1) // 2
    rows = [[0] * n for _ in range(n)]
    for k, x in enumerate(zigzag):
        t = k // 2
        rows[n - 1 - t][t + k % 2] = x
    return Matrix(rows)


def _positive_band_corpus():
    """Every tridiagonal and anti-bidiagonal matrix with n <= 4, entries in
    -1..2 and every off-diagonal product positive."""
    for n in range(1, 5):
        for offs in product(_POSITIVE_PAIRS, repeat=n - 1):
            upper, lower = [x for x, _ in offs], [y for _, y in offs]
            for diag in product(range(-1, 3), repeat=n):
                yield jacobi_matrix(JacobiSpec(diag, upper, lower))
            for middle in range(-1, 3):
                yield _zigzag_matrix(upper[::-1] + [middle] + lower)


def test_band_counts_give_the_chain_boxes_exhaustively():
    """The band route's boxes equal the chain route's, and the chain proves
    every such characteristic polynomial squarefree, on all 34,308 matrices
    of the corpus: each matrix's band gives its characteristic polynomial,
    and each distinct band is isolated once."""
    seen, matrices_seen = set(), 0
    for m in _positive_band_corpus():
        band = spectra._simple_band(m)
        assert band is not None, m
        p = m.charpoly()
        assert band[0] == 1 and p._form[1] == tuple(matrices._continuant(*band[1:])), m
        key = (tuple(band[1]), tuple(band[2]))
        if key not in seen:
            boxes = isolate_real_roots(p, band=band)
            assert p._chain is None
            assert boxes == isolate_real_roots(p), m
            assert squarefree_part(p) == p and len(boxes) == p.degree, m
            seen.add(key)
        matrices_seen += 1
    assert (matrices_seen, len(seen)) == (34308, 7540)


_positive_fractions = st.fractions(F(1, 6), 4, max_denominator=6)


@st.composite
def _positive_bands(draw):
    """(m, planted): a tridiagonal m with constant diagonal c, or an
    anti-bidiagonal one with middle entry c, with rational off-diagonal
    pairs of equal sign. Such an m is c I plus, in the anti-bidiagonal case
    only when c = 0, a matrix similar to a symmetric tridiagonal one with
    zero diagonal, whose spectrum is symmetric about 0; so odd n plants the
    eigenvalue c there, and ``planted`` is c, else None. c = 0 is the
    isolation tree's first split point, so its gap loop runs."""
    n = draw(st.integers(1, 12))
    c = draw(st.sampled_from([F(0), F(1, 2), F(-3, 4), F(5, 8), F(-2)]))
    pairs = draw(st.lists(st.tuples(_positive_fractions, _positive_fractions, st.booleans()),
                          min_size=n - 1, max_size=n - 1))
    upper = [x if positive else -x for x, _, positive in pairs]
    lower = [y if positive else -y for _, y, positive in pairs]
    if draw(st.booleans()):
        m = jacobi_matrix(JacobiSpec([c] * n, upper, lower))
    else:
        m = _zigzag_matrix(upper[::-1] + [c] + lower)
        c = c if c == 0 else None
    return m, c if n % 2 else None


@settings(deadline=None, max_examples=60)
@given(_positive_bands(), st.lists(st.tuples(_dyadic_numerators, st.integers(0, 40)),
                                   min_size=5, max_size=5))
def test_band_counts_match_the_chain_and_fraction_isolation_hypothesis(case, points):
    """Up to n = 12: the band route's boxes are the chain route's and those
    of Fraction Sturm bisection, the planted eigenvalue c is enclosed, and
    at random dyadic points each continuant count is the chain's count, or
    None exactly where p vanishes."""
    m, c = case
    band = spectra._simple_band(m)
    assert band is not None
    p = m.charpoly()
    boxes = isolate_real_roots(p, band=band)
    assert p._chain is None and len(boxes) == p.degree
    assert boxes == isolate_real_roots(p) == sturm_isolation(p)
    if c is not None:
        assert any(box.lo <= c <= box.hi for box in boxes)
        if c == 0:
            assert RootBox(F(0), F(0), 0) in boxes
        points = points + [(c.numerator << 5, 5 + c.denominator.bit_length() - 1)]
    d, diag, products = band
    steps = list(zip(diag, [0, *products]))
    for u, s in points:
        u, s = _lowest_terms(u, s)
        assert _continuant_variations(d, steps, u, s) == _variations(_sturm_chain(p), u, s), (u, s)
