"""Sign classes, total nonnegativity, oscillation, corners, flip certificate."""

import copy
import pickle
from fractions import Fraction as F
from itertools import combinations, product
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace import (
    AntiBidiagonalSpec,
    Matrix,
    MinorSelector,
    NonnegativityViolated,
    Polynomial,
    PositivityViolated,
    SignVerdict,
    SplitMix64,
    SpectrumVerdict,
    anti_bidiagonal,
    anti_identity,
    anti_tridiagonal_criterion,
    bidiagonal_upper,
    check_corner_conditions,
    classify_sign_definite,
    flip_cols,
    flip_rows,
    hurwitz_matrix,
    hurwitz_minors,
    identity,
    is_oscillatory,
    is_oscillatory_by_definition,
    is_strictly_totally_positive,
    is_totally_nonnegative,
    jacobi_oscillatory_criterion,
    jflip_signature,
    jflip_si_certificate,
    JacobiSpec,
    jacobi_matrix,
    random_oscillatory,
    random_positive_tnn,
    random_tnn,
    spectrum_report,
    stp_violation,
    tnn_violation,
)
from interlace import classification, matrices, polynomials, spectra
from interlace.classification import _contiguous_minors, _neville, _neville_blocks, _scan
from interlace.polynomials import _sturm_chain
from conftest import (cofactor_det, corner_conditions_by_products, integer_minors,
                      least_strict_power_by_scan, random_int_matrix, random_rational_matrix,
                      scaled, summed)


# -- signature target ---------------------------------------------------------


def test_jflip_signature_pattern():
    assert jflip_signature(8) == (1, -1, -1, 1, 1, -1, -1, 1)


# -- sign classification ----------------------------------------------------------


def test_classify_anti_identity():
    cls = classify_sign_definite(anti_identity(3))
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert cls.signature == (1, -1, -1)
    assert cls.is_sign_definite and not cls.is_class_n_plus
    assert cls.power_exponent is None and cls.power_cap == 4


def test_classify_strictly_sign_definite():
    cls = classify_sign_definite(Matrix([[1, 2], [3, 4]]))
    assert cls.verdict is SignVerdict.STRICTLY_SIGN_DEFINITE
    assert cls.signature == (1, -1)
    assert cls.power_exponent == 1
    assert cls.is_class_n_plus and cls.is_sign_definite


def test_classify_conflict_witness_is_first_in_lex_order():
    cls = classify_sign_definite(Matrix([[1, -1], [1, 1]]))
    assert cls.verdict is SignVerdict.NOT_SIGN_DEFINITE
    assert cls.conflict.order == 1
    assert cls.conflict.positive[0] == MinorSelector((1,), (1,))
    assert cls.conflict.positive[1] == 1
    assert cls.conflict.negative[0] == MinorSelector((1,), (2,))
    assert cls.conflict.negative[1] == -1
    assert cls.signature == (None, None)


def test_classify_class_n_plus_via_powers():
    m = Matrix([[0, 1], [1, 1]])  # zero minor at order 1, square is positive
    cls = classify_sign_definite(m)
    assert cls.verdict is SignVerdict.CLASS_N_PLUS
    assert cls.power_exponent == 2
    assert cls.signature == (1, -1)


def test_classify_identity_and_zero():
    cls = classify_sign_definite(identity(3))
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert cls.signature == (1, 1, 1)
    zero = classify_sign_definite(Matrix([[0, 0], [0, 0]]))
    assert zero.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert zero.signature == (None, None)


def test_classify_zero_minor_after_a_negative_one():
    """A zero after the first nonzero minor of a negative order still rules
    out strictness: -I stays class n, and the square of -[[1, 1], [1, 0]]
    is the least strict power."""
    cls = classify_sign_definite(-identity(2))
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert cls.signature == (-1, 1) and cls.power_exponent is None
    cls = classify_sign_definite(Matrix([[-1, -1], [-1, 0]]))
    assert cls.verdict is SignVerdict.CLASS_N_PLUS
    assert cls.signature == (-1, -1) and cls.power_exponent == 2


def test_classify_one_by_one():
    assert classify_sign_definite(Matrix([[2]])).verdict is \
        SignVerdict.STRICTLY_SIGN_DEFINITE
    assert classify_sign_definite(Matrix([[0]])).verdict is \
        SignVerdict.SIGN_DEFINITE_CLASS_N


def test_class_n_plus_power_certificate_is_reproducible():
    """The reported exponent really is the least strictly sign definite power."""
    for seed in range(12):
        n = 2 + seed % 3
        m = flip_rows(random_oscillatory(n, seed))
        cls = classify_sign_definite(m)
        assert cls.is_class_n_plus, seed
        e = cls.power_exponent
        power = m ** e
        for order in range(1, n + 1):
            values = [v for _, v in power.minors(order)]
            assert all(v != 0 for v in values)
            assert len({1 if v > 0 else -1 for v in values}) == 1
        if e > 1:
            prior = m ** (e - 1)
            assert any(v == 0 for k in range(1, n + 1)
                       for _, v in prior.minors(k))


def _counted(monkeypatch, name, limit):
    """Record the right operand of every Matrix.<name> call; fail at once
    past ``limit`` calls, so an unbounded search cannot hang the test."""
    calls, original = [], getattr(Matrix, name)

    def counted(a, b):
        calls.append(b)
        assert len(calls) <= limit, f"Matrix.{name} called {len(calls)} times"
        return original(a, b)

    monkeypatch.setattr(Matrix, name, counted)
    return calls


def test_power_search_skips_a_singular_input(monkeypatch):
    """A singular M has only singular powers, none strictly sign definite, so
    the class n+ search forms no power at all."""
    m = flip_rows(random_tnn(7, 0))
    assert m.det() == 0
    exponents = _counted(monkeypatch, "__pow__", 0)
    cls = classify_sign_definite(m)
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N
    assert cls.signature == jflip_signature(6) + (None,)
    assert cls.power_exponent is None and cls.power_cap == 12
    assert exponents == []


def test_power_searches_stop_at_the_deciding_exponent(monkeypatch):
    """No power past 2(n-1) (sign classes) or n-1 (oscillation) can change
    an answer, so a search that finds none forms exactly those powers; the
    definition forms M^(n-1) alone, by one product."""
    exponents = _counted(monkeypatch, "__pow__", 4)
    cls = classify_sign_definite(identity(3))
    assert cls.verdict is SignVerdict.SIGN_DEFINITE_CLASS_N and cls.power_cap == 4
    assert exponents == [2, 3, 4]
    products = _counted(monkeypatch, "__mul__", 1)
    assert is_oscillatory_by_definition(identity(3)) is False
    assert exponents == [2, 3, 4, 2]
    assert len(products) == 1


# -- the single scan against a brute-force lexicographic scan ------------------


def _brute_minors(m):
    """Every minor, orders 1..n, rows then columns lexicographic, by cofactors:
    on plain int rows when every entry is an integer, else one Fraction
    expansion per minor."""
    if all(x.denominator == 1 for row in m.rows for x in row):
        return integer_minors([[int(x) for x in row] for row in m.rows])
    idx = range(1, m.n + 1)
    return [(MinorSelector(rows, cols),
             cofactor_det(Matrix([[m[i, j] for j in cols] for i in rows])))
            for k in idx
            for rows in combinations(idx, k)
            for cols in combinations(idx, k)]


def _brute_strict(m, minors_of=_brute_minors):
    minors = minors_of(m)
    return all(v != 0 for _, v in minors) and all(
        len({v > 0 for s, v in minors if s.order == k}) == 1
        for k in range(1, m.n + 1))


def _brute_power(m, e):
    rows = [list(r) for r in m.rows]
    for _ in range(e - 1):
        rows = [[sum(rows[i][t] * m.rows[t][j] for t in range(m.n))
                 for j in range(m.n)] for i in range(m.n)]
    return Matrix(rows)


def _brute_classify(m, cap, minors_of=_brute_minors):
    """(verdict, signature, conflict, power exponent) from the definitions,
    trying every power up to ``cap``; minors come from ``minors_of``."""
    n = m.n
    minors = minors_of(m)
    signature = []
    for k in range(1, n + 1):
        pos = [(s, v) for s, v in minors if s.order == k and v > 0]
        neg = [(s, v) for s, v in minors if s.order == k and v < 0]
        if pos and neg:
            sig = tuple(signature) + (None,) * (n - k + 1)
            return SignVerdict.NOT_SIGN_DEFINITE, sig, (k, pos[0], neg[0]), None
        signature.append(1 if pos else -1 if neg else None)
    sig = tuple(signature)
    if all(v != 0 for _, v in minors):
        return SignVerdict.STRICTLY_SIGN_DEFINITE, sig, None, 1
    for e in range(2, cap + 1):
        if _brute_strict(_brute_power(m, e), minors_of):
            return SignVerdict.CLASS_N_PLUS, sig, None, e
    return SignVerdict.SIGN_DEFINITE_CLASS_N, sig, None, None


def _first(minors, bad):
    return next(((s, v) for s, v in minors if bad(v)), None)


def _oracle_corpus():
    for n in range(1, 5):
        for seed in range(20):
            yield random_int_matrix(n, seed)
            yield random_int_matrix(n, seed, 0, 1)      # many zeros, nonnegative
            yield random_int_matrix(n, seed, -1, 1)     # many zeros, both signs
            yield random_rational_matrix(n, seed)
            yield random_rational_matrix(n, seed, span=1)
            # a perturbed positive TNN matrix puts first witnesses past order 2
            yield summed(random_positive_tnn(n, seed), random_int_matrix(n, seed, -1, 1))
    # sign definite inputs whose powers keep a zero minor: singular flips of
    # TNN matrices and their negations, and the identity and anti-identity
    for n in range(1, 5):
        yield identity(n)
        yield anti_identity(n)
    for n in range(2, 5):
        for seed in range(12):
            a = random_tnn(n, seed)
            if cofactor_det(a) == 0:
                for flipped in (flip_rows(a), flip_cols(a)):
                    yield flipped
                    yield -flipped


def test_scans_match_brute_force_lexicographic_scan():
    """Witnesses and classifications against the definitions; the brute
    force tries powers past the deciding exponent 2(n-1)."""
    verdicts, witness_orders, dense_singular = set(), set(), False
    for m in _oracle_corpus():
        minors = _brute_minors(m)
        tnn, stp = tnn_violation(m), stp_violation(m)
        assert tnn == _first(minors, lambda v: v < 0), m
        assert stp == _first(minors, lambda v: v <= 0), m
        deciding = max(1, 2 * (m.n - 1))
        cls = classify_sign_definite(m)
        conflict = cls.conflict and (cls.conflict.order, cls.conflict.positive,
                                     cls.conflict.negative)
        got = (cls.verdict, cls.signature, conflict, cls.power_exponent)
        assert got == _brute_classify(m, deciding + 3), m
        assert cls.power_cap == deciding
        verdicts.add(cls.verdict)
        witness_orders |= {("tnn", tnn and tnn[0].order), ("stp", stp and stp[0].order),
                           ("conflict", conflict and conflict[0])}
        if cls.is_sign_definite and minors[-1][1] == 0:
            dense_singular |= all(x != 0 for row in _brute_power(m, 2).rows for x in row)
    assert verdicts == set(SignVerdict)
    assert {("tnn", 3), ("stp", 3), ("conflict", 3)} <= witness_orders
    # a singular input whose square has no zero entry: only the skip spares
    # its powers a deep scan
    assert dense_singular


def _scan_minors(m):
    return list(_scan(m))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10 ** 6), span=st.integers(1, 4),
       denominators=st.sampled_from([(2,), (3, 6), (1, 2, 5), (4, 7, 9)]))
@example(n=4, seed=28110, span=1, denominators=(2,))  # a zero in a negative order
def test_numerator_sign_tests_match_fraction_comparisons_property(n, seed, span,
                                                                  denominators):
    """The scans read signs off numerators; an oracle walking the same
    ``_scan`` stream compares Fractions with 0. Inputs have non-unit
    denominators; the scaled TNN flip reaches the sign definite verdicts."""
    m = random_rational_matrix(n, seed, span, denominators)
    flipped = scaled(flip_rows(random_tnn(n, seed)), F(1, denominators[-1]))
    for x in (m, flipped):
        minors = _scan_minors(x)
        assert tnn_violation(x) == _first(minors, lambda v: v < 0), x
        assert stp_violation(x) == _first(minors, lambda v: v <= 0), x
        cls = classify_sign_definite(x)
        conflict = cls.conflict and (cls.conflict.order, cls.conflict.positive,
                                     cls.conflict.negative)
        got = (cls.verdict, cls.signature, conflict, cls.power_exponent)
        assert got == _brute_classify(x, cls.power_cap, _scan_minors), x


# -- contiguous minors by condensation -------------------------------------------


def _contiguous_corpus():
    """Integer and rational matrices, n <= 6, most with no zero contiguous minor."""
    for n in range(1, 7):
        for seed in range(6):
            yield random_int_matrix(n, seed, -9, 9)
            yield random_rational_matrix(n, seed, span=9, denominators=(1, 2, 3, 5))
            a = scaled(random_positive_tnn(n, seed), F(2, 3))
            yield from (a, flip_rows(a), -flip_cols(a), a * flip_rows(a))


def test_contiguous_minors_match_cofactor_determinants():
    """Table k holds the k-minors of D*M on consecutive rows and columns, up
    to the first table holding a zero, past which no consumer reads."""
    full = 0
    for m in _contiguous_corpus():
        d, b = m._form
        tables = 0
        for k, table in enumerate(_contiguous_minors(b), 1):
            assert len(table) == len(table[0]) == m.n - k + 1, m
            for i, row in enumerate(table):
                for j, value in enumerate(row):
                    block = Matrix([[m[r, c] for c in range(j + 1, j + k + 1)]
                                    for r in range(i + 1, i + k + 1)])
                    assert value == cofactor_det(block) * d ** k, (m, k, i, j)
            tables = k
            if 0 in (x for row in table for x in row):
                break
        full += tables == m.n
    assert full >= 150


def _contiguous_peak_bits(m):
    """Largest entry, in bits, of the contiguous-minor tables of D*M up to
    the first one holding a zero."""
    _, b = m._form
    peak = 0
    for table in _contiguous_minors(b):
        entries = [x for row in table for x in row]
        peak = max(peak, *(abs(x).bit_length() for x in entries))
        if 0 in entries:
            return peak
    return peak


def test_contiguous_minor_tables_stay_within_minor_size():
    """Every table entry is a minor of D*M, so Hadamard's bound holds for
    all of them; the exact division keeps the products NW*SE, of twice the
    size, out of every table."""
    for seed in range(3):
        a = random_positive_tnn(12, seed)
        for m in (a, scaled(flip_rows(a), F(5, 7)), random_rational_matrix(9, seed, 9),
                  random_int_matrix(10, seed, -50, 50)):
            assert _contiguous_peak_bits(m) <= _hadamard_bits(m), m


def _bidiagonals(n, seed):
    """Two upper bidiagonal matrices, entries 1..3 drawn off ``seed``."""
    rng = SplitMix64(seed)
    return [bidiagonal_upper([1 + rng.below(3) for _ in range(n)],
                             [1 + rng.below(3) for _ in range(n - 1)]) for _ in range(2)]


def _tridiagonal(n, seed):
    """An oscillatory tridiagonal L*U: its least strict power is the (n-1)-th."""
    upper, lower = _bidiagonals(n, seed)
    return Matrix(zip(*lower.rows)) * upper


_TNN_FACTORS = {
    "tnn": random_tnn,
    "positive": random_positive_tnn,
    "oscillatory": random_oscillatory,
    "bidiagonal": lambda n, seed: _bidiagonals(n, seed)[0],
    "tridiagonal": _tridiagonal,
}
# each keeps a sign regular matrix sign regular: S*A for S = I, -I, J, -J and A*J
_SIGN_TRANSFORMS = (lambda a: a, lambda a: -a, flip_rows, lambda a: -flip_rows(a),
                    flip_cols)


def _transformed_product(n, factors, bump):
    """The product of sign-transformed TNN factors (kind, transform, seed),
    with ``bump`` = (position, delta) added to one entry when given."""
    m = identity(n)
    for kind, transform, seed in factors:
        m = m * _SIGN_TRANSFORMS[transform](_TNN_FACTORS[kind](n, seed))
    if bump is not None:
        rows = [list(r) for r in m.rows]
        rows[bump[0] // n % n][bump[0] % n] += bump[1]
        m = Matrix(rows)
    return m


def _assert_power_search_matches_scan(m):
    cls = classify_sign_definite(m)
    if cls.verdict is SignVerdict.STRICTLY_SIGN_DEFINITE:
        assert cls.power_exponent == 1
    elif cls.verdict is SignVerdict.NOT_SIGN_DEFINITE:
        assert cls.power_exponent is None
    else:
        assert cls.power_exponent == least_strict_power_by_scan(m), m
        assert cls.is_class_n_plus == (cls.power_exponent is not None)
    return cls


_factor_lists = st.lists(st.tuples(st.sampled_from(sorted(_TNN_FACTORS)),
                                   st.integers(0, len(_SIGN_TRANSFORMS) - 1),
                                   st.integers(0, 10 ** 6)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), factors=_factor_lists,
       bump=st.none() | st.tuples(st.integers(0, 24), st.integers(-2, 2)))
def test_power_search_matches_the_full_scan_property(n, factors, bump):
    """Contiguous minors decide each power as the scan of all its minors does."""
    _assert_power_search_matches_scan(_transformed_product(n, factors, bump))


def test_power_search_matches_the_full_scan_on_odd_powers():
    """A seeded corpus of the same products reaches class n+ at an odd
    exponent >= 3 with a signature that is not all positive, where the
    power's contiguous minors must carry the signs of M's own. It also
    reaches every verdict, and an even exponent with such a signature."""
    rng, reached = SplitMix64(19), set()
    kinds = sorted(_TNN_FACTORS)
    for _ in range(300):
        n = 2 + rng.below(4)
        factors = [(kinds[rng.below(len(kinds))], rng.below(len(_SIGN_TRANSFORMS)),
                    rng.next_u64()) for _ in range(1 + rng.below(3))]
        bump = (rng.below(25), rng.below(5) - 2) if rng.below(4) == 0 else None
        cls = _assert_power_search_matches_scan(_transformed_product(n, factors, bump))
        e = cls.power_exponent
        reached.add((cls.verdict, e and (e > 1, e % 2, -1 in cls.signature)))
    assert set(SignVerdict) == {verdict for verdict, _ in reached}
    assert {(SignVerdict.CLASS_N_PLUS, (True, 1, True)),
            (SignVerdict.CLASS_N_PLUS, (True, 0, True))} <= reached


# -- total nonnegativity ------------------------------------------------------------


def test_tnn_frozen_examples():
    assert is_totally_nonnegative(Matrix([[1, 1], [1, 1]]))
    assert is_totally_nonnegative(Matrix([[1, 1], [0, 1]]))
    sel, val = tnn_violation(Matrix([[1, 2], [3, 4]]))
    assert sel == MinorSelector((1, 2), (1, 2)) and val == -2
    sel, val = stp_violation(Matrix([[1, 1], [0, 1]]))
    assert sel == MinorSelector((2,), (1,)) and val == 0
    assert is_strictly_totally_positive(Matrix([[2, 1], [1, 1]]))
    assert not is_strictly_totally_positive(Matrix([[1, 1], [1, 1]]))


def test_flip_of_tnn_has_alternating_pair_signature():
    """Nonzero order-k minors of JA and AJ all carry sign (-1)^(k(k-1)/2)."""
    for seed in range(15):
        n = 2 + seed % 3
        a = random_tnn(n, seed)
        target = jflip_signature(n)
        for flipped in (flip_rows(a), flip_cols(a)):
            for order in range(1, n + 1):
                for sel, val in flipped.minors(order):
                    if val != 0:
                        assert (1 if val > 0 else -1) == target[order - 1], \
                            (seed, order, sel)


def test_unflipping_a_flipped_tnn_matrix_recovers_tnn():
    for seed in range(8):
        m = flip_rows(random_tnn(3, seed + 70))
        assert is_totally_nonnegative(flip_rows(m))


# -- Neville deciders against the minor oracle ------------------------------------


def _scan_only(m, bad):
    """The witness route without the decider in front of it."""
    return next(((s, v) for s, v in _scan(m) if bad(v)), None)


def _with_zero_line(m, k, column):
    rows = [list(r) for r in m.rows]
    for i in range(m.n):
        if column:
            rows[i][k] = 0
        else:
            rows[k][i] = 0
    return Matrix(rows)


def _neville_corpus():
    """Singular and nonsingular TNN, STP powers, and near misses of each."""
    for n in range(1, 6):
        for seed in range(12):
            pos = random_positive_tnn(n, seed)
            osc = random_oscillatory(n, seed)
            for m in (pos, random_tnn(n, seed), osc, osc ** max(1, n - 1)):
                yield m
                yield -m
                yield summed(m, random_int_matrix(n, seed, -1, 1))
                yield _with_zero_line(m, seed % n, column=bool(seed % 2))
            yield random_int_matrix(n, seed, 0, 2)
            # a nonsingular TNN matrix with one entry raised or lowered
            rows = [list(r) for r in pos.rows]
            rows[seed % n][(seed // n) % n] += 1 if seed % 3 else -1
            yield Matrix(rows)


def _stp_by_scan(m):
    return _scan_only(m, lambda v: v <= 0) is None


def _oscillatory_criterion_by_scan(m):
    """Positive off-diagonals, nonsingular, and no negative minor."""
    n = m.n
    return (all(m[j, j + 1] > 0 and m[j + 1, j] > 0 for j in range(1, n))
            and m.det() != 0 and _scan_only(m, lambda v: v < 0) is None)


def _oscillatory_definition_by_scan(m):
    """No negative minor, and some power up to n-1 with no nonpositive one."""
    return (_scan_only(m, lambda v: v < 0) is None
            and any(_stp_by_scan(m ** e) for e in range(1, max(1, m.n - 1) + 1)))


def _assert_decider_matches_oracle(m, seen):
    minors = _brute_minors(m)
    det = minors[-1][1]
    tnn_nonsingular = det != 0 and all(v >= 0 for _, v in minors)
    stp = all(v > 0 for _, v in minors)
    assert _neville(m) == tnn_nonsingular, m
    tnn, stp_w = _first(minors, lambda v: v < 0), _first(minors, lambda v: v <= 0)
    assert tnn_violation(m) == tnn == _scan_only(m, lambda v: v < 0), m
    assert is_totally_nonnegative(m) == (tnn is None), m
    assert stp_violation(m) == stp_w == _scan_only(m, lambda v: v <= 0), m
    assert is_strictly_totally_positive(m) == _stp_by_scan(m) == stp, m
    assert is_oscillatory(m) == _oscillatory_criterion_by_scan(m), m
    assert is_oscillatory_by_definition(m) == _oscillatory_definition_by_scan(m), m
    seen.add((tnn_nonsingular, stp, tnn is None, det != 0))


def test_neville_decider_matches_minor_oracle():
    """Neville says yes exactly on nonsingular TNN inputs, by cofactor
    minors, and the public scans return what the scan alone returns."""
    seen = set()
    for m in _neville_corpus():
        _assert_decider_matches_oracle(m, seen)
    assert {(True, True, True, True),      # STP
            (True, False, True, True),     # nonsingular TNN, not STP
            (False, False, True, False),   # singular TNN: the scan decides
            (False, False, False, True),   # nonsingular, not TNN
            (False, False, False, False)} <= seen


def _hard_input():
    """Positive entries and off-diagonals, every minor positive except the
    determinant, which is negative: a scan for a "no" meets it last."""
    m = random_positive_tnn(11, 0)
    corner = m.minor(MinorSelector(tuple(range(2, 12)), tuple(range(1, 11))))
    rows = [list(r) for r in m.rows]
    rows[0][10] -= m.det() / corner + F(1, 10 ** 6)
    return Matrix(rows)


def test_stp_witness_scans_only_the_first_bad_order(monkeypatch):
    """Every minor of the hard input but its determinant is positive, so the
    least order with a contiguous minor <= 0 is 11, and the witness comes
    from the one minor of that order."""
    hard = _hard_input()
    orders, minors = [], Matrix.minors

    def counted(m, order):
        orders.append(order)
        return minors(m, order)

    monkeypatch.setattr(Matrix, "minors", counted)
    sel, val = stp_violation(hard)
    assert sel == MinorSelector(tuple(range(1, 12)), tuple(range(1, 12)))
    assert val == hard.det() < 0
    assert orders == [11]


def test_predicates_decide_without_the_minor_scan(monkeypatch):
    """The STP and both oscillation predicates read Neville elimination and
    contiguous minors alone, and the TNN predicate reads Neville elimination
    alone on a nonsingular input; the exponential scan is left to the
    witness reports and singular inputs."""
    hard = _hard_input()
    assert all(v > 0 for row in hard.rows for v in row) and hard.det() < 0
    corpus = list(_neville_corpus())  # random_tnn certifies itself by the scan

    def no_scan(m):
        raise AssertionError("the minor scan ran")

    monkeypatch.setattr(classification, "_scan", no_scan)
    predicates = (is_strictly_totally_positive, is_oscillatory,
                  is_oscillatory_by_definition)
    assert [p(hard) for p in predicates] == [False, False, False]
    assert is_totally_nonnegative(hard) is False
    answers = {(p.__name__, p(m)) for m in corpus for p in predicates}
    assert answers == {(p.__name__, a) for p in predicates for a in (True, False)}
    nonsingular = [m for m in corpus if m.det() != 0]
    assert {is_totally_nonnegative(m) for m in nonsingular} == {True, False}


def test_strictness_never_reaches_neville_elimination(monkeypatch):
    """Contiguous minors alone decide strict total positivity and the order
    of its witness; Neville elimination answers only nonsingular TNN."""
    corpus = list(_neville_corpus())

    def no_neville(*args, **kwargs):
        raise AssertionError("Neville elimination ran")

    monkeypatch.setattr(classification, "_neville", no_neville)
    verdicts = set()
    for m in corpus:
        stp = _stp_by_scan(m)
        assert is_strictly_totally_positive(m) == stp, m
        assert stp_violation(m) == _scan_only(m, lambda v: v <= 0), m
        verdicts.add(stp)
    assert verdicts == {True, False}


def _small_matrices():
    """Every 2x2 matrix with entries in -2..2 and every 3x3 one in 1..3."""
    for n, values in ((2, range(-2, 3)), (3, range(1, 4))):
        for entries in product(values, repeat=n * n):
            yield Matrix([entries[i * n:(i + 1) * n] for i in range(n)])


def test_fekete_criterion_exhaustively_on_small_matrices():
    """STP exactly when no minor is <= 0, and the witness is the scan's
    first such minor, on every small matrix by cofactor minors."""
    stp_count = 0
    for m in _small_matrices():
        minors = _brute_minors(m)
        witness = _first(minors, lambda v: v <= 0)
        assert is_strictly_totally_positive(m) == (witness is None), m
        assert stp_violation(m) == witness, m
        stp_count += witness is None
    assert stp_count == 27


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
       bump=st.lists(st.integers(-2, 2), min_size=25, max_size=25),
       positive=st.booleans())
def test_neville_decider_matches_minor_oracle_property(n, seed, bump, positive):
    base = random_positive_tnn(n, seed) if positive else random_tnn(n, seed)
    m = summed(base, Matrix([bump[i * n:(i + 1) * n] for i in range(n)]))
    _assert_decider_matches_oracle(m, set())
    _assert_decider_matches_oracle(base, set())


def test_initial_minor_trap_is_not_tnn():
    """Initial minors >= 0 and leading principal minors > 0 do not make a
    matrix TNN; Neville elimination meets a negative multiplier at step 3."""
    trap = Matrix([[1, 3, 3, 3], [0, 1, 3, 5], [0, 6, 19, 32], [0, 18, 54, 91]])
    minors = _brute_minors(trap)
    initial = [v for s, v in minors
               if s.rows == tuple(range(s.rows[0], s.rows[0] + s.order))
               and s.cols == tuple(range(s.cols[0], s.cols[0] + s.order))
               and 1 in (s.rows[0], s.cols[0])]
    assert all(v >= 0 for v in initial)
    assert all(trap.leading_principal_minor(k) > 0 for k in range(1, 5))
    assert not _neville(trap)
    assert not is_totally_nonnegative(trap)
    assert tnn_violation(trap) == _first(minors, lambda v: v < 0)


def _neville_peak_bits(m):
    """Largest entry, in bits, of any block Neville elimination of D*M and of
    its transpose passes through, run to the end whatever the pivot signs."""
    _, b = m._form
    return max(abs(x).bit_length()
               for rows in (b, [list(c) for c in zip(*b)])
               for block in _neville_blocks(rows)
               for row in block for x in row)


def _hadamard_bits(m):
    """Bits of prod_i ||row_i|| of D*M, which bounds every minor of D*M."""
    _, b = m._form
    return sum(isqrt(sum(x * x for x in row)).bit_length() for row in b)


def test_neville_rows_stay_within_minor_size():
    """Content division keeps every row a primitive multiple of a row of
    minors of D*M; without it the bit length doubles with each step."""
    spec = AntiBidiagonalSpec(F(3, 2), [F(k % 5 + 1, k % 3 + 1) for k in range(15)],
                              [F(k % 7 + 1, k % 4 + 1) for k in range(15)])
    ab = anti_bidiagonal(spec)
    for m in (ab, flip_rows(ab)):       # the flip is upper bidiagonal and TNN
        _, b = m._form
        entry_bits = max(abs(x).bit_length() for row in b for x in row)
        assert _neville_peak_bits(m) <= entry_bits
    assert _neville(flip_rows(ab)) and not _neville(ab)
    for seed in range(3):
        tnn = random_positive_tnn(12, seed)
        assert _neville(tnn)
        assert _neville_peak_bits(tnn) <= _hadamard_bits(tnn)


def test_kernels_never_build_the_fraction_view(monkeypatch):
    """Products and flips store only their integer form, and every kernel
    and decider reads that form, so the Fraction view is never built."""
    cases = [scaled(random_positive_tnn(4, 3), F(2, 3)), scaled(random_tnn(4, 0), F(1, 6)),
             random_rational_matrix(4, 17)]
    for a in cases:
        for m in (a * a, flip_rows(a)):
            m.det(), m.charpoly()
            for k in range(1, m.n + 1):
                list(m.minors(k))
            is_oscillatory(m), is_totally_nonnegative(m), classify_sign_definite(m)
            is_strictly_totally_positive(m), stp_violation(m)
            is_oscillatory_by_definition(m)
            assert not hasattr(m, "_rows"), a
    # corner conditions, both flip certificates of a product and the Hurwitz
    # minors of a rational polynomial past a zero pivot read and build forms
    # alone
    a = scaled(random_positive_tnn(4, 3), F(2, 3))
    m = a * a
    check_corner_conditions(m)
    for side in ("left", "right"):
        cert = jflip_si_certificate(m, side)
        assert cert.passed and not hasattr(cert.flipped, "_rows"), side
    assert not hasattr(m, "_rows")
    built = []
    monkeypatch.setattr(polynomials, "hurwitz_matrix",
                        lambda p, build=hurwitz_matrix: built.append(build(p)) or built[-1])
    assert hurwitz_minors(Polynomial([F(2, 3), 1, F(3, 2), F(9, 4), 1, 4]))[1] == 0
    assert len(built) == 1 and not hasattr(built[0], "_rows")


# -- oscillation -----------------------------------------------------------------


def test_oscillatory_frozen_examples():
    assert is_oscillatory(Matrix([[2, 1], [1, 1]]))
    assert not is_oscillatory(Matrix([[1, 1], [0, 1]]))   # zero subdiagonal entry
    assert not is_oscillatory(identity(2))                # zero off-diagonals
    assert not is_oscillatory(Matrix([[0, 1], [1, 0]]))   # not TNN
    assert not is_oscillatory(Matrix([[1, 1], [1, 1]]))   # singular
    assert is_oscillatory(Matrix([[2]])) and not is_oscillatory(Matrix([[0]]))


def test_oscillatory_criterion_agrees_with_definition():
    cases = []
    for seed in range(12):
        n = 2 + seed % 4
        cases.append(random_tnn(n, seed + 500))
        cases.append(random_oscillatory(n, seed))
        cases.append(random_int_matrix(n, seed, lo=0, hi=3))
    for m in cases:
        assert is_oscillatory(m) == is_oscillatory_by_definition(m), m


def _least_strict_power_by_loop(m):
    """The definition's former exponent loop: the least e in 1..n-1 (at
    least 1) with M^e strictly totally positive, for a nonsingular TNN M;
    None when there is none or M is not nonsingular TNN."""
    if not _neville(m):
        return None
    power = m
    for exponent in range(1, max(1, m.n - 1) + 1):
        if exponent > 1:
            power = power * m
        if is_strictly_totally_positive(power):
            return exponent
    return None


def _small_nonnegative_matrices():
    """Every 1x1 and 2x2 matrix over {0, 1, 2} and every 3x3 0/1 matrix."""
    for n, values in ((1, range(3)), (2, range(3)), (3, range(2))):
        for entries in product(values, repeat=n * n):
            yield Matrix([entries[i * n:(i + 1) * n] for i in range(n)])


def _definition_corpus():
    """The small nonnegative matrices, and the generators' and positive
    Jacobi matrices for n = 1..7, seeds 0..14."""
    yield from _small_nonnegative_matrices()
    for n in range(1, 8):
        for seed in range(15):
            yield from (random_oscillatory(n, seed), random_tnn(n, seed),
                        random_positive_tnn(n, seed))
            rng = SplitMix64(seed)
            yield jacobi_matrix(JacobiSpec(
                [2 + rng.below(5) for _ in range(n)],
                [1 + rng.below(2) for _ in range(n - 1)],
                [1 + rng.below(2) for _ in range(n - 1)]))


def test_definition_matches_the_exponent_loop():
    """Testing M^(n-1) alone answers as the loop over powers 1..n-1 does,
    on a corpus whose least strictly totally positive powers reach 2..n-1."""
    least = set()
    for m in _definition_corpus():
        exponent = _least_strict_power_by_loop(m)
        assert is_oscillatory_by_definition(m) == (exponent is not None), m
        least.add(exponent)
    assert set(range(1, 7)) <= least and None in least, least


def test_definitional_route_certifies_within_size_cap():
    assert is_oscillatory_by_definition(random_oscillatory(4, 2))


# -- corner conditions -------------------------------------------------------------


def test_corner_conditions_frozen():
    cc = check_corner_conditions(Matrix([[1, 1], [0, 1]]))
    assert cc.left == ((2, 2),) and cc.right == ((1, 1),)
    assert cc.holds
    eye = check_corner_conditions(identity(2))
    assert eye.left == (None,) and eye.right == (None,)
    assert eye.failing_indices("left") == eye.failing_indices("right") == (1,)
    assert not eye.holds


def test_corner_conditions_reject_an_unknown_side():
    cc = check_corner_conditions(Matrix([[1, 1], [0, 1]]))
    for side in ("Left", "RIGHT", "both", ""):
        with pytest.raises(ValueError, match="side must be"):
            cc.failing_indices(side)


def test_corner_conditions_all_positive_matrix():
    cc = check_corner_conditions(Matrix([[1, 1], [1, 1]]))
    assert cc.left == ((1, 1),) and cc.right == ((1, 1),)


def _corner_corpus():
    """The small nonnegative matrices, and seeded nonnegative n <= 7
    matrices with zeros and 1/3 entries."""
    yield from _small_nonnegative_matrices()
    for n in range(1, 8):
        for seed in range(40):
            m = random_rational_matrix(n, seed, span=3, denominators=(1, 1, 3))
            yield Matrix([[abs(x) for x in row] for row in m.rows])
            yield Matrix([[max(x, 0) for x in row] for row in m.rows])


def test_corner_walk_matches_the_four_products():
    """One walk over the form and over its transpose gives both sides, as
    the four corner products define them."""
    holds, sides_differ = set(), False
    for m in _corner_corpus():
        cc = check_corner_conditions(m)
        assert (cc.left, cc.right) == corner_conditions_by_products(m), m
        # substituting r -> n+1-r turns the products of left index i into
        # those of right index n-i, so the sides fail at mirrored indices
        mirrored = tuple(m.n - i for i in reversed(cc.failing_indices("left")))
        assert cc.failing_indices("right") == mirrored, m
        assert cc.holds == (not cc.failing_indices("left")), m
        if m.n > 1:
            holds.add(cc.holds)
        sides_differ |= cc.left != cc.right
    assert holds == {True, False} and sides_differ


def test_corner_conditions_require_nonnegative_entries():
    with pytest.raises(NonnegativityViolated):
        check_corner_conditions(Matrix([[1, -1], [1, 1]]))
    with pytest.raises(NonnegativityViolated, match=r"entry \(2,1\) = -1/3 is negative"):
        check_corner_conditions(Matrix([[1, F(1, 2)], [F(-1, 3), 1]]))


def test_corner_conditions_vacuous_for_size_one():
    cc = check_corner_conditions(Matrix([[5]]))
    assert cc.left == () and cc.right == ()
    assert cc.holds


def test_bidiagonal_upper_satisfies_left_corner_condition():
    for n, seed in ((2, 1), (3, 2), (4, 3), (5, 4)):
        d = [1 + (seed + k) % 3 for k in range(n)]
        e = [1 + (seed + k) % 2 for k in range(n - 1)]
        cc = check_corner_conditions(bidiagonal_upper(d, e))
        assert cc.holds, (n, seed)


# -- flip certificate -------------------------------------------------------------


def test_jflip_certificate_passes_on_upper_unitriangular():
    cert = jflip_si_certificate(Matrix([[1, 1], [0, 1]]))
    assert cert.passed and cert.failed_stage is None
    assert [s.status for s in cert.stages] == ["pass"] * 6
    assert cert.flipped == Matrix([[0, 1], [1, 1]])
    assert cert.classification.power_exponent == 2
    assert cert.spectrum.verdict is SpectrumVerdict.KIND_I


def test_jflip_certificate_right_side():
    cert = jflip_si_certificate(Matrix([[1, 1], [0, 1]]), side="right")
    assert cert.passed
    assert cert.flipped == Matrix([[1, 1], [1, 0]])
    assert cert.spectrum.verdict is SpectrumVerdict.KIND_I


def test_jflip_certificate_stops_at_first_failure():
    cert = jflip_si_certificate(Matrix([[1, 2], [3, 4]]))
    assert not cert.passed and cert.failed_stage == "totally_nonnegative"
    assert [s.status for s in cert.stages] == ["fail"] + ["skipped"] * 5
    assert cert.classification is None and cert.spectrum is None

    singular = jflip_si_certificate(Matrix([[1, 1], [1, 1]]))
    assert singular.failed_stage == "nonsingular"
    assert [s.status for s in singular.stages] == \
        ["pass", "fail", "skipped", "skipped", "skipped", "skipped"]

    eye = jflip_si_certificate(identity(3))
    assert eye.failed_stage == "corner_conditions"
    assert "no witness" in [s for s in eye.stages if s.status == "fail"][0].detail


JFLIP_ALL_PASS = [
    ("totally_nonnegative", "pass", ""),
    ("nonsingular", "pass", "determinant = 1"),
    ("corner_conditions", "pass", ""),
    ("flip_square_oscillatory", "pass", ""),
    ("sign_classification", "pass", "class n+ at power 2"),
    ("spectrum", "pass", "kind I, 2 real roots"),
]


def _fails_at(k, detail):
    """Stages 1..k-1 as in a passing run, stage k failing, the rest skipped."""
    return (JFLIP_ALL_PASS[:k - 1] + [(JFLIP_ALL_PASS[k - 1][0], "fail", detail)]
            + [(name, "skipped", "") for name, _, _ in JFLIP_ALL_PASS[k:]])


JFLIP_GOLDEN = [
    # (A, keyword arguments, stages, classification set, spectrum set)
    # the least strict power of the flip is the deciding exponent 2(n-1)
    (Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), {},
     JFLIP_ALL_PASS[:4] + [("sign_classification", "pass", "class n+ at power 4"),
                           ("spectrum", "pass", "kind I, 3 real roots")], True, True),
    (Matrix([[1, 2], [3, 4]]), {},
     _fails_at(1, "minor rows=(1, 2) cols=(1, 2) = -2"), False, False),
    (Matrix([[1, 1], [1, 1]]), {}, _fails_at(2, "determinant = 0"), False, False),
    (identity(3), {}, _fails_at(3, "no witness for i in (1, 2)"), False, False),
    (Matrix([[1, 1], [0, 1]]), {}, JFLIP_ALL_PASS, True, True),
    (Matrix([[1, 1], [0, 1]]), {"side": "right"}, JFLIP_ALL_PASS, True, True),
]


@pytest.mark.parametrize("m, kwargs, stages, has_cls, has_spectrum", JFLIP_GOLDEN)
def test_jflip_certificate_stage_lists_are_pinned(m, kwargs, stages, has_cls,
                                                  has_spectrum):
    cert = jflip_si_certificate(m, **kwargs)
    assert [(s.name, s.status, s.detail) for s in cert.stages] == stages
    assert (cert.classification is not None) == has_cls
    assert (cert.spectrum is not None) == has_spectrum


def test_jflip_certificate_records_forged_late_failures(monkeypatch):
    """The last three stages cannot fail once the first three pass, so each
    failure is forged: the failing stage's detail is recorded, later stages
    are skipped, and the certificate holds the results of the stages run."""
    a = Matrix([[1, 1], [0, 1]])
    mixed = classify_sign_definite(Matrix([[1, -1], [1, 1]]))
    positive = classify_sign_definite(Matrix([[2, 1], [1, 1]]))
    neither = spectrum_report(Matrix([[1, 0], [0, 2]]))
    assert not mixed.is_class_n_plus
    assert positive.is_class_n_plus and positive.signature == (1, 1)
    forgeries = [
        (classification, "is_oscillatory", lambda m: False, 4,
         "square of the flip fails the oscillation criterion"),
        (classification, "classify_sign_definite", lambda m: mixed, 5,
         f"verdict {mixed.verdict.value} (power cap {mixed.power_cap})"),
        (classification, "classify_sign_definite", lambda m: positive, 5,
         "signature (1, 1) != expected (1, -1)"),
        (spectra, "spectrum_report", lambda m, width_bound: neither, 6,
         "verdict neither"),
    ]
    for module, name, forged, k, detail in forgeries:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, forged)
            cert = jflip_si_certificate(a)
        assert [(s.name, s.status, s.detail) for s in cert.stages] == _fails_at(k, detail)
        assert not cert.passed and cert.failed_stage == JFLIP_ALL_PASS[k - 1][0]
        if k == 4:
            assert cert.classification is None and cert.spectrum is None
        elif k == 5:
            assert cert.classification is forged(a) and cert.spectrum is None
        else:
            assert cert.classification.is_class_n_plus and cert.spectrum is neither


def test_jflip_certificate_rejects_unknown_side():
    with pytest.raises(ValueError):
        jflip_si_certificate(identity(2), side="up")


def test_jflip_certificate_checks_arguments_before_any_stage():
    for m in (Matrix([[1, 2], [3, 4]]), Matrix([[1, 1], [0, 1]])):
        for bound in (0, F(-1, 2)):
            with pytest.raises(PositivityViolated):
                jflip_si_certificate(m, width_bound=bound)


def test_matrices_polynomials_and_reports_copy_and_pickle():
    """Each round trip rebuilds from the stored state: a matrix and a
    polynomial from their integer forms; the Fraction view and the Sturm
    chain, both caches, stay behind, and the chain rebuilds equal. A minor's
    submatrix, as the trusted constructor builds it, cannot be told from the
    checked constructor's matrix."""
    cert = jflip_si_certificate(random_positive_tnn(4, 5))
    m, p = cert.flipped * cert.flipped, cert.spectrum.char_poly
    assert m.rows and p._chain is not None
    d, b = m._form
    sel = MinorSelector((1, 3), (2, 4))
    sub = Matrix._trusted(d, tuple(tuple(b[i - 1][j - 1] for j in sel.cols) for i in sel.rows))
    built = Matrix([[m[i, j] for j in sel.cols] for i in sel.rows])
    assert not hasattr(sub, "_rows")  # the view is built on first read
    assert sub == built and hash(sub) == hash(built) and repr(sub) == repr(built)
    assert sub._rows == built.rows and sub.det() == m.minor(sel)
    for obj, name, value in ((sub, "n", 3), (sub, "_rows", None), (sub, "_form", (1, ())),
                             (sel, "rows", (1,)), (sel, "cols", (1,))):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    for obj in (m, p, cert.spectrum, cert, sub, sel):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj
    for mat in (m, sub):
        for twin in (copy.deepcopy(mat), pickle.loads(pickle.dumps(mat))):
            assert twin._form == mat._form and not hasattr(twin, "_rows")
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin._form == p._form and twin._chain is None
        assert _sturm_chain(twin) == p._chain and twin._chain is not None


# -- tridiagonal criteria ------------------------------------------------------------


def test_jacobi_criteria_frozen():
    good = JacobiSpec((2, 2), (1,), (1,))
    assert jacobi_oscillatory_criterion(good)
    assert anti_tridiagonal_criterion(good)
    boundary = JacobiSpec((1, 1), (1,), (1,))  # second leading minor is 0
    assert not jacobi_oscillatory_criterion(boundary)
    assert not anti_tridiagonal_criterion(boundary)
    with pytest.raises(PositivityViolated):
        jacobi_oscillatory_criterion(JacobiSpec((1, 1), (0,), (1,)))
    with pytest.raises(PositivityViolated):
        anti_tridiagonal_criterion(JacobiSpec((1, 1), (1,), (-1,)))


def test_jacobi_criterion_matches_leading_minors_exhaustively():
    """Every spec of size 1..4 with diagonal entries in {-1, 0, 1/2, 1, 3}
    and each (b_k, c_k) in {(1, 1/2), (2, 1)}: the continuants against one
    determinant per order, on 1,450 specs with a zero Δ_k before the last."""
    diagonal = (F(-1), F(0), F(1, 2), F(1), F(3))
    ladders = ((F(1), F(1, 2)), (F(2), F(1)))
    specs = zeros = oscillatory = 0
    for n in range(1, 5):
        for diag in product(diagonal, repeat=n):
            for pairs in product(ladders, repeat=n - 1):
                spec = JacobiSpec(diag, tuple(b for b, _ in pairs), tuple(c for _, c in pairs))
                m = jacobi_matrix(spec)
                minors = [m.leading_principal_minor(k) for k in range(1, n + 1)]
                want = all(d > 0 for d in minors)
                assert jacobi_oscillatory_criterion(spec) is want, spec
                specs, zeros, oscillatory = specs + 1, zeros + (0 in minors[:-1]), oscillatory + want
    assert (specs, zeros, oscillatory) == (5555, 1450, 126)


def test_jacobi_criterion_matches_cofactor_minors_on_small_integer_specs():
    """Every spec of size 1..4 with diagonal entries in -1..2 and each b_k
    and c_k in 1..2, 17,476 in all, 7,104 of them with a zero minor before
    the last: the criterion against the leading principal minors by
    cofactor expansion, which reads no kernel."""
    specs = oscillatory = 0
    for n in range(1, 5):
        for diag in product(range(-1, 3), repeat=n):
            for sup in product((1, 2), repeat=n - 1):
                for sub in product((1, 2), repeat=n - 1):
                    spec = JacobiSpec(diag, sup, sub)
                    m = jacobi_matrix(spec)
                    want = all(cofactor_det(m.submatrix(MinorSelector(range(1, k + 1),
                                                                      range(1, k + 1)))) > 0
                               for k in range(1, n + 1))
                    assert jacobi_oscillatory_criterion(spec) is want, spec
                    specs, oscillatory = specs + 1, oscillatory + want
    assert (specs, oscillatory) == (17476, 23)


def test_jacobi_criterion_takes_no_determinant(monkeypatch):
    def eliminating(*args):
        raise AssertionError("the continuants need no elimination")

    monkeypatch.setattr(Matrix, "det", eliminating)
    monkeypatch.setattr(matrices, "_bareiss", eliminating)
    assert jacobi_oscillatory_criterion(JacobiSpec((3,) * 200, (1,) * 199, (1,) * 199))
    assert not jacobi_oscillatory_criterion(JacobiSpec((1, 1, 5), (1, 2), (1, 1)))


def test_jacobi_criteria_agree_on_random_specs():
    from interlace import SplitMix64

    rng = SplitMix64(71)
    for trial in range(40):
        n = 2 + rng.below(4)
        spec = JacobiSpec(
            tuple(F(rng.below(5), 1 + rng.below(2)) for _ in range(n)),
            tuple(F(1 + rng.below(4), 1 + rng.below(2)) for _ in range(n - 1)),
            tuple(F(1 + rng.below(4), 1 + rng.below(2)) for _ in range(n - 1)))
        assert jacobi_oscillatory_criterion(spec) == \
            anti_tridiagonal_criterion(spec), (trial, spec)


def test_jacobi_criterion_matches_oscillation_of_the_tridiagonal():
    from interlace import SplitMix64, jacobi_matrix

    rng = SplitMix64(73)
    for trial in range(20):
        n = 2 + rng.below(3)
        spec = JacobiSpec(
            tuple(F(rng.below(4), 1) for _ in range(n)),
            tuple(F(1 + rng.below(3)) for _ in range(n - 1)),
            tuple(F(1 + rng.below(3)) for _ in range(n - 1)))
        assert jacobi_oscillatory_criterion(spec) == \
            is_oscillatory(jacobi_matrix(spec)), (trial, spec)
        assert jacobi_oscillatory_criterion(spec) == \
            is_oscillatory_by_definition(jacobi_matrix(spec)), (trial, spec)
