"""Exact matrix core: determinants, minors, flips, characteristic polynomials;
the input checks of the value types and the document builder."""

import copy
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, product
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    AntiBidiagonalSpec,
    DegreeZero,
    DimensionMismatch,
    InvalidSelector,
    JacobiSpec,
    Matrix,
    MinorSelector,
    ParseError,
    Polynomial,
    SplitMix64,
    ZeroPolynomial,
    anti_bidiagonal,
    anti_identity,
    anti_jacobi,
    equivalent_tridiagonal,
    flip_cols,
    flip_rows,
    hurwitz_matrix,
    identity,
    jacobi_matrix,
    matrices,
    random_positive_tnn,
    si_twist,
)
from interlace.documents import build_structured
from interlace.matrices import _bareiss, as_fraction
from conftest import (
    berkowitz_charpoly,
    cofactor_det,
    entrywise,
    faddeev_leverrier_charpoly,
    fraction_horner,
    fraction_matmul,
    integer_minors,
    random_int_matrix,
    random_rational_matrix,
)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Matrix([])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2, 3], [4, 5, 6]])


def test_entries_are_exact_and_floats_rejected():
    m = Matrix([["0.25", "3/7"], [2, F(1, 3)]])
    assert m[1, 1] == F(1, 4)
    assert m[1, 2] == F(3, 7)
    assert repr(m) == "Matrix(2x2: 1/4 3/7; 2 1/3)"
    with pytest.raises(TypeError):
        Matrix([[0.5, 1], [1, 1]])


def _set_degree(p):
    p.degree = 0


@pytest.mark.parametrize("call, error, match", [
    (lambda: as_fraction(None), TypeError, "cannot interpret None as an exact rational"),
    (lambda: identity(2).submatrix(MinorSelector((1, 3), (1, 2))), InvalidSelector,
     "exceeds size 2"),
    (lambda: identity(0), DimensionMismatch, "size must be >= 1"),
    (lambda: _set_degree(Polynomial([1, 2])), AttributeError, "Polynomial is immutable"),
    (lambda: Polynomial([0]).monic(), ZeroPolynomial, "cannot be made monic"),
    (lambda: si_twist(Polynomial([0])), ZeroPolynomial, "cannot twist the zero polynomial"),
    (lambda: hurwitz_matrix(Polynomial([5])), DegreeZero, "needs degree >= 1"),
    (lambda: build_structured("general", {}), ParseError,
     "'general' cannot be built from parameters"),
])
def test_input_checks_raise_before_any_work(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_as_fraction_returns_a_fraction_unchanged():
    x = F(7, 3)
    assert as_fraction(x) is x
    assert as_fraction(3) == 3 and type(as_fraction(3)) is F
    assert as_fraction(True) == 1 and type(as_fraction(True)) is F
    for bad in (0.5, float("nan")):
        with pytest.raises(TypeError):
            as_fraction(bad)


@pytest.mark.parametrize("product", [
    lambda: 2 * identity(2),
    lambda: identity(2) * F(1, 2),
    lambda: identity(2) * Polynomial([1]),
    lambda: Polynomial([1, 2]) * 3,
    lambda: F(1, 2) * Polynomial([1, 2]),
    lambda: Polynomial([1]) * identity(2),
])
def test_products_with_another_operand_type_raise_type_error(product):
    """Matrices multiply matrices and polynomials multiply polynomials; any
    other operand is refused by both sides of *, not scaled."""
    with pytest.raises(TypeError, match="unsupported operand type"):
        product()


def test_indexing_is_one_based_and_checked():
    m = Matrix([[1, 2], [3, 4]])
    assert m[1, 2] == 2 and m[2, 1] == 3
    for bad in ((0, 1), (1, 3), (3, 1)):
        with pytest.raises(InvalidSelector):
            m[bad]


def test_matrix_is_immutable():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.n = 3
    m.det(), m.rows  # after a kernel and the view have run, assignment still raises
    for name, value in (("n", 3), ("rows", ((F(1),),)), ("_form", (1, ((1,),))),
                        ("_rows", None)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert m == identity(2) and m.det() == 1


def test_cached_integer_form_is_not_consumed():
    """Every kernel reads the one stored form: repeating a call, or running
    another kernel after it, gives what a fresh matrix gives."""
    for seed in range(12):
        n = 1 + seed % 6
        m = random_rational_matrix(n, 600 + seed)
        det, charpoly = m.det(), m.charpoly()
        assert m.det() == det == cofactor_det(m)
        assert m.charpoly() == charpoly == faddeev_leverrier_charpoly(m)
        fresh = Matrix(m.rows)
        for k in range(1, n + 1):
            assert list(m.minors(k)) == list(fresh.minors(k))
        assert m.det() == det and m.charpoly() == charpoly


def test_equality_and_hash_ignore_the_cached_form():
    for seed in range(6):
        m = random_rational_matrix(1 + seed % 5, 700 + seed)
        twin = Matrix(m.rows)
        assert m == twin and hash(m) == hash(twin)
        m.det()
        assert m == twin and hash(m) == hash(twin)


def test_determinant_frozen_values():
    assert identity(4).det() == 1
    assert Matrix([[1, 2], [3, 4]]).det() == -2
    assert Matrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]).det() == F(1, 210)
    # forced pivot swap: leading zero entry
    assert Matrix([[0, 1], [1, 0]]).det() == -1
    assert Matrix([[0, 2, 1], [1, 1, 1], [2, 0, 3]]).det() == -4


_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _prime_row_matrix(n: int, seed: int, zero_row=None) -> Matrix:
    """Row i carries powers of the i-th prime as denominators, so the common
    denominator of the matrix differs from the lcm of every single row."""
    rng = SplitMix64(seed)
    return Matrix([[0 if i == zero_row else
                    F(rng.below(9) - 4, _PRIMES[i] ** (1 + j % 2)) for j in range(n)]
                   for i in range(n)])


def test_determinant_matches_cofactor_oracle():
    cases = [random_rational_matrix(1 + seed % 5, seed) for seed in range(40)]
    for n in range(1, 8):
        for seed in range(3):
            cases.append(_prime_row_matrix(n, 100 * n + seed))
            cases.append(_prime_row_matrix(n, 100 * n + seed, zero_row=seed % n))
    for m in cases:
        assert m.det() == cofactor_det(m), m


def test_closed_form_determinants_match_bareiss_and_cofactors():
    """Orders 1-5 never reach Bareiss through ``det``; check the closed
    forms against it, called directly, and against cofactors: every 2x2 and
    3x3 matrix with entries in {-1, 0, 1}, seeded 4x4 and 5x5 ones, and
    prime-row denominators (D != 1), with zero rows (singular)."""
    cases = [Matrix([[x]]) for x in (-1, 0, 1, F(-3, 7))]
    for n in (2, 3):
        cases += [Matrix([flat[i:i + n] for i in range(0, n * n, n)])
                  for flat in product((-1, 0, 1), repeat=n * n)]
    cases += [random_int_matrix(n, seed, -1, 1) for n in (4, 5) for seed in range(300)]
    cases += [random_rational_matrix(n, seed) for n in (4, 5) for seed in range(100)]
    cases += [_prime_row_matrix(n, 1100 * n + seed, zero_row=zero_row)
              for n in range(1, 6) for seed in range(8) for zero_row in (None, seed % n)]
    # a zero (1,1) entry forces Bareiss into its row exchange
    cases += [Matrix([[0, 1], [2, 3]]), Matrix([[0, 2, 1], [1, 1, 1], [2, 0, 3]]),
              Matrix([[0, 1, 2, 3], [1, 0, 1, 1], [2, 1, 0, 5], [3, 4, 1, 0]]),
              Matrix([[0, F(1, 2), 1], [0, 1, F(2, 3)], [3, 0, 1]]),
              Matrix([[0, 1, 2, 3, 4], [1, 0, 1, 1, 2], [2, 1, 0, 5, 1],
                      [3, 4, 1, 0, 2], [1, 1, 2, 3, 0]])]
    # order 5: D != 1, and singular with no zero row (row 5 = row 1 + row 2)
    cases += [Matrix([[F(1, 2), 1, F(2, 3), 0, 3], [1, F(3, 4), 2, 1, F(1, 5)],
                      [0, 2, 1, F(5, 6), 1], [F(7, 3), 1, 0, 2, 1], [1, 1, 1, F(1, 9), 2]]),
              Matrix([[1, 2, 0, 3, 1], [2, 1, 1, 0, 4], [0, 3, 1, 2, 2],
                      [1, 0, 2, 1, 3], [3, 3, 1, 3, 5]])]
    assert sum(m._form[0] != 1 for m in cases) >= 60
    assert cases[-1].det() == 0 and cases[-2]._form[0] != 1
    for m in cases:
        d, b = m._form
        bareiss = F(_bareiss([list(row) for row in b]), d ** m.n)
        assert m.det() == bareiss == cofactor_det(m), m


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-4, 4, max_denominator=7), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_determinant_matches_cofactor_oracle_property(rows):
    m = Matrix(rows)
    assert m.det() == cofactor_det(m)


def _fraction_fields(x: F) -> tuple:
    return type(x), x.numerator, x.denominator, hash(x), str(x)


def test_fraction_keeps_the_two_slots_det_sets():
    assert F.__slots__ == ("_numerator", "_denominator"), (
        "Matrix.det builds its Fraction by setting these two slots through "
        "their bound descriptor setters, without Fraction.__new__; a "
        "Fraction with other slots needs det changed to match")


def test_det_fractions_are_in_lowest_terms():
    """Zero, negative and reducible values over D = 1 and D > 1, and every
    minor of streams whose slices keep the parent's D (so D^k and the
    minor's integer value often share factors)."""
    cases = [Matrix([[F(1, 2), F(1, 3)], [F(1, 2), F(1, 3)]]),  # zero, D = 6
             Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]]),  # -1/2 from -2/4
             Matrix([[F(2, 3), 0], [0, F(3, 2)]]),  # 1 from 36/36
             Matrix([[0, 1], [1, 0]]), Matrix([[0]]), Matrix([[F(-4, 6)]])]
    cases += [_prime_row_matrix(n, 1300 + n, zero_row=n // 2) for n in range(1, 7)]
    for m in cases:
        d, b = m._form
        want = F(_bareiss([list(row) for row in b]), d ** m.n)
        assert _fraction_fields(m.det()) == _fraction_fields(want) == _fraction_fields(
            cofactor_det(m)), m
    for m in (_prime_row_matrix(4, 1310), Matrix([[F(1, 6), F(1, 2), 1], [F(1, 3), 0, 2],
                                                   [F(5, 6), F(1, 2), F(1, 3)]])):
        d, b = m._form
        for k in range(1, m.n + 1):
            for sel, value in m.minors(k):
                sub = [[b[i - 1][j - 1] for j in sel.cols] for i in sel.rows]
                assert _fraction_fields(value) == _fraction_fields(F(_bareiss(sub), d ** k))


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    st.sampled_from(("as drawn", "negated first row", "repeated row")))))
def test_det_fraction_matches_the_fraction_constructor_property(case):
    """Orders 1-4 (closed forms) and 5-6 (Bareiss), integer and rational
    entries: the Fraction ``det`` fills in itself cannot be told from
    ``Fraction(v, D ** n)`` or from the cofactor oracle, by type,
    numerator, denominator, hash or str, zero and negative values
    included."""
    rows, variant = case
    if variant == "negated first row":
        rows[0] = [-x for x in rows[0]]
    elif variant == "repeated row" and len(rows) > 1:
        rows[-1] = rows[0]
    m = Matrix(rows)
    d, b = m._form
    want = F(_bareiss([list(row) for row in b]), d ** m.n)
    assert _fraction_fields(m.det()) == _fraction_fields(want) == _fraction_fields(
        cofactor_det(m)), m


def _leading_minors_by_cofactors(m: Matrix) -> tuple[F, ...]:
    return tuple(cofactor_det(Matrix([row[:k] for row in m.rows[:k]]))
                 for k in range(1, m.n + 1))


def test_leading_principal_minors_match_cofactor_oracle():
    cases = [random_rational_matrix(1 + seed % 6, 900 + seed) for seed in range(60)]
    cases += [_prime_row_matrix(n, 300 + n) for n in range(1, 7)]
    # zero leading minors first (two flips), in the middle and last, and the
    # Hurwitz matrix of z^3 + z^2 + z + 1, roots on the imaginary axis
    cases += [Matrix([[0, 1], [1, 0]]), Matrix([[1, 1, 2], [1, 1, 3], [4, 5, 6]]),
              Matrix([[1, 2], [2, 4]]), Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
              Matrix([[1, 1, 0], [1, 1, 0], [0, 1, 1]])]
    zero_pivots = 0
    for m in cases:
        expected = _leading_minors_by_cofactors(m)
        assert expected == tuple(m.leading_principal_minor(k) for k in range(1, m.n + 1))
        zero_pivots += 0 in expected[:-1]
    assert zero_pivots >= 5


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 3)]), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_leading_principal_minors_match_cofactor_oracle_property(rows):
    m = Matrix(rows)
    by_order = tuple(m.leading_principal_minor(k) for k in range(1, m.n + 1))
    assert by_order == _leading_minors_by_cofactors(m)


def test_determinant_of_singular_matrices_is_zero():
    for seed in range(10):
        n = 2 + seed % 3
        m = random_int_matrix(n, seed)
        rows = [list(r) for r in m.rows]
        rows[-1] = rows[0]  # duplicate row
        dup = Matrix(rows)
        assert dup.det() == 0
        assert cofactor_det(dup) == 0


def test_minor_selector_validation():
    with pytest.raises(InvalidSelector):
        MinorSelector((2, 1), (1, 2))
    with pytest.raises(InvalidSelector):
        MinorSelector((1, 1), (1, 2))
    with pytest.raises(InvalidSelector):
        MinorSelector((0, 1), (1, 2))
    with pytest.raises(InvalidSelector):
        MinorSelector((1, 2), (1,))


def test_minor_selector_is_a_slotted_frozen_record():
    sel = MinorSelector([1, 2], (1, 3))
    assert repr(sel) == "MinorSelector(rows=(1, 2), cols=(1, 3))"
    assert type(sel.rows) is tuple and sel.order == 2
    twin, other = MinorSelector((1, 2), (1, 3)), MinorSelector((1, 2), (1, 4))
    assert sel == twin and hash(sel) == hash(twin)
    assert sel != other and sel != ((1, 2), (1, 3))
    assert len({sel, twin, other}) == 2
    for name, value in (("rows", (1, 3)), ("cols", (2, 3)), ("extra", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(sel, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(sel, name)
    assert not hasattr(sel, "__dict__") and MinorSelector.__slots__ == ("rows", "cols")
    streamed = [s for s, _ in random_int_matrix(3, 3).minors(2)]
    for obj in (sel, *streamed):
        twins = [pickle.loads(pickle.dumps(obj, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*twins, copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is MinorSelector and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)


def test_stream_selectors_equal_validated_selectors():
    """Selectors that ``minors`` builds without validation are the ones the
    public constructor builds."""
    for n in range(1, 7):
        m = random_int_matrix(n, 40 + n)
        for k in range(1, n + 1):
            for sel, _ in m.minors(k):
                checked = MinorSelector(sel.rows, sel.cols)
                assert sel == checked and hash(sel) == hash(checked)
                assert type(sel.rows) is tuple and type(sel.cols) is tuple
                assert sel.order == k


def test_full_order_minor_equals_determinant():
    for seed in range(8):
        n = 2 + seed % 4
        m = random_rational_matrix(n, seed + 100)
        sel = MinorSelector(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        assert m.minor(sel) == m.det()


def test_minor_enumeration_is_lexicographic_and_complete():
    m = random_int_matrix(4, 7)
    seen = [sel for sel, _ in m.minors(2)]
    expected = []
    for rows in combinations(range(1, 5), 2):
        for cols in combinations(range(1, 5), 2):
            expected.append(MinorSelector(rows, cols))
    assert seen == expected
    # counts for every order: C(n,k)^2
    for k, want in ((1, 16), (2, 36), (3, 16), (4, 1)):
        assert sum(1 for _ in m.minors(k)) == want


def _fresh_minors(m: Matrix, k: int):
    """Selectors from ``combinations`` valued by cofactors of a new Matrix."""
    picks = list(combinations(range(1, m.n + 1), k))
    return [(MinorSelector(rows, cols),
             cofactor_det(Matrix([[m[i, j] for j in cols] for i in rows])))
            for rows in picks for cols in picks]


def test_minor_values_match_cofactor_oracle():
    """Every order of the stream: same selectors in the same order, and
    values of slices of the parent's integer form equal to cofactors."""
    cases = [random_rational_matrix(4, 11)]
    cases += [random_rational_matrix(n, 800 + n) for n in range(1, 6)]
    cases += [_prime_row_matrix(n, 900 + n, zero_row=n // 2) for n in range(1, 6)]
    cases += [flip_rows(random_positive_tnn(n, n)) for n in range(1, 6)]
    for m in cases:
        for k in range(1, m.n + 1):
            assert list(m.minors(k)) == _fresh_minors(m, k), (m, k)
        # the integer-row oracle agrees with the Fraction one
        if all(x.denominator == 1 for row in m.rows for x in row):
            fresh = [pair for k in range(1, m.n + 1) for pair in _fresh_minors(m, k)]
            assert integer_minors([[int(x) for x in row] for row in m.rows]) == fresh, m


def test_minor_values_match_cofactor_oracle_on_every_3x3_over_signs():
    """Every 3x3 matrix over {-1, 0, 1}, every order: the selectors come in
    ``combinations`` order, and each value is ``cofactor_det`` of the same
    selection (memoized on its entries, which repeat across matrices)."""
    picks = [list(combinations(range(3), k)) for k in (1, 2, 3)]
    # per order: (selector, row-major flat indices of the selected entries)
    selections = [[(MinorSelector(tuple(i + 1 for i in r), tuple(j + 1 for j in c)),
                    [3 * i + j for i in r for j in c]) for r in p for c in p] for p in picks]

    @lru_cache(maxsize=None)
    def oracle(entries):
        k = isqrt(len(entries))
        return cofactor_det(Matrix([entries[i:i + k] for i in range(0, k * k, k)]))

    for flat in product((-1, 0, 1), repeat=9):
        m = Matrix([flat[:3], flat[3:6], flat[6:]])
        for k, sels in zip((1, 2, 3), selections):
            expected = [(sel, oracle(tuple(map(flat.__getitem__, idx)))) for sel, idx in sels]
            assert list(m.minors(k)) == expected, (flat, k)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.integers(1, n))))
def test_minor_values_match_cofactor_oracle_property(case):
    """Integer and rational entries, zeros and negative ones included."""
    rows, k = case
    m = Matrix(rows)
    assert list(m.minors(k)) == _fresh_minors(m, k), (m, k)


def test_each_minor_is_its_own_det_call(monkeypatch):
    """``minors(k)`` of an n x n matrix makes exactly C(n,k)^2 ``det``
    calls, each on a k x k matrix, and yields as many pairs."""
    calls, det = [], Matrix.det

    def counted(self):
        calls.append(self.n)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counted)
    for n in range(1, 6):
        m = random_rational_matrix(n, 1000 + n)
        for k in range(1, n + 1):
            calls.clear()
            pairs = list(m.minors(k))
            assert len(pairs) == len(calls) == comb(n, k) ** 2, (n, k)
            assert set(calls) == {k}, (n, k)


def test_abandoned_streams_retain_no_selection_table():
    """Reading one minor from each order-2 stream of n = 28..91 builds 64
    selection tables of C(n, 2) <= 4,095 entries, 122,304 in all, and an
    abandoned stream drops its table: kept, they would hold about 28 MB."""
    cases = [identity(n) for n in range(28, 92)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in cases:
            sel, value = next(m.minors(2))
            assert (sel.rows, sel.cols, value) == ((1, 2), (1, 2), 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained


def test_an_abandoned_stream_restarts_from_its_first_minor():
    m = _prime_row_matrix(5, 1400)
    for k in range(1, 6):
        stream = m.minors(k)
        first = next(stream)
        stream.close()
        again = list(m.minors(k))
        assert again[0] == first and again == _fresh_minors(m, k), k


def test_submatrix_matches_a_fresh_matrix_despite_the_parent_denominator():
    """The unselected entries carry denominators 7, 11 and 13, so the slice
    keeps a D that its own entries do not need."""
    m = Matrix([[F(1, 2), F(-3, 4), F(1, 7), F(5, 1)],
                [F(2, 11), F(1, 13), F(9, 7), F(2, 3)],
                [F(-5, 2), F(3, 1), F(4, 13), F(1, 6)],
                [F(7, 4), F(0), F(3, 11), F(-1, 3)]])
    sel = MinorSelector((1, 3, 4), (1, 2, 4))
    sub = m.submatrix(sel)
    fresh = Matrix([[F(1, 2), F(-3, 4), F(5, 1)],
                    [F(-5, 2), F(3, 1), F(1, 6)],
                    [F(7, 4), F(0), F(-1, 3)]])
    assert sub._form[0] == m._form[0] != fresh._form[0]
    assert sub == fresh and hash(sub) == hash(fresh)
    assert sub.det() == fresh.det() == cofactor_det(fresh) == m.minor(sel)
    assert sub.charpoly() == fresh.charpoly() == faddeev_leverrier_charpoly(fresh)
    for k in (1, 2, 3):
        assert list(sub.minors(k)) == _fresh_minors(fresh, k)


def test_minor_order_bounds():
    m = identity(3)
    for bad in (0, 4):
        with pytest.raises(InvalidSelector):
            list(m.minors(bad))


def test_anti_identity_and_flips():
    j3 = anti_identity(3)
    assert j3.rows == Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).rows
    assert j3.det() == -1
    # det J_n = (-1)^(n(n-1)/2)
    for n in range(1, 9):
        assert anti_identity(n).det() == (-1) ** (n * (n - 1) // 2)
    for seed in range(6):
        n = 2 + seed % 4
        m = random_rational_matrix(n, seed + 50)
        j = anti_identity(n)
        assert flip_rows(m) == j * m
        assert flip_cols(m) == m * j
        assert flip_rows(flip_rows(m)) == m
        assert flip_cols(flip_cols(m)) == m


def test_matmul_and_power():
    a = Matrix([[1, 1], [0, 1]])
    assert (a * a).rows == Matrix([[1, 2], [0, 1]]).rows
    assert (a ** 0) == identity(2)
    assert (a ** 1) == a
    assert (a ** 5) == Matrix([[1, 5], [0, 1]])
    with pytest.raises(DimensionMismatch):
        a * identity(3)
    with pytest.raises(ValueError):
        a ** -1


def test_power_makes_only_binary_powering_products(monkeypatch):
    """m ** e squares bit_length(e) - 1 times and multiplies popcount(e) - 1
    partial products, starting from the first factor, not the identity."""
    m = Matrix([[1, F(1, 2), 0], [2, -1, 3], [F(1, 3), 0, 1]])
    repeated = [identity(3)]
    for _ in range(8):
        repeated.append(repeated[-1] * m)
    products = []
    product_of = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: products.append(1) or product_of(a, b))
    for e in range(9):
        products.clear()
        assert m ** e == repeated[e], e
        assert len(products) == max(e.bit_length() + bin(e).count("1") - 2, 0), e


def _fraction_power(m: Matrix, e: int) -> Matrix:
    result = identity(m.n)
    for _ in range(e):
        result = fraction_matmul(result, m)
    return result


def _assert_exact(m: Matrix):
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    assert all(type(x) is F for row in m.rows for x in row)


def test_products_and_powers_match_fraction_oracle():
    """Distinct prime denominators per row, zero rows and negative entries."""
    cases = []
    for n in range(1, 8):
        for seed in range(2):
            cases.append((_prime_row_matrix(n, 1000 * n + seed),
                          _prime_row_matrix(n, 1000 * n + seed + 7, zero_row=seed % n)))
        cases.append((random_rational_matrix(n, 1100 + n, denominators=(1, 5, 6)),
                      -random_rational_matrix(n, 1200 + n)))
    for a, b in cases:
        for x, y in ((a, b), (b, a), (a, a)):
            product = x * y
            _assert_exact(product)
            assert product == fraction_matmul(x, y)
        for e in range(6):
            power = a ** e
            _assert_exact(power)
            assert power == _fraction_power(a, e), (a, e)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-4, 4, max_denominator=7), min_size=n, max_size=n),
    min_size=2 * n, max_size=2 * n)), st.integers(0, 5))
def test_products_and_powers_match_fraction_oracle_property(rows, e):
    n = len(rows) // 2
    a, b = Matrix(rows[:n]), Matrix(rows[n:])
    assert a * b == fraction_matmul(a, b)
    assert a ** e == _fraction_power(a, e)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2 ** 32), st.integers(0, 3), st.data())
def test_integer_form_and_fraction_view_agree(n, seed, e, data):
    """A derived matrix stores only its integer form (D, D*M); its Fraction
    view, and the form read entry by entry over D, equal the oracle."""
    a = random_rational_matrix(n, seed)
    b = random_rational_matrix(n, seed + 1, denominators=(1, 5, 6))
    k = data.draw(st.integers(1, n))
    sel = MinorSelector(*(sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))
                          for _ in range(2)))
    ra = a.rows
    cases = [(-a, entrywise(lambda x: -x, a)),
             (a * b, fraction_matmul(a, b).rows),
             (a ** e, _fraction_power(a, e).rows),
             (flip_rows(a), ra[::-1]),
             (flip_cols(a), tuple(row[::-1] for row in ra)),
             (a.submatrix(sel), tuple(tuple(ra[i - 1][j - 1] for j in sel.cols)
                                      for i in sel.rows))]
    for m, oracle in cases:
        d, form = m._form
        assert d > 0 and tuple(tuple(F(x, d) for x in row) for row in form) == oracle
        assert m.rows == oracle


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=9, max_size=9))
def test_determinant_is_multiplicative(flat):
    a = Matrix(flat[:3])
    b = Matrix(flat[3:6])
    c = Matrix(flat[6:9])
    assert (a * b).det() == a.det() * b.det()
    assert ((a * b) * c) == (a * (b * c))


def test_charpoly_frozen_values():
    assert anti_identity(3).charpoly() == Polynomial([1, -1, -1, 1])
    assert Matrix([[0, 1], [1, 1]]).charpoly() == Polynomial([1, -1, -1])
    assert identity(3).charpoly() == Polynomial([1, -3, 3, -1])


def test_charpoly_matches_determinant_evaluation():
    for seed in range(20):
        n = 1 + seed % 5
        m = random_rational_matrix(n, seed + 200)
        p = m.charpoly()
        assert p.degree == n
        assert p.coeffs[0] == 1
        for t in (F(0), F(1), F(-2), F(3, 2)):
            shifted = Matrix([[t * int(i == j) - m.rows[i][j] for j in range(n)]
                              for i in range(n)])
            assert fraction_horner(p.coeffs, t) == shifted.det(), (seed, t)


def test_charpoly_invariant_under_double_flip():
    for seed in range(10):
        n = 2 + seed % 4
        m = random_rational_matrix(n, seed + 300)
        assert flip_rows(flip_cols(m)).charpoly() == m.charpoly()


def test_charpoly_constant_term_is_signed_determinant():
    for seed in range(10):
        n = 2 + seed % 4
        m = random_rational_matrix(n, seed + 400)
        assert m.charpoly().coeffs[-1] == (-1) ** n * m.det()


# -- charpoly against the two oracles ------------------------------------------------


def _positive(rng, count):
    return tuple(F(1 + rng.below(9), 1 + rng.below(4)) for _ in range(count))


def _charpoly_corpus():
    """Dense rationals, the structured spectrum families up to n = 16, TNN
    flips, degenerate sizes, and 16 distinct prime denominators (D^k growth)."""
    rng = SplitMix64(2024)
    cases = [(f"rational n={n}", random_rational_matrix(n, 500 + n))
             for n in range(1, 13)]
    for n in (2, 3, 5, 8, 11, 16):
        spec = AntiBidiagonalSpec(_positive(rng, 1)[0], _positive(rng, n - 1),
                                  _positive(rng, n - 1))
        cases.append((f"anti_bidiagonal n={n}", anti_bidiagonal(spec)))
        spec = JacobiSpec(_positive(rng, n), _positive(rng, n - 1), _positive(rng, n - 1))
        cases.append((f"anti_jacobi n={n}", anti_jacobi(spec)))
    cases += [(f"tnn flip n={n}", flip_rows(random_positive_tnn(n, 70 + n)))
              for n in range(4, 9)]
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    cases += [
        ("zero n=4", Matrix([[0] * 4] * 4)),
        ("1x1", Matrix([[F(-7, 3)]])),
        ("prime denominators n=4",
         Matrix([[F(i - 2 * j + 1, primes[4 * i + j]) for j in range(4)]
                 for i in range(4)])),
    ]
    return cases


def test_charpoly_matches_faddeev_leverrier():
    for label, m in _charpoly_corpus():
        assert m.charpoly() == faddeev_leverrier_charpoly(m), label


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for label, m in _charpoly_corpus():
        expected = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row]
             for row in m.rows]).charpoly().all_coeffs()
        assert m.charpoly() == Polynomial(
            [F(int(c.p), int(c.q)) for c in expected]), label


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-4, 4, max_denominator=6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_matches_faddeev_leverrier_property(rows):
    m = Matrix(rows)
    assert m.charpoly() == faddeev_leverrier_charpoly(m)


# -- charpoly routes: continuants for the banded forms, Berkowitz for the rest ---------


def _cells(n: int, pattern: str) -> list[tuple[int, int]]:
    """The 0-based cells that a tridiagonal or an anti-bidiagonal n x n form may fill."""
    keep = ((lambda i, j: abs(i - j) <= 1) if pattern == "tridiagonal"
            else (lambda i, j: i + j in (n - 1, n)))
    return [(i, j) for i in range(n) for j in range(n) if keep(i, j)]


def _filled(n: int, cells, values) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(cells, values):
        rows[i][j] = x
    return Matrix(rows)


@pytest.fixture
def berkowitz_calls(monkeypatch) -> list:
    """The size of every matrix whose charpoly took the Berkowitz route."""
    calls = []

    def counting(b, berkowitz=matrices._berkowitz):
        calls.append(len(b))
        return berkowitz(b)

    monkeypatch.setattr(matrices, "_berkowitz", counting)
    return calls


@pytest.mark.parametrize("pattern", ["tridiagonal", "anti_bidiagonal"])
def test_banded_charpoly_against_berkowitz_exhaustively(pattern, berkowitz_calls):
    """Every matrix of the pattern with n <= 3 and entries in {-1, 0, 1, 2}
    takes a continuant route and gives Berkowitz's polynomial."""
    count = 0
    for n in (1, 2, 3):
        cells = _cells(n, pattern)
        for values in product((-1, 0, 1, 2), repeat=len(cells)):
            m = _filled(n, cells, values)
            assert m.charpoly() == berkowitz_charpoly(m), (pattern, values)
            count += 1
    assert berkowitz_calls == []
    assert count == {"tridiagonal": 4 + 4 ** 4 + 4 ** 7,
                     "anti_bidiagonal": 4 + 4 ** 3 + 4 ** 5}[pattern]


def test_banded_charpoly_against_faddeev_leverrier_with_denominators(berkowitz_calls):
    """Entries in {-1/2, 0, 1/3, 3/2}, so D > 1: every anti-bidiagonal
    matrix with n <= 3, and every 32nd tridiagonal one, against
    Faddeev-LeVerrier over Fractions."""
    values = (F(-1, 2), 0, F(1, 3), F(3, 2))
    for pattern, stride in (("anti_bidiagonal", 1), ("tridiagonal", 32)):
        for n in (1, 2, 3):
            cells = _cells(n, pattern)
            for entries in list(product(values, repeat=len(cells)))[::stride]:
                m = _filled(n, cells, entries)
                assert m.charpoly() == faddeev_leverrier_charpoly(m), (pattern, entries)
    assert berkowitz_calls == []


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(["tridiagonal", "anti_bidiagonal"]),
    st.lists(st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=7)),
             min_size=3 * n, max_size=3 * n))))
def test_banded_charpoly_against_berkowitz_property(case):
    """Rational entries with planted zeros, up to n = 12."""
    n, pattern, values = case
    m = _filled(n, _cells(n, pattern), values)
    assert m.charpoly() == berkowitz_charpoly(m)


def test_charpoly_routes_by_zero_pattern(berkowitz_calls):
    """Only a tridiagonal or anti-bidiagonal form takes a continuant; the
    row reversal of an anti-bidiagonal matrix is upper bidiagonal, so it is
    tridiagonal, while its mirror pattern (nonzero where i + j is n - 2 or
    n - 1), an anti-Jacobi matrix and a dense matrix reach Berkowitz."""
    spec = AntiBidiagonalSpec(2, (3, 5, F(1, 2)), (7, 11, F(2, 3)))
    jacobi = JacobiSpec((1, 2, 3, 4), (5, 6, 7), (8, 9, 10))
    continuant = [anti_bidiagonal(spec), flip_rows(anti_bidiagonal(spec)),
                  equivalent_tridiagonal(spec), jacobi_matrix(jacobi)]
    berkowitz = [flip_cols(jacobi_matrix(JacobiSpec((1, 2, 3, 4), (5, 6, 7), (0, 0, 0)))),
                 anti_jacobi(jacobi), random_rational_matrix(4, 9)]
    for m in continuant + berkowitz:
        assert m.charpoly() == faddeev_leverrier_charpoly(m), m
    assert berkowitz_calls == [4] * len(berkowitz)
