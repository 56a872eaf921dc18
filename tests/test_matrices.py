"""Exact matrix core: determinants, minors, flips, characteristic polynomials."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    AntiBidiagonalSpec,
    DimensionMismatch,
    InvalidSelector,
    JacobiSpec,
    Matrix,
    MinorSelector,
    Polynomial,
    SplitMix64,
    anti_bidiagonal,
    anti_identity,
    anti_jacobi,
    flip_cols,
    flip_rows,
    identity,
    random_positive_tnn,
)
from interlace.matrices import as_fraction
from conftest import (
    cofactor_det,
    faddeev_leverrier_charpoly,
    fraction_matmul,
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
    with pytest.raises(TypeError):
        Matrix([[0.5, 1], [1, 1]])


def test_as_fraction_returns_a_fraction_unchanged():
    x = F(7, 3)
    assert as_fraction(x) is x
    assert as_fraction(3) == 3 and type(as_fraction(3)) is F
    assert as_fraction(True) == 1 and type(as_fraction(True)) is F
    for bad in (0.5, float("nan")):
        with pytest.raises(TypeError):
            as_fraction(bad)


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
    m.det()  # with the integer form cached, assignment still raises
    for name, value in (("n", 3), ("rows", ((F(1),),)), ("_form", (1, ((1,),)))):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert m == identity(2) and m.det() == 1


def test_cached_integer_form_is_not_consumed():
    """Every kernel reads the one cached form: repeating a call, or running
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


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-4, 4, max_denominator=7), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_determinant_matches_cofactor_oracle_property(rows):
    m = Matrix(rows)
    assert m.det() == cofactor_det(m)


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
    assert sub._integer_form()[0] == m._integer_form()[0] != fresh._integer_form()[0]
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


def test_scalar_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    assert (-a).rows == Matrix([[-1, -2], [-3, -4]]).rows
    assert (a - a) == Matrix([[0, 0], [0, 0]])
    assert (2 * a) == Matrix([[2, 4], [6, 8]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])


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
            assert p(t) == shifted.det(), (seed, t)


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
