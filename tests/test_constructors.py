"""Structured families, the zigzag layout, and the seeded generators."""

import hashlib
from fractions import Fraction as F

import pytest

from conftest import faddeev_leverrier_charpoly
from interlace import constructors
from interlace import (
    AntiBidiagonalSpec,
    DimensionMismatch,
    InternalInvariantViolation,
    JacobiSpec,
    Matrix,
    PositivityViolated,
    SplitMix64,
    anti_bidiagonal,
    anti_jacobi,
    bidiagonal_upper,
    equivalent_tridiagonal,
    flip_cols,
    is_oscillatory,
    is_totally_nonnegative,
    jacobi_matrix,
    random_oscillatory,
    random_positive_tnn,
    random_tnn,
)


def _random_spec(rng: SplitMix64, n: int) -> AntiBidiagonalSpec:
    return AntiBidiagonalSpec(
        F(1 + rng.below(5), 1 + rng.below(3)),
        tuple(F(1 + rng.below(5), 1 + rng.below(3)) for _ in range(n - 1)),
        tuple(F(1 + rng.below(5), 1 + rng.below(3)) for _ in range(n - 1)))


# -- anti-bidiagonal zigzag ---------------------------------------------------------


def test_anti_bidiagonal_frozen_two_by_two():
    m = anti_bidiagonal(AntiBidiagonalSpec(5, (2,), (3,)))
    assert m == Matrix([[0, 2], [3, 5]])


def test_anti_bidiagonal_frozen_three_by_three():
    m = anti_bidiagonal(AntiBidiagonalSpec(2, (3, 5), (7, 11)))
    assert m == Matrix([[0, 0, 5], [0, 2, 3], [11, 7, 0]])


def test_anti_bidiagonal_zero_pattern():
    """Exactly the 2n-1 zigzag cells from (n,1) to (1,n) are nonzero."""
    n = 5
    m = anti_bidiagonal(AntiBidiagonalSpec(1, (1,) * (n - 1), (1,) * (n - 1)))
    expected = set()
    i, j = n, 1
    expected.add((i, j))
    while (i, j) != (1, n):
        if i + j == n + 1:      # on the anti-diagonal: step right
            j += 1
        else:                   # one step below it: step up
            i -= 1
        expected.add((i, j))
    nonzero = {(i, j) for i, row in enumerate(m.rows, 1) for j, v in enumerate(row, 1) if v != 0}
    assert nonzero == expected and len(expected) == 2 * n - 1


def test_anti_bidiagonal_spec_validation():
    with pytest.raises(DimensionMismatch):
        AntiBidiagonalSpec(1, (1, 2), (1,))
    with pytest.raises(PositivityViolated):
        AntiBidiagonalSpec(0, (1,), (1,))
    with pytest.raises(PositivityViolated):
        AntiBidiagonalSpec(1, (1, -2), (1, 1))


def test_equivalent_tridiagonal_frozen():
    t = equivalent_tridiagonal(AntiBidiagonalSpec(5, (2,), (3,)))
    assert t == Matrix([[5, 2], [3, 0]])


def test_equivalent_tridiagonal_has_same_char_poly():
    rng = SplitMix64(11)
    for trial in range(30):
        n = 2 + rng.below(7)
        spec = _random_spec(rng, n)
        a = anti_bidiagonal(spec)
        t = equivalent_tridiagonal(spec)
        assert a.charpoly() == t.charpoly(), (trial, spec)
        # both take the continuant route; Faddeev-LeVerrier is independent
        assert a.charpoly() == faddeev_leverrier_charpoly(a), (trial, spec)


def test_char_poly_depends_only_on_offdiagonal_products():
    """Rescaling b_j -> t*b_j, c_j -> c_j/t leaves the spectrum unchanged."""
    rng = SplitMix64(12)
    for trial in range(20):
        n = 2 + rng.below(5)
        spec = _random_spec(rng, n)
        t = F(1 + rng.below(6), 1 + rng.below(4))
        scaled = AntiBidiagonalSpec(
            spec.a,
            tuple(b * t for b in spec.sup),
            tuple(c / t for c in spec.sub))
        assert anti_bidiagonal(spec).charpoly() == \
            anti_bidiagonal(scaled).charpoly(), (trial, spec, t)
        # both take the continuant route; Faddeev-LeVerrier is independent
        assert anti_bidiagonal(scaled).charpoly() == \
            faddeev_leverrier_charpoly(anti_bidiagonal(scaled)), (trial, spec, t)


# -- tridiagonal and column-reversed tridiagonal ----------------------------------------


def test_jacobi_matrix_frozen():
    m = jacobi_matrix(JacobiSpec((1, 2, 3), (4, 5), (6, 7)))
    assert m == Matrix([[1, 4, 0], [6, 2, 5], [0, 7, 3]])


def test_anti_jacobi_is_column_reversal():
    spec = JacobiSpec((1, 2), (3,), (4,))
    m = anti_jacobi(spec)
    assert m == Matrix([[3, 1], [2, 4]])
    assert m == flip_cols(jacobi_matrix(spec))
    # row 1 of the n=3 version reads (0, b_1, a_1)
    big = anti_jacobi(JacobiSpec((1, 2, 3), (4, 5), (6, 7)))
    assert big.rows[0] == (F(0), F(4), F(1))


def test_jacobi_spec_validation():
    with pytest.raises(DimensionMismatch):
        JacobiSpec((), (), ())
    with pytest.raises(DimensionMismatch):
        JacobiSpec((1, 2), (1, 2), (1,))


def test_bidiagonal_upper_frozen_and_validated():
    m = bidiagonal_upper((1, 2, 3), (4, 5))
    assert m == Matrix([[1, 4, 0], [0, 2, 5], [0, 0, 3]])
    with pytest.raises(PositivityViolated):
        bidiagonal_upper((1, 0), (1,))
    with pytest.raises(PositivityViolated):
        bidiagonal_upper((1, 2), (-1,))
    with pytest.raises(DimensionMismatch):
        bidiagonal_upper((1, 2), (1, 2))


def test_bidiagonal_families_match_their_entrywise_layout():
    """Both bidiagonal builders go through the tridiagonal builder; each gives
    the matrix, integer form included, that its layout spells out entry by
    entry: d_i at (i,i) and e_i at (i,i+1); zigzag value t = 0..2n-2 at
    (n - t//2, 1 + (t+1)//2)."""
    rng = SplitMix64(25)
    for n in range(1, 10):
        for _ in range(20):
            spec = _random_spec(rng, n)
            zigzag = [[F(0)] * n for _ in range(n)]
            for t, v in enumerate(spec.sub[::-1] + (spec.a,) + spec.sup):
                zigzag[n - 1 - t // 2][(t + 1) // 2] = v
            d, e = spec.sub + (spec.a,), spec.sup
            upper = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                upper[i][i] = d[i]
                if i + 1 < n:
                    upper[i][i + 1] = e[i]
            for built, rows in ((anti_bidiagonal(spec), zigzag),
                                (bidiagonal_upper(d, e), upper)):
                expected = Matrix(rows)
                assert built == expected, (spec, rows)
                assert built._form == expected._form, (spec, rows)


# -- the 64-bit stream ------------------------------------------------------------


def test_splitmix_reference_vector():
    """First three outputs for seed 0, from the published reference stream."""
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_determinism_and_range():
    a, b = SplitMix64(123), SplitMix64(123)
    seq = [a.below(10) for _ in range(50)]
    assert seq == [b.below(10) for _ in range(50)]
    assert all(0 <= x < 10 for x in seq)
    assert SplitMix64(2**64 + 5).state == 5  # seed reduced mod 2^64
    with pytest.raises(PositivityViolated):
        SplitMix64(1).below(0)


# -- seeded generators -------------------------------------------------------------


def test_random_positive_tnn_frozen():
    assert random_positive_tnn(2, 0) == Matrix([[1, 2], [2, 6]])
    assert random_positive_tnn(3, 7) == Matrix(
        [[2, 10, 18], [4, 21, 40], [2, 12, 28]])


def test_random_tnn_frozen():
    assert random_tnn(3, 1) == Matrix([[1, 1, 0], [3, 3, 0], [6, 6, 1]])


def test_random_oscillatory_frozen():
    assert random_oscillatory(3, 4) == Matrix(
        [[2, 10, 6], [10, 52, 38], [12, 68, 69]])


def test_generators_golden_digest():
    """Every entry of n = 1..7, seeds 0..9, for all three generators."""
    lines = []
    for gen in (random_tnn, random_positive_tnn, random_oscillatory):
        for n in range(1, 8):
            for seed in range(10):
                entries = (str(x) for row in gen(n, seed).rows for x in row)
                lines.append(f"{gen.__name__} {n} {seed}: " + " ".join(entries))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d79d7a37515076f6964c1fc4f624af59d269f82b9196d645b3bf4eb502fa641c"


def test_random_tnn_contract():
    for seed in range(12):
        n = 1 + seed % 5
        m = random_tnn(n, seed)
        assert is_totally_nonnegative(m), seed


def test_random_positive_tnn_contract():
    for seed in range(12):
        n = 1 + seed % 5
        m = random_positive_tnn(n, seed)
        assert all(v > 0 for row in m.rows for v in row), seed
        assert m.det() != 0, seed
        assert is_totally_nonnegative(m), seed


def test_random_positive_tnn_rejects_a_positive_matrix_that_is_not_tnn(monkeypatch):
    """Positive entries and a nonzero determinant are not enough: the
    generator re-certifies total nonnegativity too, as random_tnn and
    random_oscillatory (by the oscillation criterion) do."""
    monkeypatch.setattr(constructors, "_random_ladder",
                        lambda *args: Matrix([[1, 2], [2, 1]]))
    for gen in (random_positive_tnn, random_tnn, random_oscillatory):
        with pytest.raises(InternalInvariantViolation, match="must"):
            gen(2, 0)


def test_random_oscillatory_contract():
    for seed in range(12):
        n = 1 + seed % 4
        assert is_oscillatory(random_oscillatory(n, seed)), seed


def test_generators_are_reproducible():
    for gen in (random_tnn, random_positive_tnn, random_oscillatory):
        assert gen(4, 99) == gen(4, 99)
    assert random_positive_tnn(4, 1) != random_positive_tnn(4, 2)


def test_generators_reject_empty_size():
    for gen in (random_tnn, random_positive_tnn, random_oscillatory):
        with pytest.raises(DimensionMismatch):
            gen(0, 0)
