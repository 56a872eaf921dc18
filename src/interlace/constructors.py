"""The structured matrix families, their criteria, and seeded random generators.

Builders for the bidiagonal, anti-bidiagonal, tridiagonal (Jacobi) and
column-reversed tridiagonal families live here with the two tridiagonal
oscillation criteria. Every family is built by ``jacobi_matrix``,
column-reversed for the anti families. The criteria read the leading
principal minors off the continuant recurrence of the integer form, or the
determinants of the column-reversed leading blocks with signs from
``jflip_signature`` of ``classification``, which imports nothing from this
module.

The anti-bidiagonal family lays its parameters along the zigzag path from
corner (n,1) up to corner (1,n), carrying c_n,...,c_2, a, b_2,...,b_n in that
order; its spectrum matches the tridiagonal matrix with diagonal
(a, 0, ..., 0), superdiagonal (b_2..b_n) and subdiagonal (c_2..c_n), which
only sees the products b_j*c_j.

Random generation goes through products of elementary bidiagonal factors
(nonnegative parameters), so outputs are totally nonnegative by construction
(Cauchy-Binet); each generator still re-certifies its advertised contract
after building and raises InternalInvariantViolation instead of returning an
uncertified matrix. The parameter stream comes from a fixed 64-bit generator
so runs reproduce across platforms and implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classification import is_oscillatory, is_totally_nonnegative, jflip_signature
from .errors import DimensionMismatch, InternalInvariantViolation, PositivityViolated
from .matrices import Matrix, MinorSelector, as_fraction, flip_cols


@dataclass(frozen=True)
class AntiBidiagonalSpec:
    """Zigzag parameters: corner value ``a`` and positive ladders b_2..b_n
    (``sup``) and c_2..c_n (``sub``); n = len(sup) + 1."""

    a: Fraction
    sup: tuple[Fraction, ...]
    sub: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "sup", tuple(as_fraction(x) for x in self.sup))
        object.__setattr__(self, "sub", tuple(as_fraction(x) for x in self.sub))
        if len(self.sup) != len(self.sub):
            raise DimensionMismatch("need as many b as c parameters")
        if self.a <= 0 or any(x <= 0 for x in self.sup + self.sub):
            raise PositivityViolated("anti-bidiagonal parameters must be > 0")

    @property
    def n(self) -> int:
        return len(self.sup) + 1


@dataclass(frozen=True)
class JacobiSpec:
    """Tridiagonal parameters: diagonal a_1..a_n, superdiagonal b_1..b_(n-1),
    subdiagonal c_1..c_(n-1). Sign constraints are imposed by the criteria
    that consume the spec, not here."""

    diag: tuple[Fraction, ...]
    sup: tuple[Fraction, ...]
    sub: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(as_fraction(x) for x in self.diag))
        object.__setattr__(self, "sup", tuple(as_fraction(x) for x in self.sup))
        object.__setattr__(self, "sub", tuple(as_fraction(x) for x in self.sub))
        if not self.diag:
            raise DimensionMismatch("need at least one diagonal entry")
        if len(self.sup) != len(self.diag) - 1 or len(self.sub) != len(self.diag) - 1:
            raise DimensionMismatch(
                f"off-diagonals must have length {len(self.diag) - 1}")

    @property
    def n(self) -> int:
        return len(self.diag)


def bidiagonal_upper(diag, sup) -> Matrix:
    """Upper bidiagonal matrix with positive diagonal and superdiagonal.

    Positivity is required because these factors feed corner-condition
    arguments that need strictly positive products along both diagonals.
    """
    d = [as_fraction(x) for x in diag]
    e = [as_fraction(x) for x in sup]
    n = len(d)
    if n < 1 or len(e) != n - 1:
        raise DimensionMismatch(f"superdiagonal must have length {n - 1}")
    if any(x <= 0 for x in d) or any(x <= 0 for x in e):
        raise PositivityViolated("bidiagonal entries must be > 0")
    return jacobi_matrix(JacobiSpec(d, e, (0,) * (n - 1)))


def anti_bidiagonal(spec: AntiBidiagonalSpec) -> Matrix:
    """Lay c_n..c_2, a, b_2..b_n along the zigzag from (n,1) to (1,n).

    Reversing the columns turns the zigzag into the lower bidiagonal band
    read from (n,n) upward, alternating diagonal and subdiagonal entries, so
    the family is a column-reversed tridiagonal matrix with no superdiagonal.
    """
    values = spec.sub[::-1] + (spec.a,) + spec.sup
    zeros = (0,) * (spec.n - 1)
    return flip_cols(jacobi_matrix(
        JacobiSpec(values[::2][::-1], zeros, values[1::2][::-1])))


def equivalent_tridiagonal(spec: AntiBidiagonalSpec) -> Matrix:
    """Tridiagonal companion with the same characteristic polynomial:
    diagonal (a, 0, ..., 0), superdiagonal b_2..b_n, subdiagonal c_2..c_n."""
    diag = (spec.a,) + (Fraction(0),) * (spec.n - 1)
    return jacobi_matrix(JacobiSpec(diag, spec.sup, spec.sub))


def jacobi_matrix(spec: JacobiSpec) -> Matrix:
    n = spec.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = spec.diag[i]
        if i + 1 < n:
            rows[i][i + 1] = spec.sup[i]
            rows[i + 1][i] = spec.sub[i]
    return Matrix(rows)


def anti_jacobi(spec: JacobiSpec) -> Matrix:
    """Column-reversed tridiagonal M_J * J; row 1 reads (0,...,0,b_1,a_1)."""
    return flip_cols(jacobi_matrix(spec))


# -- tridiagonal criteria ---------------------------------------------------------


def _positive_jacobi(spec: JacobiSpec) -> Matrix:
    """The tridiagonal matrix of a spec whose off-diagonals are all > 0."""
    if any(x <= 0 for x in spec.sup) or any(x <= 0 for x in spec.sub):
        raise PositivityViolated("off-diagonal entries must be strictly positive")
    return jacobi_matrix(spec)


def jacobi_oscillatory_criterion(spec: JacobiSpec) -> bool:
    """Positive off-diagonals given, decide oscillation by leading minors.

    Requires every b_k > 0 and c_k > 0 (raises otherwise); returns True
    exactly when all leading principal minors of the tridiagonal matrix are
    strictly positive. On the integer form B = D*M they are the continuants
    Δ_k = b_kk Δ_(k-1) - b_(k-1,k) b_(k,k-1) Δ_(k-2), Δ_0 = 1, Δ_(-1) = 0,
    in O(n); D > 0 keeps their signs, and the first Δ_k <= 0 decides.
    """
    b = _positive_jacobi(spec)._form[1]
    before, minor = 0, 1  # Δ_(k-2), Δ_(k-1); Δ_(-1) = 0 voids the k = 0 term
    for k, row in enumerate(b):
        before, minor = minor, row[k] * minor - row[k - 1] * b[k - 1][k] * before
        if minor <= 0:
            return False
    return True


def anti_tridiagonal_criterion(spec: JacobiSpec) -> bool:
    """Same decision through the flipped route, kept deliberately separate.

    Builds each leading principal block M^(k), reverses its columns (M^(k) J),
    and requires ε_k det(M^(k) J) > 0 for k = 1..n, with ε_k = (-1)^(k(k-1)/2)
    from ``jflip_signature``. The dual route exists so the two criteria can be
    cross-checked against each other; do not fold it into the plain minor test.
    """
    m = _positive_jacobi(spec)
    for k, eps in enumerate(jflip_signature(m.n), start=1):
        sel = MinorSelector(tuple(range(1, k + 1)), tuple(range(1, k + 1)))
        if eps * flip_cols(m.submatrix(sel)).det() <= 0:
            return False
    return True


# -- seeded randomness -----------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Fixed 64-bit stream used by every random constructor.

    state += 0x9E3779B97F4A7C15; z = state; z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31; all arithmetic mod 2^64. ``below(k)`` reduces by plain
    modulo (the tiny bias is irrelevant for test-corpus generation and keeps
    the stream trivially reproducible in any language).
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def below(self, bound: int) -> int:
        if bound < 1:
            raise PositivityViolated("bound must be >= 1")
        return self.next_u64() % bound


def _random_ladder(n: int, seed: int, first_lo: int, later_lo: int,
                   diag_lo: int) -> Matrix:
    """L * D * U from elementary factors drawn off the stream of ``seed``.

    L is n-1 rounds of lower factors (positions i = 1..n-1 ascending,
    parameter at entry (i+1, i)), D is diagonal, U is n-1 rounds of upper
    factors (positions descending, parameter at (i, i+1)); parameters are
    drawn in exactly this order, each uniformly from lo..3 with lo
    ``first_lo`` in the first round of a ladder, ``later_lo`` in later rounds
    and ``diag_lo`` on the diagonal. Starting from the identity, each factor
    is applied as its column operation on the product so far: a lower factor
    adds v times column i+1 to column i, D scales the columns, an upper
    factor adds v times column i to column i+1.
    """
    if n < 1:
        raise DimensionMismatch("size must be >= 1")
    rng = SplitMix64(seed)
    acc = [[int(r == c) for c in range(n)] for r in range(n)]

    def ladder(pairs: list[tuple[int, int]]) -> None:
        for r in range(n - 1):
            lo = first_lo if r == 0 else later_lo
            for dst, src in pairs:
                v = lo + rng.below(4 - lo)
                if v:
                    for row in acc:
                        row[dst] += v * row[src]

    ladder([(i - 1, i) for i in range(1, n)])
    for c in range(n):
        d = diag_lo + rng.below(4 - diag_lo)
        for row in acc:
            row[c] *= d
    ladder([(i, i - 1) for i in range(n - 1, 0, -1)])
    return Matrix._trusted(1, tuple(map(tuple, acc)))


def random_tnn(n: int, seed: int) -> Matrix:
    """Seeded totally nonnegative matrix; zero parameters (and hence singular
    outputs) allowed. Certified by ``is_totally_nonnegative``: Neville
    elimination passes a nonsingular draw, and only a singular draw pays the
    full minor scan."""
    m = _random_ladder(n, seed, 0, 0, 0)
    if not is_totally_nonnegative(m):
        raise InternalInvariantViolation("ladder product with nonnegative "
                                         "parameters must be totally nonnegative")
    return m


def random_positive_tnn(n: int, seed: int) -> Matrix:
    """Seeded nonsingular totally nonnegative matrix with all entries > 0.

    Every ladder parameter is strictly positive; the result is checked for
    positive entries, nonzero determinant and total nonnegativity before
    being returned.
    """
    m = _random_ladder(n, seed, 1, 1, 1)
    if (min(map(min, m._form[1])) <= 0 or m.det() == 0
            or not is_totally_nonnegative(m)):
        raise InternalInvariantViolation("positive ladder must give a totally "
                                         "nonnegative matrix with positive "
                                         "entries and a nonzero determinant")
    return m


def random_oscillatory(n: int, seed: int) -> Matrix:
    """Seeded oscillatory matrix: the first ladder round is forced strictly
    positive (which pins both off-diagonals of the product away from zero),
    later rounds may contribute zeros. Certified by the oscillation criterion."""
    m = _random_ladder(n, seed, 1, 0, 1)
    if not is_oscillatory(m):
        raise InternalInvariantViolation("forced-positive first round must "
                                         "yield an oscillatory product")
    return m
