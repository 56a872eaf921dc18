"""Exact rational matrices with the minor machinery the classifiers need.

Everything here is exact: entries are ``fractions.Fraction``. Determinants
and the characteristic polynomial read one integer form D*M of the matrix (D
the lcm of all entry denominators): Bareiss elimination on it gives
det(M) * D^n, and division-free Berkowitz gives each coefficient c_k * D^k.
Public row/column indices are 1-based, as is conventional for minor
bookkeeping; slicing internals are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator

from .errors import DimensionMismatch, InvalidSelector


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts int, Fraction, and strings in integer, ``p/q``, or finite decimal
    form (decimals are parsed exactly, e.g. ``"0.25"`` -> 1/4). Binary floats
    are rejected: they would smuggle rounding into an exact pipeline. An
    exact ``Fraction`` is returned as it is (Fractions are immutable).
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("binary floats are not exact; pass a string or Fraction")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class MinorSelector:
    """Strictly increasing 1-based row and column index tuples of equal length."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.rows) != len(self.cols) or not self.rows:
            raise InvalidSelector(f"need equal nonempty index tuples, got {self}")
        for idx in (self.rows, self.cols):
            if any(i < 1 for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
                raise InvalidSelector(f"indices must be strictly increasing and >= 1: {idx}")

    @property
    def order(self) -> int:
        return len(self.rows)


class Matrix:
    """Immutable square matrix over the rationals.

    ``m[i, j]`` uses 1-based indices. Arithmetic (+, -, unary -, * for both
    matrix and scalar products, ** for nonnegative integer powers) stays exact.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        n = len(data)
        if n == 0:
            raise DimensionMismatch("empty matrix")
        if any(len(r) != n for r in data):
            raise DimensionMismatch(f"rows of a {n}x{n} matrix must have length {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", data)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InvalidSelector(f"index ({i},{j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.n}x{self.n}: {body})"

    def entries(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (i, j, value) over all entries, row-major, 1-based."""
        for i, row in enumerate(self.rows, start=1):
            for j, x in enumerate(row, start=1):
                yield i, j, x

    # -- arithmetic --------------------------------------------------------

    def _same_size(self, other: "Matrix"):
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_size(other)
        return Matrix(tuple(a + b for a, b in zip(ra, rb))
                      for ra, rb in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_size(other)
        return Matrix(tuple(a - b for a, b in zip(ra, rb))
                      for ra, rb in zip(self.rows, other.rows))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(-x for x in row) for row in self.rows)

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix(tuple(c * x for x in row) for row in self.rows)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._same_size(other)
            cols = tuple(zip(*other.rows))
            return Matrix(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                          for row in self.rows)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, m: int) -> "Matrix":
        if not isinstance(m, int) or m < 0:
            raise ValueError("matrix powers must be nonnegative integers")
        result = identity(self.n)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base if m > 1 else base
            m >>= 1
        return result

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    # -- determinants and minors ------------------------------------------

    def _integer_form(self) -> tuple[int, list[list[int]]]:
        """(D, D*M as int rows), D the lcm of all entry denominators."""
        d = lcm(*(x.denominator for row in self.rows for x in row))
        return d, [[x.numerator * (d // x.denominator) for x in row]
                   for row in self.rows]

    def det(self) -> Fraction:
        """Determinant via fraction-free Bareiss elimination on the integer
        form D*M, where every interior division is exact: det(M) = det(D*M) / D^n."""
        d, b = self._integer_form()
        return Fraction(_bareiss(b), d ** self.n)

    def submatrix(self, sel: MinorSelector) -> "Matrix":
        if sel.rows[-1] > self.n or sel.cols[-1] > self.n:
            raise InvalidSelector(f"{sel} exceeds size {self.n}")
        return Matrix(tuple(self.rows[i - 1][j - 1] for j in sel.cols) for i in sel.rows)

    def minor(self, sel: MinorSelector) -> Fraction:
        return self.submatrix(sel).det()

    def minors(self, order: int) -> Iterator[tuple[MinorSelector, Fraction]]:
        """Stream all minors of the given order in lexicographic selector order.

        Row selectors advance in the outer loop, column selectors in the
        inner one, both lexicographically, so enumeration order (and hence
        every first-witness choice downstream) is deterministic. Minors are
        computed on demand; short-circuiting consumers never pay for the
        full stream.
        """
        if not (1 <= order <= self.n):
            raise InvalidSelector(f"minor order {order} outside 1..{self.n}")
        index_range = range(1, self.n + 1)
        for rows in combinations(index_range, order):
            for cols in combinations(index_range, order):
                sel = MinorSelector(rows, cols)
                yield sel, self.minor(sel)

    def leading_principal_minor(self, k: int) -> Fraction:
        sel = MinorSelector(tuple(range(1, k + 1)), tuple(range(1, k + 1)))
        return self.minor(sel)

    # -- characteristic polynomial ------------------------------------------

    def charpoly(self):
        """Monic characteristic polynomial det(zI - M), exact.

        Division-free Berkowitz (Berkowitz, IPL 18, 1984) on the integer form
        B = D*M that ``det`` also reads, so only integer + and * run. Since
        c_k(M) = c_k(B) / D^k, each coefficient is rescaled at the end.
        """
        from .polynomials import Polynomial

        d, b = self._integer_form()
        # coeffs of det(zI - B_r) for the leading r x r block, leading first
        coeffs = [1, -b[0][0]]
        for r in range(1, self.n):
            # B_{r+1} = [[B_r, col], [row, b_rr]]; the Toeplitz column is
            # 1, -b_rr, -row.col, -row.B_r.col, ..., -row.B_r^(r-1).col
            top = [b_i[:r] for b_i in b[:r]]
            row, col = b[r][:r], [b_i[r] for b_i in b[:r]]
            toeplitz = [1, -b[r][r]]
            for k in range(r):
                if k:
                    col = [sum(a * v for a, v in zip(t_i, col)) for t_i in top]
                toeplitz.append(-sum(a * v for a, v in zip(row, col)))
            coeffs = [sum(toeplitz[i - j] * coeffs[j] for j in range(min(i, r) + 1))
                      for i in range(r + 2)]
        return Polynomial([Fraction(c, d ** k) for k, c in enumerate(coeffs)])


def _bareiss(rows: list[list[int]]) -> int:
    """Integer Bareiss determinant; mutates ``rows``."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - rik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * rows[-1][-1]


def identity(n: int) -> Matrix:
    if n < 1:
        raise DimensionMismatch("size must be >= 1")
    return Matrix(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def anti_identity(n: int) -> Matrix:
    """The flip J with 1s on the anti-diagonal; det J = (-1)^(n(n-1)/2)."""
    if n < 1:
        raise DimensionMismatch("size must be >= 1")
    return Matrix(tuple(Fraction(int(i + j == n - 1)) for j in range(n)) for i in range(n))


def flip_rows(m: Matrix) -> Matrix:
    """Reverse row order; equals J*M."""
    return Matrix(reversed(m.rows))


def flip_cols(m: Matrix) -> Matrix:
    """Reverse column order; equals M*J."""
    return Matrix(tuple(reversed(row)) for row in m.rows)
