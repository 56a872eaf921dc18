"""Exact rational matrices with the minor machinery the classifiers need.

Everything here is exact: entries are ``fractions.Fraction``. Each matrix
caches one integer form (D, D*M), D a common multiple of all entry
denominators, and every kernel reads it: Bareiss elimination on a copy gives
det(M) * D^n, division-free Berkowitz gives each coefficient c_k * D^k, a
product is the integer product over D1*D2, and a submatrix (so every minor)
is a slice of the parent's form that keeps the parent's D.
Public row/column indices are 1-based, as is conventional for minor
bookkeeping; slicing internals are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import lt, mul
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
            if not (idx[0] >= 1 and all(map(lt, idx, idx[1:]))):
                raise InvalidSelector(f"indices must be strictly increasing and >= 1: {idx}")

    @property
    def order(self) -> int:
        return len(self.rows)


class Matrix:
    """Immutable square matrix over the rationals.

    ``m[i, j]`` uses 1-based indices. Arithmetic (+, -, unary -, * for both
    matrix and scalar products, ** for nonnegative integer powers) stays exact.
    """

    __slots__ = ("n", "rows", "_form")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        n = len(data)
        if n == 0:
            raise DimensionMismatch("empty matrix")
        if any(len(r) != n for r in data):
            raise DimensionMismatch(f"rows of a {n}x{n} matrix must have length {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "_form", None)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Fraction, ...], ...], form=None) -> "Matrix":
        """Wrap rows that already are a nonempty square tuple of tuples of
        Fractions, with no conversion or shape check; ``form``, when given,
        is an integer form (D, D*M) of exactly these rows."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", len(rows))
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "_form", form)
        return m

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
        return Matrix._trusted(tuple(tuple(a + b for a, b in zip(ra, rb))
                                     for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_size(other)
        return Matrix._trusted(tuple(tuple(a - b for a, b in zip(ra, rb))
                                     for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(tuple(tuple(-x for x in row) for row in self.rows))

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix._trusted(tuple(tuple(c * x for x in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._same_size(other)
            d1, a = self._integer_form()
            d2, b = other._integer_form()
            d, cols = d1 * d2, tuple(zip(*b))
            return Matrix._trusted(tuple(
                tuple(Fraction(sum(map(mul, row, col)), d) for col in cols) for row in a))
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
        return Matrix._trusted(tuple(zip(*self.rows)))

    # -- determinants and minors ------------------------------------------

    def _integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D*M as int rows), computed once: D is the lcm of all entry
        denominators, or the parent's D for a submatrix. Read only."""
        if self._form is None:
            d = lcm(*(x.denominator for row in self.rows for x in row))
            object.__setattr__(self, "_form", (d, tuple(
                tuple(x.numerator * (d // x.denominator) for x in row)
                for row in self.rows)))
        return self._form

    def det(self) -> Fraction:
        """Determinant via fraction-free Bareiss elimination on a copy of the
        integer form D*M, where every interior division is exact:
        det(M) = det(D*M) / D^n."""
        d, b = self._integer_form()
        return Fraction(_bareiss([list(row) for row in b]), d ** self.n)

    def submatrix(self, sel: MinorSelector) -> "Matrix":
        """The selected rows and columns, whose integer form is the same
        slice of this matrix's form, with this matrix's D."""
        if sel.rows[-1] > self.n or sel.cols[-1] > self.n:
            raise InvalidSelector(f"{sel} exceeds size {self.n}")
        d, b = self._integer_form()
        rows, cols = [i - 1 for i in sel.rows], [j - 1 for j in sel.cols]
        return Matrix._trusted(
            tuple(tuple(self.rows[i][j] for j in cols) for i in rows),
            (d, tuple(tuple(b[i][j] for j in cols) for i in rows)))

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
        d, b = self._integer_form()
        picks = list(combinations(range(self.n), order))
        selectors = [tuple(i + 1 for i in pick) for pick in picks]
        for row_sel, rows in zip(selectors, picks):
            # columns of the selected rows; a minor's rows are its columns' zip
            column = list(zip(*(self.rows[i] for i in rows))).__getitem__
            int_column = list(zip(*(b[i] for i in rows))).__getitem__
            for col_sel, cols in zip(selectors, picks):
                sub = Matrix._trusted(tuple(zip(*map(column, cols))),
                                      (d, tuple(zip(*map(int_column, cols)))))
                yield MinorSelector(row_sel, col_sel), sub.det()

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
    return Matrix._trusted(m.rows[::-1])


def flip_cols(m: Matrix) -> Matrix:
    """Reverse column order; equals M*J."""
    return Matrix._trusted(tuple(row[::-1] for row in m.rows))
