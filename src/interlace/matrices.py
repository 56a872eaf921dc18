"""Exact rational matrices with the minor machinery the classifiers need.

Everything here is exact. A matrix stores one integer form (D, D*M), D a
positive common multiple of the entry denominators, and its Fraction entries
are a view built on first read. Every kernel reads the form: closed forms
(orders 1-5) or Bareiss elimination on a copy give det(M) * D^n; the
characteristic polynomial's c_k * D^k comes from a continuant in O(n^2)
when the form is tridiagonal or anti-bidiagonal, and from division-free
Berkowitz otherwise, which with Faddeev-LeVerrier over Fractions is the
continuants' test oracle; a product is the integer product over D1*D2, a
submatrix (so every minor) is a slice keeping the parent's D, and negation
and flips act on the form alone. Fractions are built by ``_ratio``, which
sets their two slots in lowest terms, and the minor stream builds its
selectors and column getters once per stream and keeps nothing after it.
Public row/column indices are 1-based, as is conventional for minor
bookkeeping; slicing internals are 0-based.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import accumulate, combinations, repeat, starmap
from math import gcd, lcm
from operator import itemgetter, lt, mul
from typing import Iterable, Iterator, Optional, Sequence

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


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The lcm D of the denominators of ``values``, and D times each value."""
    d = lcm(*(x.denominator for x in values))
    return d, tuple(x.numerator * (d // x.denominator) for x in values)


@dataclass(frozen=True, slots=True)
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


def _refuse(self, name, *_):
    """``__setattr__`` and ``__delattr__`` of the frozen slotted records,
    whose dataclass methods raise TypeError for a name that is no field."""
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


# The slot descriptors' setters, bound once: how a MinorSelector is filled
# past its __setattr__, which refuses every assignment and deletion.
MinorSelector.__setattr__ = MinorSelector.__delattr__ = _refuse
_set_sel_rows, _set_sel_cols = (MinorSelector.__dict__[f].__set__ for f in ("rows", "cols"))


class Matrix:
    """Immutable square matrix over the rationals.

    Stored as ``_form`` = (D, D*M as int rows) alone. D is a positive common
    multiple of the entry denominators, not canonical (a slice keeps its
    parent's D, a product's is D1*D2), so ==, hash, repr and ``m[i, j]``
    (1-based) read ``rows``, the Fraction view. Unary -, the matrix product *
    and ** for nonnegative powers stay exact; * with any other operand type
    raises TypeError.
    """

    __slots__ = ("n", "_form", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        n = len(data)
        if n == 0:
            raise DimensionMismatch("empty matrix")
        if any(len(r) != n for r in data):
            raise DimensionMismatch(f"rows of a {n}x{n} matrix must have length {n}")
        d, flat = _common_denominator([x for row in data for x in row])
        _set_n(self, n)
        _set_form(self, (d, tuple(zip(*[iter(flat)] * n))))  # rows of n
        _set_rows(self, data)

    @classmethod
    def _trusted(cls, d: int, b: tuple[tuple[int, ...], ...]) -> "Matrix":
        """Wrap a form (D, D*M): D > 0, ``b`` a square tuple of int tuples; no check."""
        m = object.__new__(cls)
        _set_n(m, len(b))
        _set_form(m, (d, b))
        return m

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix._trusted, self._form

    # -- access ----------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built from the form on first read:
        until then the ``_rows`` slot is unset."""
        try:
            return self._rows
        except AttributeError:
            d, b = self._form
            _set_rows(self, tuple(tuple(Fraction(x, d) for x in row) for row in b))
            return self._rows

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
        return f"Matrix({self.n}x{self.n}: {'; '.join(_row_strings(self))})"

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Matrix":
        d, b = self._form
        return Matrix._trusted(d, tuple(tuple(-x for x in row) for row in b))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")
        (d1, a), (d2, b) = self._form, other._form
        cols = tuple(zip(*b))
        return Matrix._trusted(d1 * d2, tuple(
            tuple(sum(map(mul, row, col)) for col in cols) for row in a))

    def __pow__(self, m: int) -> "Matrix":
        if not isinstance(m, int) or m < 0:
            raise ValueError("matrix powers must be nonnegative integers")
        if m == 0:
            return identity(self.n)
        result, base = None, self  # binary powering from the first factor
        while m:
            if m & 1:
                result = base if result is None else result * base
            base = base * base if m > 1 else base
            m >>= 1
        return result

    # -- determinants and minors ------------------------------------------

    def det(self) -> Fraction:
        """det(M) = det(D*M) / D^n from the integer form D*M. Orders 1-5
        expand D*M in closed form: the entry, ad - bc, cofactors along the
        first row, and (orders 4 and 5) Laplace expansion by the 2x2 minors
        of rows 1-2 and their complements in the rows below, which at order
        5 are 3x3 cofactor sums over the ten shared 2x2 minors of rows 4-5.
        Larger orders run fraction-free Bareiss elimination on a copy, where
        every interior division is exact. The Fraction is v itself when
        D = 1 and ``_ratio(v, D^n)`` otherwise, both with their two slots set
        directly: the same value, hash and str as ``Fraction(v, D ** n)``."""
        d, rows = self._form
        n = self.n
        if n == 1:
            v = rows[0][0]
        elif n == 2:
            (a0, a1), (b0, b1) = rows
            v = a0 * b1 - a1 * b0
        elif n == 3:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
            v = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
        elif n == 4:
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = rows
            v = ((a0 * b1 - a1 * b0) * (c2 * e3 - c3 * e2)
                 - (a0 * b2 - a2 * b0) * (c1 * e3 - c3 * e1)
                 + (a0 * b3 - a3 * b0) * (c1 * e2 - c2 * e1)
                 + (a1 * b2 - a2 * b1) * (c0 * e3 - c3 * e0)
                 - (a1 * b3 - a3 * b1) * (c0 * e2 - c2 * e0)
                 + (a2 * b3 - a3 * b2) * (c0 * e1 - c1 * e0))
        elif n == 5:
            (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), \
                (e0, e1, e2, e3, e4), (f0, f1, f2, f3, f4) = rows
            # the ten 2x2 minors of rows 4-5, shared by the 3x3 complements
            m01, m02, m03 = e0 * f1 - e1 * f0, e0 * f2 - e2 * f0, e0 * f3 - e3 * f0
            m04, m12, m13 = e0 * f4 - e4 * f0, e1 * f2 - e2 * f1, e1 * f3 - e3 * f1
            m14, m23, m24 = e1 * f4 - e4 * f1, e2 * f3 - e3 * f2, e2 * f4 - e4 * f2
            m34 = e3 * f4 - e4 * f3
            v = ((a0 * b1 - a1 * b0) * (c2 * m34 - c3 * m24 + c4 * m23)
                 - (a0 * b2 - a2 * b0) * (c1 * m34 - c3 * m14 + c4 * m13)
                 + (a0 * b3 - a3 * b0) * (c1 * m24 - c2 * m14 + c4 * m12)
                 - (a0 * b4 - a4 * b0) * (c1 * m23 - c2 * m13 + c3 * m12)
                 + (a1 * b2 - a2 * b1) * (c0 * m34 - c3 * m04 + c4 * m03)
                 - (a1 * b3 - a3 * b1) * (c0 * m24 - c2 * m04 + c4 * m02)
                 + (a1 * b4 - a4 * b1) * (c0 * m23 - c2 * m03 + c3 * m02)
                 + (a2 * b3 - a3 * b2) * (c0 * m14 - c1 * m04 + c4 * m01)
                 - (a2 * b4 - a4 * b2) * (c0 * m13 - c1 * m03 + c3 * m01)
                 + (a3 * b4 - a4 * b3) * (c0 * m12 - c1 * m02 + c2 * m01))
        else:
            v = _bareiss([list(row) for row in rows])
        if d != 1:
            return _ratio(v, d ** n)
        result = _new(Fraction)
        _set_numerator(result, v)
        _set_denominator(result, 1)
        return result

    def submatrix(self, sel: MinorSelector) -> "Matrix":
        """The selected rows and columns, whose integer form is the same
        slice of this matrix's form, with this matrix's D."""
        if sel.rows[-1] > self.n or sel.cols[-1] > self.n:
            raise InvalidSelector(f"{sel} exceeds size {self.n}")
        d, b = self._form
        rows, cols = [i - 1 for i in sel.rows], [j - 1 for j in sel.cols]
        return Matrix._trusted(d, tuple(tuple(b[i][j] for j in cols) for i in rows))

    def minor(self, sel: MinorSelector) -> Fraction:
        return self.submatrix(sel).det()

    def minors(self, order: int) -> Iterator[tuple[MinorSelector, Fraction]]:
        """Stream all minors of the given order in lexicographic selector order.

        Row selectors advance in the outer loop, column selectors in the
        inner one, both lexicographically, so enumeration order (and hence
        every first-witness choice downstream) is deterministic. Minors are
        computed on demand; short-circuiting consumers never pay for the
        full stream.

        Each minor is its own ``Matrix`` on a slice of this matrix's form,
        keeping its D, and its own ``det`` call. The stream builds its
        selection table when it starts and keeps nothing after it: each
        1-based index tuple with the ``itemgetter`` that takes it (a
        one-entry slice at order 1, so every getter returns a tuple), which
        picks the chosen rows of the form and then, mapped over them, the
        chosen columns, O(C(n, k)) against the C(n, k)^2 minors it can
        yield. Selectors and minors are filled through their slot setters,
        with no constructor call, and a minor's view slot stays unset.
        """
        n = self.n
        if not (1 <= order <= n):
            raise InvalidSelector(f"minor order {order} outside 1..{n}")
        d, b = self._form
        if order > 1:
            table = list(zip(combinations(range(1, n + 1), order),
                             starmap(itemgetter, combinations(range(n), order))))
        else:
            table = [((i + 1,), itemgetter(slice(i, i + 1))) for i in range(n)]
        for row_sel, take_rows in table:
            chosen = take_rows(b)
            for col_sel, take in table:
                sel = _new(MinorSelector)
                _set_sel_rows(sel, row_sel)
                _set_sel_cols(sel, col_sel)
                minor = _new(Matrix)
                _set_n(minor, order)
                _set_form(minor, (d, tuple(map(take, chosen))))
                yield sel, minor.det()

    def leading_principal_minor(self, k: int) -> Fraction:
        sel = MinorSelector(tuple(range(1, k + 1)), tuple(range(1, k + 1)))
        return self.minor(sel)

    # -- characteristic polynomial ------------------------------------------

    def charpoly(self):
        """Monic characteristic polynomial det(zI - M), exact.

        It reads the zero pattern of the integer form B = D*M, never a
        family label: when ``_band`` finds B tridiagonal or anti-bidiagonal,
        det(zI - B) is the continuant of its band, O(n^2); any other B runs
        division-free Berkowitz (``_berkowitz``), O(n^4). The continuants
        are polynomial identities in the entries, so zero and negative
        entries are covered; Berkowitz and, in the tests, Faddeev-LeVerrier
        over Fractions are their oracles. As c_k(M) = c_k(B) / D^k, the
        polynomial is the integers c_k(B) D^(n-k) over D^n. With every band
        product positive the eigenvalues are real and simple, and p carries
        (D, diagonal, products): the one choice of the continuant route that
        ``squarefree_part`` and ``isolate_real_roots`` take, with no chain.
        """
        from .polynomials import Polynomial

        d, b = self._form
        band = _band(b)
        coeffs = _continuant(*band) if band else _berkowitz(b)
        powers = list(accumulate(repeat(d, self.n), mul, initial=1))  # D^0..D^n
        simple = (d, *band) if band and all(x > 0 for x in band[1]) else None
        return Polynomial._trusted(Fraction(1, powers[-1]),
                                   list(map(mul, coeffs, reversed(powers))), simple)


# The slot descriptors' setters, bound once: how a Matrix fills its slots
# past its own __setattr__, which refuses every assignment, and how a
# Fraction's (numerator, denominator) is filled without running
# ``Fraction.__new__``.
_new = object.__new__
_set_n, _set_form, _set_rows = (Matrix.__dict__[slot].__set__ for slot in Matrix.__slots__)
_set_numerator, _set_denominator = (Fraction.__dict__[slot].__set__
                                    for slot in ("_numerator", "_denominator"))


def _ratio(u: int, v: int) -> Fraction:
    """u / v, v > 0, as a Fraction in lowest terms with its two slots set
    directly: the value, hash and str of ``Fraction(u, v)`` without running
    its constructor."""
    g = gcd(u, v)
    x = _new(Fraction)
    _set_numerator(x, u // g)
    _set_denominator(x, v // g)
    return x


def _row_strings(m: Matrix) -> list[str]:
    """Each row's entries as ``str`` of their Fractions, read off the form:
    the text of every printed matrix (``repr``, documents, reports)."""
    d, b = m._form
    text = str if d == 1 else lambda x: str(_ratio(x, d))
    return [" ".join(map(text, row)) for row in b]


def _band(b: tuple[tuple[int, ...], ...]) -> Optional[tuple[list[int], list[int]]]:
    """(diagonal, products) of a tridiagonal T with det(zI - T) = det(zI - B)
    for the square integer B, read off B's zero pattern, or None:

    - B tridiagonal (zero wherever |i - j| > 1): B's own diagonal and
      products b_(k-1,k) b_(k,k-1).
    - B anti-bidiagonal (nonzero only where i + j is n - 1 or n, 0-based):
      diagonal (z_0, 0, ..., 0) and products z_(-t) z_t, t = 1..n-1, where
      z_0 is the middle entry of the zigzag (n-1, 0), (n-1, 1), (n-2, 1),
      ..., (0, n-1) and z_(-t), z_t are the entries t steps before and
      after it: the form of ``constructors.equivalent_tridiagonal``.

    T's continuants q_k = det(zI - T_k), T_k its leading k x k block, end
    in q_n = det(zI - B).
    """
    n = len(b)
    if all(not any(row[:max(i - 1, 0)]) and not any(row[i + 2:]) for i, row in enumerate(b)):
        return [b[i][i] for i in range(n)], [b[i - 1][i] * b[i][i - 1] for i in range(1, n)]
    if all(not any(row[:n - 1 - i]) and not any(row[n + 1 - i:]) for i, row in enumerate(b)):
        zigzag = [x for t in range(n) for x in b[n - 1 - t][t:t + 2]]
        return ([zigzag[n - 1]] + [0] * (n - 1),
                [zigzag[n - 1 - t] * zigzag[n - 1 + t] for t in range(1, n)])
    return None


def _continuant(diag: Sequence[int], products: Sequence[int]) -> list[int]:
    """det(zI - T), leading first, for the tridiagonal T with diagonal
    ``diag`` and products t_(k-1,k) t_(k,k-1) = ``products[k - 1]``."""
    prev, cur = [1], [1, -diag[0]]
    for a, p in zip(diag[1:], products):
        # q_k = z q_(k-1) - a q_(k-1) - p q_(k-2), each aligned at its tail
        prev, cur = cur, [x - a * y - p * w for x, y, w in
                          zip(cur + [0], [0] + cur, [0, 0] + prev)]
    return cur


def _berkowitz(b: tuple[tuple[int, ...], ...]) -> list[int]:
    """det(zI - B), leading first, for a square integer B by division-free
    Berkowitz (Berkowitz, IPL 18, 1984): only integer + and * run, each
    inner product as one ``sum(map(mul, ...))``."""
    # coeffs of det(zI - B_r) for the leading r x r block, leading first
    coeffs = [1, -b[0][0]]
    for r in range(1, len(b)):
        # B_{r+1} = [[B_r, col], [row, b_rr]]; the Toeplitz column is
        # 1, -b_rr, -row.col, -row.B_r.col, ..., -row.B_r^(r-1).col
        top = [b_i[:r] for b_i in b[:r]]
        row, col = b[r][:r], [b_i[r] for b_i in b[:r]]
        toeplitz = [1, -b[r][r]]
        for k in range(r):
            if k:
                col = [sum(map(mul, t_i, col)) for t_i in top]
            toeplitz.append(-sum(map(mul, row, col)))
        # coefficient i of the product is sum_j toeplitz[i - j] coeffs[j]
        rev = toeplitz[::-1]
        coeffs = [sum(map(mul, rev[r + 1 - i:], coeffs)) for i in range(r + 2)]
    return coeffs


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
    return Matrix._trusted(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def anti_identity(n: int) -> Matrix:
    """The flip J with 1s on the anti-diagonal; det J = (-1)^(n(n-1)/2)."""
    return flip_rows(identity(n))


def flip_rows(m: Matrix) -> Matrix:
    """Reverse row order; equals J*M."""
    d, b = m._form
    return Matrix._trusted(d, b[::-1])


def flip_cols(m: Matrix) -> Matrix:
    """Reverse column order; equals M*J."""
    d, b = m._form
    return Matrix._trusted(d, tuple(row[::-1] for row in b))
