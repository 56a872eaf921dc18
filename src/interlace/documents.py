"""The plain-text matrix document format and exact number rendering.

A document is line oriented; ``#`` starts a comment anywhere and blank lines
are ignored. A header of ``key: value`` lines is followed by ``rows:`` and
exactly n rows of n whitespace-separated entries:

    n: 3
    structure: jacobi
    a: 2 2 2
    b: 1 1
    c: 1 1
    rows:
    2 1 0
    1 2 1
    0 1 2

``n`` is required. ``structure`` defaults to ``general``; the structured
tags (``bidiagonal``, ``antibidiagonal``, ``jacobi``, ``antijacobi``) take
the parameter lines shown in STRUCTURE_PARAMS and may omit ``rows:``
entirely, in which case the matrix is rebuilt from the parameters. When a
structured document carries both parameters and rows, the rows must match
the rebuilt matrix exactly; a mismatch is a parse error, not a warning.

Entries are exact: integers, ratios ``p/q``, or finite decimals
(``0.25`` means exactly 1/4). Nothing is ever routed through binary floats.
A numerator or denominator over MAX_LITERAL_BITS bits is a parse error, and
so is a literal longer than MAX_LITERAL_BITS characters; neither is converted,
nor an ``n`` with more significant digits than any document could match, so
parsing stays fast whatever the interpreter's int/str digit limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .constructors import (
    AntiBidiagonalSpec,
    JacobiSpec,
    anti_bidiagonal,
    anti_jacobi,
    bidiagonal_upper,
    jacobi_matrix,
)
from .errors import DimensionMismatch, InterlaceError, ParseError
from .matrices import Matrix, as_fraction
from .polynomials import Polynomial

# structure tag -> ordered parameter keys with required lengths as a function of n
STRUCTURE_PARAMS: dict[str, tuple[tuple[str, str], ...]] = {
    "general": (),
    "bidiagonal": (("d", "n"), ("e", "n-1")),
    "antibidiagonal": (("a", "1"), ("b", "n-1"), ("c", "n-1")),
    "jacobi": (("a", "n"), ("b", "n-1"), ("c", "n-1")),
    "antijacobi": (("a", "n"), ("b", "n-1"), ("c", "n-1")),
}


@dataclass(frozen=True)
class MatrixDocument:
    """A matrix plus the structural metadata it was declared with."""

    matrix: Matrix
    structure: str = "general"
    params: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.structure not in STRUCTURE_PARAMS:
            raise ParseError(f"unknown structure {self.structure!r}")

    @property
    def n(self) -> int:
        return self.matrix.n


def _param_length(expr: str, n: int) -> int:
    return {"1": 1, "n": n, "n-1": n - 1}[expr]


# Largest numerator or denominator, in bits, of a numeric literal (about
# 1233 decimal digits). A larger literal is bad input, rejected before any
# analysis runs: exact arithmetic spends time in proportion to the size of
# its inputs (root isolation starts from a bound as large as the entries),
# and the results could outgrow Python's int-to-str digit limit.
MAX_LITERAL_BITS = 4096

# Most significant digits read as n: a longer n names no matrix a document
# could spell out, and converting it would cost time quadratic in its length.
_MAX_N_DIGITS = 18


def _spelled_size(token: str) -> int:
    """Length of a literal plus the size of its decimal exponent: a bound on
    the work of converting it, read before converting it.

    A literal longer than the cap is over it unread: decimal conversion of a
    long string costs quadratic time, even when it fails.
    """
    if len(token) > MAX_LITERAL_BITS:
        return len(token)
    mantissa, _, exponent = token.lower().partition("e")
    try:
        shift = abs(int(exponent or 0))
    except ValueError:  # not an exponent Fraction accepts either
        shift = 0
    return len(mantissa) + shift


def _parse_value(token: str) -> Fraction:
    """One exact literal; over MAX_LITERAL_BITS is a ParseError.

    A token whose spelled size exceeds MAX_LITERAL_BITS is rejected unread;
    every value under the cap is far shorter in canonical form.
    """
    if _spelled_size(token) <= MAX_LITERAL_BITS:
        try:
            value = as_fraction(token)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"bad numeric literal {token!r}: {exc}") from exc
        if max(value.numerator.bit_length(), value.denominator.bit_length()) <= MAX_LITERAL_BITS:
            return value
    shown = token if len(token) <= 32 else token[:29] + "..."
    raise ParseError(f"numeric literal {shown!r} exceeds {MAX_LITERAL_BITS} bits")


def build_structured(structure: str,
                     params: dict[str, tuple[Fraction, ...]]) -> Matrix:
    """Rebuild the matrix a structured document describes."""
    try:
        if structure == "bidiagonal":
            return bidiagonal_upper(params["d"], params["e"])
        if structure == "antibidiagonal":
            if len(params["a"]) != 1:
                raise DimensionMismatch(
                    f"a takes exactly one value, got {len(params['a'])}")
            return anti_bidiagonal(
                AntiBidiagonalSpec(params["a"][0], params["b"], params["c"]))
        if structure == "jacobi":
            return jacobi_matrix(
                JacobiSpec(params["a"], params["b"], params["c"]))
        if structure == "antijacobi":
            return anti_jacobi(
                JacobiSpec(params["a"], params["b"], params["c"]))
    except InterlaceError as exc:
        raise ParseError(f"invalid {structure} parameters: {exc}") from exc
    raise ParseError(f"structure {structure!r} cannot be built from parameters")


def parse_matrix_document(text: str) -> MatrixDocument:
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)

    header: dict[str, str] = {}
    row_lines: Optional[list[str]] = None
    for line in lines:
        if row_lines is not None:
            row_lines.append(line)
            continue
        if line == "rows:":
            row_lines = []
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value' before rows, got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in header:
            raise ParseError(f"duplicate header key {key!r}")
        header[key] = value.strip()

    if "n" not in header:
        raise ParseError("missing required header 'n'")
    n_text = header.pop("n")
    if len(n_text.lstrip("+-0_")) > _MAX_N_DIGITS:
        raise ParseError(f"n must be an integer of at most {_MAX_N_DIGITS} digits")
    try:
        n = int(n_text)
    except ValueError as exc:
        raise ParseError(f"n must be an integer: {exc}") from exc
    if n < 1:
        raise ParseError("n must be >= 1")

    structure = header.pop("structure", "general")
    if structure not in STRUCTURE_PARAMS:
        raise ParseError(f"unknown structure {structure!r}")

    params: dict[str, tuple[Fraction, ...]] = {}
    expected = dict(STRUCTURE_PARAMS[structure])
    for key, value in header.items():
        if key not in expected:
            raise ParseError(f"unexpected header key {key!r} for structure {structure}")
        values = tuple(_parse_value(tok) for tok in value.split())
        want = _param_length(expected[key], n)
        if len(values) != want:
            raise ParseError(f"parameter {key!r} needs {want} values, got {len(values)}")
        params[key] = values
    if params and len(params) != len(expected):
        missing = sorted(set(expected) - set(params))
        raise ParseError(f"structure {structure} is missing parameters {missing}")

    matrix: Optional[Matrix] = None
    if row_lines is not None:
        if len(row_lines) != n:
            raise ParseError(f"expected {n} rows, got {len(row_lines)}")
        rows = []
        for line in row_lines:
            entries = [_parse_value(tok) for tok in line.split()]
            if len(entries) != n:
                raise ParseError(f"expected {n} entries per row, got {len(entries)}")
            rows.append(entries)
        matrix = Matrix(rows)

    if structure != "general" and params:
        rebuilt = build_structured(structure, params)
        if rebuilt.n != n:
            raise ParseError(f"parameters describe size {rebuilt.n}, header says {n}")
        if matrix is not None and matrix != rebuilt:
            raise ParseError("rows do not match the declared structure parameters")
        matrix = rebuilt
    if matrix is None:
        raise ParseError("document has neither rows nor complete structure parameters")
    return MatrixDocument(matrix, structure, params)


def format_matrix_document(doc: MatrixDocument) -> str:
    """Canonical serialization; parse(format(doc)) reproduces the document."""
    out = [f"n: {doc.n}"]
    if doc.structure != "general":
        out.append(f"structure: {doc.structure}")
        for key, _ in STRUCTURE_PARAMS[doc.structure]:
            if key in doc.params:
                out.append(" ".join([f"{key}:", *(str(v) for v in doc.params[key])]))
    out.append("rows:")
    for row in doc.matrix.rows:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def parse_polynomial_tokens(text: str) -> Polynomial:
    """Whitespace-separated exact coefficients, leading coefficient first."""
    tokens = text.split()
    if not tokens:
        raise ParseError("no polynomial coefficients given")
    return Polynomial([_parse_value(tok) for tok in tokens])


# -- decimal rendering ------------------------------------------------------------


def decimal_string(x: Fraction, places: int, mode: str = "nearest") -> str:
    """Exact decimal rendering of a rational to ``places`` fractional digits.

    mode "nearest" rounds half away from zero; "floor"/"ceil" round toward
    -inf/+inf so interval endpoints can be widened outward safely.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    q = 10 ** places
    num = x.numerator * q
    den = x.denominator
    if mode == "nearest":
        if num >= 0:
            units = (2 * num + den) // (2 * den)
        else:
            units = -((2 * -num + den) // (2 * den))
    elif mode == "floor":
        units = num // den
    elif mode == "ceil":
        units = -((-num) // den)
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    sign = "-" if units < 0 else ""
    units = abs(units)
    whole, frac = divmod(units, q)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def places_for_width(width: Fraction) -> int:
    """Smallest digit count whose resolution 10^-k is <= the width bound,
    capped at 40: past 10^-40 the digit count no longer resolves the width.
    10^-k > width is compared as the integers 10^k num < den."""
    k = 0
    while 10 ** k * width.numerator < width.denominator and k < 40:
        k += 1
    return k
