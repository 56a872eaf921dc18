"""Matrix document parsing/serialization and exact decimal rendering."""

from fractions import Fraction as F

import pytest

from interlace import (
    Matrix,
    MatrixDocument,
    ParseError,
    Polynomial,
    anti_bidiagonal,
    AntiBidiagonalSpec,
    build_structured,
    decimal_string,
    format_matrix_document,
    parse_matrix_document,
    parse_polynomial_tokens,
    places_for_width,
)
from interlace.documents import MAX_LITERAL_BITS


# -- parsing ----------------------------------------------------------------


def test_parse_general_document():
    doc = parse_matrix_document("n: 2\nrows:\n1 2\n3 4\n")
    assert doc.matrix == Matrix([[1, 2], [3, 4]])
    assert doc.structure == "general" and doc.params == {}


def test_parse_exact_literals():
    doc = parse_matrix_document("n: 2\nrows:\n0.25 3/7\n1e-3 -2.5\n")
    assert doc.matrix.rows[0] == (F(1, 4), F(3, 7))
    assert doc.matrix.rows[1] == (F(1, 1000), F(-5, 2))


def test_parse_comments_and_blank_lines():
    text = """
    # a comment line
    n: 2          # trailing comment
    rows:
    1 0
            # indented comment between rows
    0 1
    """
    assert parse_matrix_document(text).matrix == Matrix([[1, 0], [0, 1]])


def test_parse_structured_from_params_only():
    doc = parse_matrix_document("n: 3\nstructure: jacobi\na: 2 2 2\nb: 1 1\nc: 1 1\n")
    assert doc.matrix == Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert doc.structure == "jacobi"
    assert doc.params == {"a": (F(2),) * 3, "b": (F(1),) * 2, "c": (F(1),) * 2}


def test_parse_structured_with_matching_rows():
    text = ("n: 2\nstructure: antibidiagonal\na: 5\nb: 2\nc: 3\n"
            "rows:\n0 2\n3 5\n")
    doc = parse_matrix_document(text)
    assert doc.matrix == anti_bidiagonal(AntiBidiagonalSpec(5, (2,), (3,)))


def test_parse_structured_rows_must_match_params():
    text = ("n: 2\nstructure: antibidiagonal\na: 5\nb: 2\nc: 3\n"
            "rows:\n0 2\n3 4\n")
    with pytest.raises(ParseError, match="do not match"):
        parse_matrix_document(text)


def test_parse_structure_tag_with_rows_only():
    doc = parse_matrix_document("n: 2\nstructure: bidiagonal\nrows:\n1 2\n0 3\n")
    assert doc.structure == "bidiagonal" and doc.params == {}
    assert doc.matrix == Matrix([[1, 2], [0, 3]])


def test_parse_error_catalogue():
    bad = [
        ("rows:\n1\n", "missing required header 'n'"),
        ("n: x\nrows:\n1\n", "must be an integer"),
        ("n: 0\nrows:\n", ">= 1"),
        ("n: 2\nstructure: circulant\nrows:\n1 2\n3 4\n", "unknown structure"),
        ("n: 2\nrows:\n1 2\n", "expected 2 rows"),
        ("n: 2\nrows:\n1 2\n3 4 5\n", "entries per row"),
        ("n: 2\nrows:\n1 2\n3 4/0\n", "bad numeric literal"),
        ("n: 2\nrows:\n1 2\nx 4\n", "bad numeric literal"),
        ("n: 2\n", "neither rows nor complete structure"),
        ("n: 2\nn: 3\nrows:\n1 2\n3 4\n", "duplicate header key"),
        ("n: 2\nd: 1 1\nrows:\n1 2\n3 4\n", "unexpected header key"),
        ("n: 2\nstructure: jacobi\na: 1 2\nb: 1\nrows:\n1 1\n1 2\n",
         "missing parameters"),
        ("n: 2\nstructure: jacobi\na: 1\nb: 1\nc: 1\n", "needs 2 values"),
        ("n: 2\nstructure: bidiagonal\nd: 1 0\ne: 1\n", "invalid bidiagonal"),
        ("n: 2\njunk line\nrows:\n1 2\n3 4\n", "expected 'key: value'"),
    ]
    for text, needle in bad:
        with pytest.raises(ParseError, match=needle):
            parse_matrix_document(text)


def test_literal_bit_cap():
    """Numerators and denominators up to MAX_LITERAL_BITS bits parse; one bit
    more is a ParseError, and so is an exponent that would take long to expand."""
    top = 2 ** MAX_LITERAL_BITS - 1
    ok = [str(top), f"-{top}", f"1/{top}", f"{top}/{top - 2}", "1e1233", "1e-1233",
          "0." + "0" * 1232 + "1"]
    for token in ok:
        assert parse_polynomial_tokens(f"1 {token}").coeffs[1] == F(token)
    bad = [str(top + 1), f"1/{top + 1}", "1e1234", "-1e-1234", "1e30000",
           "1e99999999999999999999", "2" * (MAX_LITERAL_BITS + 1)]
    for token in bad:
        with pytest.raises(ParseError, match=f"exceeds {MAX_LITERAL_BITS} bits"):
            parse_polynomial_tokens(f"1 {token}")
        with pytest.raises(ParseError, match=f"exceeds {MAX_LITERAL_BITS} bits"):
            parse_matrix_document(f"n: 1\nrows:\n{token}\n")


def test_build_structured_checks_the_corner_length_itself():
    for a in ((1, 2), ()):
        with pytest.raises(ParseError, match="invalid antibidiagonal parameters: "):
            build_structured("antibidiagonal", {"a": a, "b": (3,), "c": (4,)})


# -- serialization -----------------------------------------------------------------


def test_format_round_trip_general():
    doc = MatrixDocument(Matrix([[F(1, 2), 2], [3, F(-7, 3)]]))
    text = format_matrix_document(doc)
    assert text == "n: 2\nrows:\n1/2 2\n3 -7/3\n"
    assert parse_matrix_document(text) == doc


def test_format_round_trip_each_structure():
    texts = [
        "n: 3\nstructure: bidiagonal\nd: 1 2 3\ne: 4 5\n",
        "n: 3\nstructure: antibidiagonal\na: 2\nb: 3 5\nc: 7 11\n",
        "n: 3\nstructure: jacobi\na: 2 2 2\nb: 1 1\nc: 1 1\n",
        "n: 2\nstructure: antijacobi\na: 1 2\nb: 3\nc: 4\n",
    ]
    for text in texts:
        doc = parse_matrix_document(text)
        again = parse_matrix_document(format_matrix_document(doc))
        assert again == doc, text


def test_document_rejects_unknown_structure():
    with pytest.raises(ParseError):
        MatrixDocument(Matrix([[1]]), structure="circulant")


# -- polynomial tokens --------------------------------------------------------------


def test_parse_polynomial_tokens():
    assert parse_polynomial_tokens("1 -1 -1") == Polynomial([1, -1, -1])
    assert parse_polynomial_tokens("3/2 0.5") == Polynomial([F(3, 2), F(1, 2)])
    with pytest.raises(ParseError):
        parse_polynomial_tokens("   ")
    with pytest.raises(ParseError):
        parse_polynomial_tokens("1 two 3")


# -- decimal rendering -------------------------------------------------------------


def test_decimal_string_nearest():
    assert decimal_string(F(1, 3), 4) == "0.3333"
    assert decimal_string(F(2, 3), 4) == "0.6667"
    assert decimal_string(F(5, 4), 1) == "1.3"     # ties round away from zero
    assert decimal_string(F(-5, 4), 1) == "-1.3"
    assert decimal_string(F(1, 2), 0) == "1"
    assert decimal_string(F(-7, 2), 0) == "-4"
    assert decimal_string(F(1), 3) == "1.000"
    assert decimal_string(F(0), 2) == "0.00"


def test_decimal_string_directed_modes():
    assert decimal_string(F(1, 3), 2, "floor") == "0.33"
    assert decimal_string(F(1, 3), 2, "ceil") == "0.34"
    assert decimal_string(F(-1, 3), 2, "floor") == "-0.34"
    assert decimal_string(F(-1, 3), 2, "ceil") == "-0.33"
    assert decimal_string(F(1, 4), 2, "floor") == "0.25"  # exact stays exact
    assert decimal_string(F(1, 4), 2, "ceil") == "0.25"
    with pytest.raises(ValueError):
        decimal_string(F(1), 2, "toward-noon")
    with pytest.raises(ValueError):
        decimal_string(F(1), -1)


def test_places_for_width():
    assert places_for_width(F(1, 10**9)) == 9
    assert places_for_width(F(1)) == 0
    assert places_for_width(F(1, 2)) == 1
    assert places_for_width(F(1, 10)) == 1
    assert places_for_width(F(3)) == 0


def _places_by_fractions(width: F) -> int:
    """The Fraction definition places_for_width compares in integers."""
    k = 0
    while F(1, 10 ** k) > width and k < 40:
        k += 1
    return k


@pytest.mark.parametrize("width", [
    *(F(1, 10 ** k) for k in range(12)),
    *(F(1, 10 ** k) + F(1, 10 ** (k + 3)) for k in range(12)),
    *(F(1, 10 ** k) - F(1, 10 ** (k + 3)) for k in range(12)),
    F(3, 7), F(1, 10 ** 40), F(1, 10 ** 40 + 1), F(1, 10 ** 41), F(1, 3 * 10 ** 45)])
def test_places_for_width_matches_the_fraction_definition(width):
    assert places_for_width(width) == _places_by_fractions(width)
