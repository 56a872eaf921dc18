"""End-to-end command line checks.

Every check runs ``cli.main`` in process through ``conftest.run_cli``. Only
the tests of the process boundary (two runs of the same process, a real
stdin pipe, argparse exiting the process, and the cross-check of the
in-process harness against the process) start ``python -m interlace.cli``
through ``run_process``.
"""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interlace
import interlace.cli
import interlace.matrices
from conftest import run_cli
from interlace import Matrix, flip_rows
from interlace.documents import MatrixDocument, format_matrix_document

GOLDEN_DOC = "n: 2\nrows:\n0 1\n1 1\n"
_WALL_TIME = re.compile(r"^elapsed_seconds: \d+\.\d{6}\n", re.MULTILINE)
# The child process imports the same package as the tests, whether it came
# from PYTHONPATH or from pytest's pythonpath setting.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(interlace.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))}


def run_process(*args, stdin=""):
    """Exit code, stdout and stderr of ``python -m interlace.cli`` in a child
    process, the output decoded strictly with no newline translation."""
    proc = subprocess.run([sys.executable, "-m", "interlace.cli", *args],
                          input=stdin.encode("utf-8"), capture_output=True,
                          env=CHILD_ENV)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def run_json(*args, stdin=""):
    code, out, err = run_cli(*args, "--json", stdin=stdin)
    assert code == 0, (code, err)
    return json.loads(out)


# -- the JSON writer and the rows ---------------------------------------------------

# Report-shaped values: str (non-ASCII, control characters, quotes and
# escapes among them), ints past 64 bits either way, bools and None, in
# lists and str-keyed dicts, empty ones too.
_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\u00e9\u2014\u2028",
                                         "\U0001f600", "\ud800"])
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | _STRINGS | st.integers()
    | st.integers(-(1 << 200), 1 << 200) | st.sampled_from([1 << 64, -(1 << 64) - 1]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=25)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(_STRINGS, _REPORT_VALUES, max_size=6) | _REPORT_VALUES)
def test_json_writer_matches_json_dumps_property(value):
    assert interlace.cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_refuses_types_a_report_never_holds():
    for value in (1.5, (1, 2), {1: "a"}, F(1, 2), {"a": [b"x"]}):
        with pytest.raises(TypeError):
            interlace.cli._json(value)


@pytest.mark.parametrize("rows, d", [
    ([[0, 1, -2], [3, 10 ** 30, 5], [-7, 8, 0]], 1),
    ([[F(1, 2), F(-2, 3), 0], [1, F(5, 6), F(-7, 4)], [F(9, 12), 2, F(1, 3)]], 12),
    ([[F(4, 2), F(6, 3)], [F(-10, 5), 0]], 1),
])
def test_rows_render_from_the_form_as_the_fraction_view_prints(rows, d):
    m = Matrix(rows)
    assert m._form[0] == d and (m * m)._form[0] == d * d
    for shown in (m, flip_rows(m), m * m):
        assert interlace.matrices._row_strings(shown) == [" ".join(str(x) for x in row)
                                                          for row in shown.rows]


# -- envelope and determinism -------------------------------------------------------


def test_spectrum_json_envelope(tmp_path):
    doc = tmp_path / "m.mx"
    doc.write_text(GOLDEN_DOC)
    rep = run_json("spectrum", str(doc))
    assert rep["schema"] == 1
    assert rep["command"] == "spectrum"
    assert str(doc) in rep["command_line"]
    assert len(rep["input_sha256"]) == 64
    assert rep["spectrum"]["verdict"] == "kind_I"
    assert rep["spectrum"]["char_poly"] == "z^2 - z - 1"
    approx = [e["approx"] for e in rep["spectrum"]["eigenvalues"]]
    assert approx == ["1.618033989", "-0.618033989"]
    assert [e["sign"] for e in rep["spectrum"]["eigenvalues"]] == [1, -1]


def test_output_is_byte_identical_across_runs(tmp_path):
    doc = tmp_path / "m.mx"
    doc.write_text(GOLDEN_DOC)
    runs = [run_process("spectrum", str(doc), "--json") for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]
    # wall time goes to stderr only
    assert "elapsed_seconds" in runs[0][2]
    assert "elapsed" not in runs[0][1]


def test_stdin_dash_input():
    code, out, err = run_process("spectrum", "-", "--json", stdin=GOLDEN_DOC)
    assert code == 0, (code, err)
    rep = json.loads(out)
    assert rep["spectrum"]["verdict"] == "kind_I"


def test_text_report_mentions_schema_and_verdict():
    code, out, err = run_cli("spectrum", "-", stdin=GOLDEN_DOC)
    assert code == 0
    assert out.splitlines()[0] == "schema: 1"
    assert "verdict: kind_I" in out


# -- classify ---------------------------------------------------------------------


def test_classify_reports_all_checks():
    rep = run_json("classify", "-", stdin="n: 2\nrows:\n1 2\n3 4\n")
    assert rep["totally_nonnegative"]["holds"] is False
    assert rep["totally_nonnegative"]["violation"] == {
        "rows": [1, 2], "cols": [1, 2], "value": "-2"}
    assert rep["strictly_totally_positive"]["holds"] is False
    assert rep["oscillatory"] is False
    assert rep["sign_classification"]["verdict"] == "strictly_sign_definite"
    assert rep["sign_classification"]["power_exponent"] == 1
    assert rep["corner_conditions"]["applicable"] is True


def test_classify_reads_each_minor_of_a_singular_tnn_input_once(tmp_path, capsys,
                                                              monkeypatch):
    """Neville elimination cannot pass a singular input, but a sign definite
    classification with no negative order already rules out a negative
    minor, so the total nonnegativity scan is not run a second time."""
    doc = tmp_path / "tnn.mx"
    doc.write_text(format_matrix_document(MatrixDocument(interlace.random_tnn(7, 0))))
    minors, read = interlace.Matrix.minors, []

    def counted(m, order):
        for item in minors(m, order):
            read.append(item)
            yield item

    monkeypatch.setattr(interlace.Matrix, "minors", counted)
    assert interlace.cli.main(["classify", str(doc), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["totally_nonnegative"] == {"holds": True, "violation": None}
    assert rep["sign_classification"]["verdict"] == "sign_definite_class_n"
    assert len(read) == 3438


def test_power_cap_is_a_usage_error():
    """The class n+ search always runs to its deciding exponent; no flag
    limits it."""
    for command in ("classify", "jflip"):
        code, out, err = run_cli(command, "-", "--power-cap", "2", stdin=GOLDEN_DOC)
        assert (code, out) == (2, ""), (command, err)
        assert "unrecognized arguments: --power-cap" in err, command


def test_classify_skips_corners_on_negative_entries():
    rep = run_json("classify", "-", stdin="n: 1\nrows:\n-1\n")
    assert rep["corner_conditions"] == {"applicable": False}


# -- jflip ------------------------------------------------------------------------


def test_jflip_full_pass():
    rep = run_json("jflip", "-", stdin="n: 2\nrows:\n1 1\n0 1\n")
    cert = rep["certificate"]
    assert cert["passed"] is True and cert["failed_stage"] is None
    assert [s["status"] for s in cert["stages"]] == ["pass"] * 6
    assert cert["flipped"] == ["0 1", "1 1"]
    assert cert["spectrum"]["verdict"] == "kind_I"
    assert cert["sign_classification"]["verdict"] == "class_n_plus"


def test_jflip_right_side_and_failure_path():
    rep = run_json("jflip", "-", "--side", "right",
                   stdin="n: 2\nrows:\n1 1\n0 1\n")
    assert rep["certificate"]["passed"] is True
    assert rep["certificate"]["flipped"] == ["1 1", "1 0"]

    bad = run_json("jflip", "-", stdin="n: 2\nrows:\n1 2\n3 4\n")
    assert bad["certificate"]["passed"] is False
    assert bad["certificate"]["failed_stage"] == "totally_nonnegative"
    statuses = [s["status"] for s in bad["certificate"]["stages"]]
    assert statuses == ["fail"] + ["skipped"] * 5
    assert bad["certificate"]["spectrum"] is None


# -- spectrum options ---------------------------------------------------------------


def test_spectrum_tol_bounds_enclosure_width():
    rep = run_json("spectrum", "-", "--tol", "1/1000000000000",
                   stdin=GOLDEN_DOC)
    assert rep["spectrum"]["width_bound"] == "1/1000000000000"
    for eig in rep["spectrum"]["eigenvalues"]:
        width = F(eig["hi"]) - F(eig["lo"])
        assert width <= F(1, 10**12)
        assert eig["width"] == str(width)


def test_spectrum_kind_request():
    rep = run_json("spectrum", "-", "--kind", "II", stdin=GOLDEN_DOC)
    assert rep["requested_kind"] == "II"
    assert rep["matches_requested_kind"] is False
    rep = run_json("spectrum", "-", "--kind", "I", stdin=GOLDEN_DOC)
    assert rep["matches_requested_kind"] is True


def test_spectrum_plot_data(tmp_path):
    out = tmp_path / "eigs.dat"
    run_json("spectrum", "-", "--plot-data", str(out), stdin=GOLDEN_DOC)
    lines = out.read_text().splitlines()
    assert lines[0] == "# index lo hi sign"
    assert len(lines) == 3
    for idx, line in enumerate(lines[1:], start=1):
        i, lo, hi, sign = line.split()
        assert int(i) == idx
        assert F(lo) <= F(hi)
        assert sign in {"-1", "0", "1"}
    # outward rounding: first eigenvalue bracket still contains the root
    _, lo, hi, _ = lines[1].split()
    assert F(lo) < F("1.618033988749894849") and F(hi) > F("1.618033988749894848")


_GOLDEN_PLOT = ("# index lo hi sign\n1 1.618033988401 1.618033989333 1\n"
                "2 -0.618033989333 -0.618033988401 -1\n")


def test_plot_data_files_are_pinned(tmp_path, capsys):
    """Plot tables byte for byte, for both commands, both flip sides, a
    repeated eigenvalue and widths from 1e-20 to the default."""
    positive = tmp_path / "positive.mx"
    assert interlace.cli.main(["construct", "random-positive-tnn",
                               "--n", "4", "--seed", "2"]) == 0
    positive.write_text(capsys.readouterr().out)
    golden, upper, repeated = (tmp_path / "golden.mx", tmp_path / "upper.mx",
                               tmp_path / "repeated.mx")
    golden.write_text(GOLDEN_DOC)
    upper.write_text("n: 2\nrows:\n1 1\n0 1\n")
    repeated.write_text("n: 3\nrows:\n2 1 0\n0 2 0\n0 0 1\n")
    cases = [
        (["spectrum", str(golden)], _GOLDEN_PLOT),
        (["jflip", str(upper)], _GOLDEN_PLOT),
        (["spectrum", str(positive), "--tol", "1/1000"],
         "# index lo hi sign\n1 1248.893554 1248.894532 1\n"
         "2 189.593750 189.594727 1\n3 0.509765 0.510743 1\n"
         "4 0.000000 0.000977 1\n"),
        (["jflip", str(positive), "--side", "right", "--tol", "1e-20"],
         "# index lo hi sign\n"
         "1 711.58633441859478393243004 711.58633441859478393243683 1\n"
         "2 -30.88357816839152772205621 -30.88357816839152772204942 -1\n"
         "3 0.30529239101732760607840 0.30529239101732760608519 1\n"
         "4 -0.00804864122058381646581 -0.00804864122058381645902 -1\n"),
        (["spectrum", str(repeated)],
         "# index lo hi sign\n1 2.000000000000 2.000000000000 1\n"
         "2 0.999999999767 1.000000000466 1\n"),
    ]
    plot = tmp_path / "eigs.dat"
    for argv, expected in cases:
        assert interlace.cli.main([*argv, "--plot-data", str(plot)]) == 0, argv
        assert plot.read_text() == expected, argv
    capsys.readouterr()


def test_plot_data_of_a_failed_certificate_is_the_header_alone(tmp_path, capsys):
    doc, plot = tmp_path / "m.mx", tmp_path / "eigs.dat"
    doc.write_text("n: 2\nrows:\n1 2\n3 4\n")
    assert interlace.cli.main(["jflip", str(doc), "--json",
                               "--plot-data", str(plot)]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["spectrum"] is None
    assert plot.read_text() == "# index lo hi sign\n"


def test_plot_data_and_tol_are_checked_before_any_analysis(tmp_path, capsys,
                                                         monkeypatch):
    """An unwritable plot path or a bad width bound exits 2 with nothing on
    stdout, no analysis run and no plot file written."""
    calls = []
    for name in ("jflip_si_certificate", "spectrum_report"):
        original = getattr(interlace.cli, name)
        monkeypatch.setattr(interlace.cli, name, lambda *a, original=original, **k:
                            calls.append(original) or original(*a, **k))
    doc, plot = tmp_path / "m.mx", tmp_path / "eigs.dat"
    doc.write_text(GOLDEN_DOC)
    for command in ("jflip", "spectrum"):
        for extra in (["--plot-data", str(tmp_path / "missing" / "eigs.dat")],
                      ["--plot-data", str(plot), "--tol", "0"],
                      ["--plot-data", ""]):
            assert interlace.cli.main([command, str(doc), *extra]) == 2, extra
            out, err = capsys.readouterr()
            assert out == "" and "error:" in err, (command, extra, err)
    assert calls == [] and not plot.exists()
    assert interlace.cli.main(["spectrum", str(doc), "--plot-data", str(plot)]) == 0
    assert len(calls) == 1 and plot.read_text() == _GOLDEN_PLOT


# -- poly -------------------------------------------------------------------------


def test_poly_inline_coefficients():
    rep = run_json("poly", "--coeffs", "1 -1 -1")
    assert rep["degree"] == 2
    assert rep["coefficients"] == ["1", "-1", "-1"]
    assert rep["leading_sign_flipped"] is False
    assert rep["twist_coefficients"] == ["1", "1", "1"]
    assert rep["hurwitz_minors_of_twist"] == ["1", "1"]
    assert rep["twist_hurwitz_stable"] is True
    assert rep["self_interlacing_kind_I"] is True
    assert rep["self_interlacing_kind_II"] is False


def test_poly_negative_leading_is_normalized():
    rep = run_json("poly", "--coeffs", "-1 1 1")
    assert rep["leading_sign_flipped"] is True
    assert rep["twist_coefficients"] == ["1", "1", "1"]
    assert rep["self_interlacing_kind_I"] is True


def test_poly_kind_flag_and_file_input(tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("1 -1 -2 1\n")
    rep = run_json("poly", str(src), "--kind", "I")
    assert rep["requested_kind"] == "I"
    assert rep["requested_kind_result"] is True
    assert rep["self_interlacing_kind_II"] is False


def test_poly_takes_a_file_or_coeffs_but_not_both(tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("1 -1 -2 1\n")
    for args in (("poly", str(src), "--coeffs", "1 -1 -1"),
                 ("poly", "--coeffs", "1 -1 -1", str(src))):
        code, out, err = run_cli(*args)
        assert (code, out) == (2, ""), (args, err)
        assert "not allowed with argument" in err, args
    code, out, err = run_cli("poly")
    assert (code, out) == (2, "") and "poly needs an input file or --coeffs" in err


def test_poly_decides_both_kinds_with_no_gcd(euclid_walks, capsys):
    assert interlace.cli.main(["poly", "--coeffs", "1 -1 -1"]) == 0
    assert "self_interlacing_kind_I: true" in capsys.readouterr().out
    assert euclid_walks == []


def test_poly_reads_twist_stability_from_its_minors(monkeypatch, capsys):
    """twist_hurwitz_stable is "every Hurwitz minor of the twist > 0", which
    hurwitz_stable(twist) decides again on its own; only kind II calls it."""
    from interlace.polynomials import hurwitz_stable, si_twist
    rng = interlace.SplitMix64(89)
    polys = [[1, 1, 1, 1], [1, -1, -1], [-1, 1, 1], [2, 0, -3, 0], [1, 0, 1], [1, 2, 1]]
    polys += [[rng.below(9) - 4 or 1] + [rng.below(9) - 4 for _ in range(rng.below(7))]
              for _ in range(60)]
    calls = []
    monkeypatch.setattr(interlace.polynomials, "hurwitz_stable",
                        lambda p: calls.append(p) or hurwitz_stable(p))
    stable = set()
    for coeffs in polys:
        p = interlace.Polynomial(coeffs)
        if p.degree < 1:
            continue
        calls.clear()
        assert interlace.cli.main(["poly", "--coeffs", " ".join(map(str, coeffs)),
                                   "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        twist = si_twist(-p if p.coeffs[0] < 0 else p)
        assert rep["twist_hurwitz_stable"] is hurwitz_stable(twist), coeffs
        assert calls in ([], [si_twist(p.compose_neg())])
        stable.add(rep["twist_hurwitz_stable"])
    assert stable == {True, False}


# -- construct --------------------------------------------------------------------


def test_construct_antibidiagonal_document():
    code, out, err = run_cli("construct", "antibidiagonal",
                             "--a", "2", "--b", "3 5", "--c", "7 11")
    assert code == 0
    assert out == ("n: 3\nstructure: antibidiagonal\na: 2\nb: 3 5\nc: 7 11\n"
                   "rows:\n0 0 5\n0 2 3\n11 7 0\n")


def test_construct_tridiagonal_equivalent_document():
    code, out, err = run_cli("construct", "tridiagonal-equivalent",
                             "--a", "5", "--b", "2", "--c", "3")
    assert code == 0
    assert out == ("n: 2\nstructure: jacobi\na: 5 0\nb: 2\nc: 3\n"
                   "rows:\n5 2\n3 0\n")


def test_construct_structured_documents_are_pinned():
    cases = {
        ("bidiagonal", "--d", "1 2 3", "--e", "4 5"):
            "n: 3\nstructure: bidiagonal\nd: 1 2 3\ne: 4 5\n"
            "rows:\n1 4 0\n0 2 5\n0 0 3\n",
        ("jacobi", "--a", "1 1/2", "--b", "0.25", "--c", "-3"):
            "n: 2\nstructure: jacobi\na: 1 1/2\nb: 1/4\nc: -3\n"
            "rows:\n1 1/4\n-3 1/2\n",
        ("antijacobi", "--a", "1 2 3", "--b", "4,5", "--c", "6 7"):
            "n: 3\nstructure: antijacobi\na: 1 2 3\nb: 4 5\nc: 6 7\n"
            "rows:\n0 4 1\n5 2 6\n3 7 0\n",
    }
    for args, expected in cases.items():
        code, out, err = run_cli("construct", *args)
        assert (code, out) == (0, expected), (args, err)


def test_construct_exit_code_two_per_family():
    """One missing flag and one invalid parameter for every family."""
    cases = [
        ("bidiagonal", "--d", "1 2"),
        ("bidiagonal", "--d", "1 2", "--e", "1 2"),
        ("antibidiagonal", "--a", "1", "--b", "1"),
        ("antibidiagonal", "--a", "1 2", "--b", "1", "--c", "1"),
        ("tridiagonal-equivalent", "--b", "1", "--c", "1"),
        ("tridiagonal-equivalent", "--a", "1", "--b", "-1", "--c", "1"),
        ("tridiagonal-equivalent", "--a", "", "--b", "1", "--c", "1"),
        ("tridiagonal-equivalent", "--a", "1 2", "--b", "1", "--c", "1"),
        ("jacobi", "--b", "1", "--c", "1"),
        ("jacobi", "--a", "1 2", "--b", "1 2", "--c", "1"),
        ("antijacobi", "--a", "1 2", "--c", "1"),
        ("antijacobi", "--a", "1 2", "--b", "x", "--c", "1"),
        ("random-tnn",),
        ("random-tnn", "--n", "0"),
        ("random-positive-tnn", "--seed", "3"),
        ("random-positive-tnn", "--n", "-1"),
        ("random-oscillatory",),
        ("random-oscillatory", "--n", "0"),
        ("jacobi", "--a", "", "--b", "", "--c", ""),
        ("antibidiagonal", "--a", "", "--b", "1", "--c", "1"),
        ("jacobi", "--a", "1/0", "--b", "", "--c", ""),
    ]
    # one flag the family does not take, per family
    foreign = {
        ("bidiagonal", "--d", "1 2", "--e", "1", "--a", "1"): "a",
        ("antibidiagonal", "--a", "1", "--b", "1", "--c", "1", "--seed", "0"): "seed",
        ("tridiagonal-equivalent", "--a", "1", "--b", "1", "--c", "1", "--d", "1"): "d",
        ("jacobi", "--a", "1", "--b", "", "--c", "", "--d", "5", "--n", "9"): "n",
        ("antijacobi", "--a", "1", "--b", "", "--c", "", "--e", "2"): "e",
        ("random-tnn", "--n", "2", "--a", "1", "--e", "7"): "a",
        ("random-positive-tnn", "--n", "2", "--seed", "1", "--d", "1"): "d",
        ("random-oscillatory", "--n", "2", "--c", "1"): "c",
    }
    for args in cases + list(foreign):
        code, out, err = run_cli("construct", *args)
        assert (code, out) == (2, ""), (args, err)
        assert err.startswith("error:"), (args, err)
        if args in foreign:
            assert err.startswith(f"error: {args[0]} does not take --{foreign[args]}\n"), err


def test_construct_one_by_one_structured_documents_classify():
    """n = 1 needs empty off-diagonal lists; the output is canonical (no
    trailing whitespace) and reads back to the same matrix."""
    cases = [
        (("jacobi", "--a", "1", "--b", "", "--c", ""), 1),
        (("antijacobi", "--a", "1", "--b", "", "--c", ""), 1),
        (("antibidiagonal", "--a", "1", "--b", "", "--c", ""), 1),
        (("bidiagonal", "--d", "2", "--e", ""), 2),
    ]
    for args, entry in cases:
        code, out, err = run_cli("construct", *args)
        assert code == 0 and out.startswith("n: 1\n"), (args, err)
        assert all(line == line.rstrip() for line in out.splitlines()), (args, out)
        doc = interlace.parse_matrix_document(out)
        assert doc.matrix == interlace.Matrix([[entry]]), (args, out)
        assert interlace.format_matrix_document(doc) == out, (args, out)
        code, _, err = run_cli("classify", "-", stdin=out)
        assert code == 0, (args, err)


def test_construct_random_is_deterministic_and_pipes_into_classify():
    first = run_cli("construct", "random-positive-tnn", "--n", "3", "--seed", "7")
    second = run_cli("construct", "random-positive-tnn", "--n", "3", "--seed", "7")
    assert first[0] == second[0] == 0 and first[1] == second[1]
    rep = run_json("classify", "-", stdin=first[1])
    assert rep["totally_nonnegative"]["holds"] is True
    assert rep["oscillatory"] is True
    spec = run_json("spectrum", "-", stdin=first[1])
    assert spec["spectrum"]["verdict"] == "neither"  # unflipped, not kind I


def test_construct_seed_changes_output():
    a = run_cli("construct", "random-tnn", "--n", "4", "--seed", "1")
    b = run_cli("construct", "random-tnn", "--n", "4", "--seed", "2")
    assert a[0] == b[0] == 0 and a[1] != b[1]


# -- failure modes ------------------------------------------------------------------


def test_exit_code_two_on_bad_input(tmp_path):
    cases = [
        ("spectrum", str(tmp_path / "missing.mx")),
        ("classify", "-"),                       # bad literal via stdin below
        ("poly", "--coeffs", "0"),               # zero polynomial
        ("poly", "--coeffs", "5"),               # degree zero has no pattern
        ("spectrum", "-", "--tol", "-1"),
        ("construct", "random-tnn"),             # missing --n
        ("construct", "bidiagonal", "--d", "1 0", "--e", "1"),
        ("spectrum", "-", "--tol", ""),          # empty tolerance is no default
        ("jflip", "-", "--power-cap", "0"),      # no such flag; A fails stage 1
        ("jflip", "-", "--power-cap", "0"),      # no such flag; A passes
        ("spectrum", "-", "--tol", "1/0"),       # zero denominator in a flag
        ("jflip", "-", "--tol", "1/0"),
        ("construct", "jacobi", "--a", "1/0", "--b", "", "--c", ""),
        ("jflip", "-", "--tol", "0"),
    ]
    stdins = {1: "n: 2\nrows:\n1 2\nx 4\n", 4: GOLDEN_DOC, 7: GOLDEN_DOC,
              8: "n: 2\nrows:\n1 2\n3 4\n", 9: "n: 2\nrows:\n1 1\n0 1\n",
              10: GOLDEN_DOC, 11: GOLDEN_DOC, 13: GOLDEN_DOC}
    messages = {3: "error: the constant 5 has no roots to interlace",
                4: "error: width bound must be positive",
                13: "error: width bound must be positive"}
    for i, args in enumerate(cases):
        code, out, err = run_cli(*args, stdin=stdins.get(i, ""))
        assert (code, out) == (2, ""), (args, code, err)
        assert "error:" in err, args
        assert messages.get(i, "") in err, (args, err)


def test_oversized_literal_fails_before_any_analysis(tmp_path, capsys):
    """A literal over the bit cap exits 2 with empty stdout at parse time; a
    1x1 document with entry 1e30000 used to keep spectrum busy for seconds."""
    doc, golden = tmp_path / "huge.mx", tmp_path / "golden.mx"
    doc.write_text("n: 1\nrows:\n1e30000\n")
    golden.write_text(GOLDEN_DOC)
    cases = [["classify", str(doc)], ["jflip", str(doc)], ["spectrum", str(doc)],
             ["poly", "--coeffs", "1 1e30000"], ["spectrum", str(golden), "--tol", "1e-30000"]]
    for argv in cases:
        start = time.perf_counter()
        code = interlace.cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert "exceeds 4096 bits" in err, argv
        assert elapsed < 1, (argv, elapsed)
    code, out, err = run_process("spectrum", str(doc))
    assert (code, out) == (2, "") and "exceeds" in err


def test_spectrum_of_eigenvalues_far_apart(tmp_path):
    """diag(2^1100, 2, 1): 1,101-bit entries, far under the literal cap, but
    separating 2 from 2^1100 takes about 1,100 halvings of the root box."""
    doc = tmp_path / "far.mx"
    doc.write_text(f"n: 3\nrows:\n{2 ** 1100} 0 0\n0 2 0\n0 0 1\n")
    eigenvalues = run_json("spectrum", str(doc))["spectrum"]["eigenvalues"]
    assert len(eigenvalues) == 3
    for entry, root in zip(eigenvalues, (2 ** 1100, 2, 1)):
        assert F(entry["lo"]) <= root <= F(entry["hi"]) and entry["sign"] == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_reports_print_whole_integers_under_a_low_digit_limit(tmp_path, capsys):
    """An analysis that ran renders in full whatever sys.int_max_str_digits
    is; main restores the caller's limit afterwards."""
    doc = tmp_path / "wide.mx"
    doc.write_text("n: 2\nrows:\n1e700 0\n0 1\n")
    runs = {}
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (saved, 640):
            sys.set_int_max_str_digits(limit)
            for extra in ([], ["--json"]):
                code = interlace.cli.main(["spectrum", str(doc), *extra])
                runs[limit, tuple(extra)] = (code, capsys.readouterr().out)
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(saved)
    for extra in ((), ("--json",)):
        assert runs[640, extra] == runs[saved, extra]
        assert runs[640, extra][0] == 0
    assert str(10 ** 700) in runs[640, ()][1]


def test_long_numbers_fail_fast_with_the_digit_limit_lifted(tmp_path, capsys):
    """Decimal conversion of a long string costs quadratic time even when it
    fails, so an overlong n or literal is rejected before conversion."""
    digits = "9" * 10 ** 6 + "x"
    bodies = [f"n: {digits}\nrows:\n1\n", f"n: 1\nrows:\n1e{digits}\n",
              f"n: 1\nrows:\n1e{'0_' * 10 ** 6}7\n", f"n: 1\nrows:\n{digits}\n"]
    doc = tmp_path / "long.mx"
    for body in bodies:
        doc.write_text(body)
        start = time.perf_counter()
        code = interlace.cli.main(["spectrum", str(doc)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), err[:80]
        assert elapsed < 1, (body[:20], elapsed)
    doc.write_text("n: 00000000000000000003\nrows:\n1 0 0\n0 1 0\n0 0 1\n")
    assert interlace.cli.main(["classify", str(doc)]) == 0


def test_exit_code_two_on_usage_errors():
    assert run_process("no-such-command")[0] == 2
    assert run_process("spectrum")[0] == 2           # missing input operand
    assert run_process("jflip", "-", "--side", "up", stdin=GOLDEN_DOC)[0] == 2


def test_structured_mismatch_is_input_error():
    text = "n: 2\nstructure: antibidiagonal\na: 5\nb: 2\nc: 3\nrows:\n0 2\n3 4\n"
    code, out, err = run_cli("classify", "-", stdin=text)
    assert code == 2 and "do not match" in err


# -- exit-code contract --------------------------------------------------------------


def test_exit_code_three_comes_from_a_failed_cross_check(monkeypatch, capsys, tmp_path):
    """With is_self_interlacing made to answer kind I for diag(1, 2), whose
    eigenvalues do not alternate in sign, the enclosures disagree, and the
    cross-check turns that into exit 3 with nothing on stdout."""
    doc = tmp_path / "diag.mx"
    doc.write_text("n: 2\nrows:\n1 0\n0 2\n")
    assert interlace.cli.main(["spectrum", str(doc)]) == 0
    assert "verdict: neither" in capsys.readouterr().out
    monkeypatch.setattr(interlace.spectra, "is_self_interlacing", lambda p, kind: True)
    assert interlace.cli.main(["spectrum", str(doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal invariant violation"), err


_SOUP = st.sampled_from([
    "n:", "n: 2", "n: 3", "rows:", "structure:", "jacobi", "antibidiagonal",
    "a:", "b:", "c:", "d:", "e:", "0", "1", "-1", "2", "1/2", "1/0", "0.25",
    "1e3", "1e5000", "-0", "x", "#", ":", "/", " ", "\t", "\n", "\n", "\n"])
_DOCUMENTS = st.one_of(
    st.lists(_SOUP, max_size=40).map(lambda toks: "".join(toks).encode()),
    st.binary(max_size=40),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n),
        min_size=n, max_size=n)).map(
        lambda rows: format_matrix_document(MatrixDocument(interlace.Matrix(rows))).encode()))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=_DOCUMENTS)
def test_exit_code_contract_on_any_document(fuzz_dir, data):
    """Any input ends in exit 0, or in exit 2 with nothing on stdout and an
    error line on stderr; no exception escapes main."""
    doc = fuzz_dir / "doc.mx"
    doc.write_bytes(data)
    coeffs = data.decode("utf-8", "replace").replace("rows:", "").replace("n:", "")
    for argv in (["classify", str(doc)], ["jflip", str(doc)],
                 ["jflip", str(doc), "--side", "right"], ["spectrum", str(doc)],
                 ["poly", f"--coeffs={coeffs}"]):
        code, out, err = run_cli(*argv)
        assert code in (0, 2), (argv, data, err)
        if code == 2:
            assert out == "" and "error:" in err, (argv, data)


# -- the process boundary -------------------------------------------------------------


def test_in_process_runs_match_the_process(tmp_path):
    """``run_cli`` gives what ``python -m interlace.cli`` gives: the same exit
    code, the same stdout bytes, and the same stderr once the wall-time line
    is dropped."""
    doc = tmp_path / "m.mx"
    doc.write_text(GOLDEN_DOC)
    cases = [
        (("spectrum", str(doc), "--json"), ""),
        (("spectrum", "-"), GOLDEN_DOC),
        (("classify", "-"), "n: 2\nrows:\n1 2\nx 4\n"),
        (("no-such-command",), ""),
        (("construct", "random-positive-tnn", "--n", "3", "--seed", "7"), ""),
    ]
    codes, usage = set(), False
    for argv, stdin in cases:
        runs = [run(*argv, stdin=stdin) for run in (run_cli, run_process)]
        (code, out, err), (pcode, pout, perr) = runs
        assert (code, out) == (pcode, pout), argv
        assert _WALL_TIME.sub("", err) == _WALL_TIME.sub("", perr), (argv, err, perr)
        codes.add(code)
        usage |= err.startswith("usage:")
    assert codes == {0, 2} and usage
