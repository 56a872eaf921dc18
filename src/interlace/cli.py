"""Batch command line front end.

Five subcommands: ``classify`` (minor-based checks on one matrix), ``jflip``
(the staged flip certificate), ``spectrum`` (kind verdict plus certified
eigenvalue enclosures), ``poly`` (twist and stability analysis of a
polynomial), ``construct`` (emit a matrix document for a structured or
seeded-random family).

Reports carry ``schema: 1`` and are deterministic byte for byte for a given
input, seed, and tolerance: the only nondeterministic quantity (wall time)
goes to stderr. Exit code 0 means the analysis ran (verdicts live in the
report, a "no" is still exit 0); 2 means bad input; 3 means an internal
cross-check failed and the output cannot be trusted.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Optional

from .classification import (
    JFlipCertificate,
    SignClassification,
    check_corner_conditions,
    classify_sign_definite,
    is_oscillatory,
    jflip_si_certificate,
    stp_violation,
    tnn_violation,
)
from .constructors import (
    random_oscillatory,
    random_positive_tnn,
    random_tnn,
)
from .documents import (
    STRUCTURE_PARAMS,
    MatrixDocument,
    _parse_value,
    build_structured,
    decimal_string,
    format_matrix_document,
    parse_matrix_document,
    parse_polynomial_tokens,
    places_for_width,
)
from .errors import (
    InterlaceError,
    InternalInvariantViolation,
    NonnegativityViolated,
    ParseError,
)
from .matrices import Matrix
from .polynomials import SIKind, hurwitz_minors, is_self_interlacing, si_twist
from .spectra import DEFAULT_WIDTH_BOUND, SpectrumReport, as_width_bound, spectrum_report

# -- input plumbing ---------------------------------------------------------


def _read_source(path: str) -> tuple[str, bytes]:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8"), data
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tolerance(args) -> Fraction:
    """--tol, parsed and checked positive before any analysis runs."""
    return as_width_bound(DEFAULT_WIDTH_BOUND if args.tol is None
                          else _parse_value(args.tol))


def _plot_file(args):
    """--plot-data opened for writing before any analysis runs, so a path
    that cannot be written fails having done no work; a null context that
    gives None without the flag. An empty path is a path, and fails to open."""
    if args.plot_data is None:
        return nullcontext()
    return open(args.plot_data, "w", encoding="utf-8")


def _values(text: str) -> tuple[Fraction, ...]:
    """Exact values from a flag, read like document literals; empty for
    n = 1 off-diagonals, and the builders enforce every length."""
    return tuple(_parse_value(tok) for tok in text.replace(",", " ").split())


# -- report rendering --------------------------------------------------------


def _scalar(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _text_lines(key: str, value, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        out = [f"{pad}{key}:"]
        for k, v in value.items():
            out.extend(_text_lines(k, v, indent + 1))
        return out
    if isinstance(value, list):
        if not value:
            return [f"{pad}{key}: (none)"]
        if all(not isinstance(x, (dict, list)) for x in value):
            scalars = [_scalar(x) for x in value]
            if any(" " in s for s in scalars):
                return [f"{pad}{key}:"] + [f"{pad}  - {s}" for s in scalars]
            return [f"{pad}{key}: " + " ".join(scalars)]
        out = [f"{pad}{key}:"]
        for item in value:
            if isinstance(item, dict):
                out.append(f"{pad}  -")
                for k, v in item.items():
                    out.extend(_text_lines(k, v, indent + 2))
            elif isinstance(item, list):
                out.append(f"{pad}  - " + " ".join(_scalar(x) for x in item))
            else:
                out.append(f"{pad}  - {_scalar(item)}")
        return out
    return [f"{pad}{key}: {_scalar(value)}"]


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    lines: list[str] = []
    for key, value in report.items():
        lines.extend(_text_lines(key, value, 0))
    sys.stdout.write("\n".join(lines) + "\n")


def _envelope(command: str, argv: list[str], digest: str) -> dict:
    return {
        "schema": 1,
        "command": command,
        "command_line": " ".join(argv),
        "input_sha256": digest,
    }


def _matrix_rows(m: Matrix) -> list[str]:
    return [" ".join(str(x) for x in row) for row in m.rows]


def _violation_block(viol) -> Optional[dict]:
    if viol is None:
        return None
    sel, val = viol
    return {"rows": list(sel.rows), "cols": list(sel.cols), "value": str(val)}


def _classification_block(cls: SignClassification) -> dict:
    conflict = None
    if cls.conflict is not None:
        conflict = {
            "order": cls.conflict.order,
            "positive": _violation_block(cls.conflict.positive),
            "negative": _violation_block(cls.conflict.negative),
        }
    return {
        "verdict": cls.verdict.value,
        "signature": list(cls.signature),
        "power_exponent": cls.power_exponent,
        "power_cap": cls.power_cap,
        "certified_within_cap": cls.is_class_n_plus,
        "conflict": conflict,
    }


def _spectrum_block(report: SpectrumReport) -> dict:
    places = places_for_width(report.width_bound)
    eigenvalues = []
    for idx, box in enumerate(report.boxes, start=1):
        eigenvalues.append({
            "index": idx,
            "lo": str(box.lo),
            "hi": str(box.hi),
            "approx": decimal_string(box.midpoint, places),
            "sign": box.sign,
            "width": str(box.width),
        })
    return {
        "char_poly": str(report.char_poly),
        "char_poly_coefficients": [str(c) for c in report.char_poly.coeffs],
        "degree": report.degree,
        "verdict": report.verdict.value,
        "modulus_tie": report.modulus_tie,
        "squarefree": report.squarefree,
        "order_certified": not report.modulus_tie,
        "width_bound": str(report.width_bound),
        "distinct_real_roots": report.distinct_real_roots,
        "signs": list(report.signs),
        "eigenvalues": eigenvalues,
    }


def _write_plot_data(fh, report: Optional[SpectrumReport]) -> None:
    """One 'index lo hi sign' line per enclosure under a header line; the
    header alone when no spectrum was computed."""
    lines = ["# index lo hi sign"]
    if report is not None:
        places = places_for_width(report.width_bound) + 3
        for idx, box in enumerate(report.boxes, start=1):
            lines.append(f"{idx} {decimal_string(box.lo, places, 'floor')} "
                         f"{decimal_string(box.hi, places, 'ceil')} {box.sign}")
    fh.write("\n".join(lines) + "\n")


# -- subcommands -----------------------------------------------------------------


def _cmd_classify(args, argv: list[str]) -> int:
    text, raw = _read_source(args.input)
    doc = parse_matrix_document(text)
    m = doc.matrix
    report = _envelope("classify", argv, _digest(raw))
    cls = classify_sign_definite(m)
    # a sign definite matrix with no negative order has every minor >= 0, so
    # only other inputs need the scan's first negative minor
    tnn = (None if cls.is_sign_definite and -1 not in cls.signature
           else tnn_violation(m))
    stp = stp_violation(m)
    try:
        corners = check_corner_conditions(m)
    except NonnegativityViolated:
        corner_block: dict = {"applicable": False}
    else:
        corner_block = {"applicable": True}
        for side, witnesses in (("left", corners.left), ("right", corners.right)):
            corner_block[side] = {
                "holds": corners.holds,
                "failing_indices": list(corners.failing_indices(side)),
                "witnesses": [list(w) if w else None for w in witnesses],
            }
    report.update({
        "n": m.n,
        "structure": doc.structure,
        "matrix": _matrix_rows(m),
        "totally_nonnegative": {"holds": tnn is None,
                                "violation": _violation_block(tnn)},
        "strictly_totally_positive": {"holds": stp is None,
                                      "violation": _violation_block(stp)},
        "oscillatory": is_oscillatory(m),
        "sign_classification": _classification_block(cls),
        "corner_conditions": corner_block,
    })
    _emit(report, args.json)
    return 0


def _certificate_block(cert: JFlipCertificate) -> dict:
    return {
        "side": cert.side,
        "passed": cert.passed,
        "failed_stage": cert.failed_stage,
        "stages": [{"name": s.name, "status": s.status, "detail": s.detail}
                   for s in cert.stages],
        "flipped": _matrix_rows(cert.flipped),
        "sign_classification": (_classification_block(cert.classification)
                                if cert.classification is not None else None),
        "spectrum": (_spectrum_block(cert.spectrum)
                     if cert.spectrum is not None else None),
    }


def _cmd_jflip(args, argv: list[str]) -> int:
    text, raw = _read_source(args.input)
    doc = parse_matrix_document(text)
    width_bound = _tolerance(args)
    with _plot_file(args) as plot:
        cert = jflip_si_certificate(doc.matrix, side=args.side,
                                    width_bound=width_bound)
        if plot is not None:
            _write_plot_data(plot, cert.spectrum)
    report = _envelope("jflip", argv, _digest(raw))
    report["n"] = doc.matrix.n
    report["certificate"] = _certificate_block(cert)
    _emit(report, args.json)
    return 0


def _cmd_spectrum(args, argv: list[str]) -> int:
    text, raw = _read_source(args.input)
    doc = parse_matrix_document(text)
    width_bound = _tolerance(args)
    with _plot_file(args) as plot:
        rep = spectrum_report(doc.matrix, width_bound)
        if plot is not None:
            _write_plot_data(plot, rep)
    report = _envelope("spectrum", argv, _digest(raw))
    report["n"] = doc.matrix.n
    report["spectrum"] = _spectrum_block(rep)
    if args.kind:
        requested = SIKind(args.kind)
        report["requested_kind"] = requested.value
        report["matches_requested_kind"] = (rep.verdict.value == f"kind_{requested.value}")
    _emit(report, args.json)
    return 0


def _cmd_poly(args, argv: list[str]) -> int:
    if args.coeffs is not None:
        text, raw = args.coeffs, args.coeffs.encode("utf-8")
    else:
        if args.input is None:
            raise ParseError("poly needs an input file or --coeffs")
        text, raw = _read_source(args.input)
    p = parse_polynomial_tokens(text)
    if p.is_zero:
        raise ParseError("the zero polynomial has no root pattern")
    if p.degree < 1:
        raise ParseError(f"the constant {p.coeffs[0]} has no roots to interlace")
    normalized = -p if p.coeffs[0] < 0 else p
    twist = si_twist(normalized)
    minors = hurwitz_minors(twist)
    # The twist keeps a_0 > 0, so by Routh-Hurwitz it is stable exactly when
    # every minor is positive, and that stability is the kind I verdict.
    stable = all(d > 0 for d in minors)
    report = _envelope("poly", argv, _digest(raw))
    report.update({
        "degree": p.degree,
        "coefficients": [str(c) for c in p.coeffs],
        "leading_sign_flipped": normalized is not p,
        "twist_coefficients": [str(c) for c in twist.coeffs],
        "hurwitz_minors_of_twist": [str(d) for d in minors],
        "twist_hurwitz_stable": stable,
        "self_interlacing_kind_I": stable,
        "self_interlacing_kind_II": is_self_interlacing(p, SIKind.KIND_II),
    })
    if args.kind:
        requested = SIKind(args.kind)
        report["requested_kind"] = requested.value
        report["requested_kind_result"] = report[f"self_interlacing_kind_{requested.value}"]
    _emit(report, args.json)
    return 0


_RANDOM_FAMILIES = ("random-tnn", "random-positive-tnn", "random-oscillatory")


def _cmd_construct(args, argv: list[str]) -> int:
    family = args.family
    structure = "antibidiagonal" if family == "tridiagonal-equivalent" else family
    takes = (("n", "seed") if family in _RANDOM_FAMILIES
             else tuple(key for key, _ in STRUCTURE_PARAMS[structure]))
    for flag in ("n", "seed", "a", "b", "c", "d", "e"):
        if getattr(args, flag) is not None and flag not in takes:
            raise ParseError(f"{family} does not take --{flag}")
    if family in _RANDOM_FAMILIES:
        if args.n is None:
            raise ParseError(f"{family} needs --n")
        builder = {"random-tnn": random_tnn,
                   "random-positive-tnn": random_positive_tnn,
                   "random-oscillatory": random_oscillatory}[family]
        doc = MatrixDocument(builder(args.n, 0 if args.seed is None else args.seed))
    else:
        keys = STRUCTURE_PARAMS[structure]
        if any(getattr(args, key) is None for key, _ in keys):
            raise ParseError(f"{family} needs "
                             + ", ".join(f"--{key}" for key, _ in keys))
        params = {key: _values(getattr(args, key)) for key, _ in keys}
        if family == "tridiagonal-equivalent":
            build_structured(structure, params)
            structure = "jacobi"
            params["a"] += (Fraction(0),) * len(params["b"])
        doc = MatrixDocument(build_structured(structure, params), structure, params)
    sys.stdout.write(format_matrix_document(doc))
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(sub, *, tol=False, kind=False, side=False, plot=False):
    sub.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    if tol:
        sub.add_argument("--tol", default=None,
                         help="certified enclosure width bound (exact decimal "
                              "or p/q, default 1e-9)")
    if kind:
        sub.add_argument("--kind", choices=["I", "II"], default=None,
                         help="which interlacing kind to test against")
    if side:
        sub.add_argument("--side", choices=["left", "right"], default="left",
                         help="flip rows (left, JA) or columns (right, AJ)")
    if plot:
        sub.add_argument("--plot-data", default=None, dest="plot_data",
                         help="write eigenvalue enclosures to this path, one "
                              "'index lo hi sign' line each")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; no argument has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="interlace",
        description="Exact certification of self-interlacing spectra, "
                    "minor sign classes, and oscillation criteria.")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    classify = commands.add_parser(
        "classify", help="minor-based checks for one matrix document")
    classify.add_argument("input", help="matrix document path, or - for stdin")
    _add_common(classify)
    classify.set_defaults(handler=_cmd_classify)

    jflip = commands.add_parser(
        "jflip", help="staged self-interlacing certificate for JA or AJ")
    jflip.add_argument("input", help="matrix document path, or - for stdin")
    _add_common(jflip, tol=True, side=True, plot=True)
    jflip.set_defaults(handler=_cmd_jflip)

    spectrum = commands.add_parser(
        "spectrum", help="kind verdict and certified eigenvalue enclosures")
    spectrum.add_argument("input", help="matrix document path, or - for stdin")
    _add_common(spectrum, tol=True, kind=True, plot=True)
    spectrum.set_defaults(handler=_cmd_spectrum)

    poly = commands.add_parser(
        "poly", help="twist, Hurwitz minors, and interlacing kinds of a polynomial")
    source = poly.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?", default=None,
                        help="file of whitespace-separated exact coefficients, "
                             "leading first (or use --coeffs)")
    source.add_argument("--coeffs", default=None,
                        help="inline coefficients, e.g. \"1 -1 -1\"")
    _add_common(poly, kind=True)
    poly.set_defaults(handler=_cmd_poly)

    construct = commands.add_parser(
        "construct", help="emit a matrix document for a structured or random family")
    construct.add_argument("family", choices=[
        "bidiagonal", "antibidiagonal", "tridiagonal-equivalent", "jacobi",
        "antijacobi", "random-tnn", "random-positive-tnn", "random-oscillatory"])
    construct.add_argument("--n", type=int, default=None,
                           help="size for the random families")
    construct.add_argument("--seed", type=int, default=None,
                           help="64-bit stream seed (default 0)")
    construct.add_argument("--a", default=None, help="diagonal / corner values")
    construct.add_argument("--b", default=None, help="superdiagonal values")
    construct.add_argument("--c", default=None, help="subdiagonal values")
    construct.add_argument("--d", default=None, help="bidiagonal diagonal values")
    construct.add_argument("--e", default=None, help="bidiagonal superdiagonal values")
    construct.set_defaults(handler=_cmd_construct)
    return parser


@contextmanager
def _whole_integers():
    """Lift the interpreter's int/str digit limit (CPython 3.10.7 and later)
    for one command, so an analysis that ran prints its integers in full.

    Input stays bounded without the limit: every literal is capped at
    documents.MAX_LITERAL_BITS before conversion, and the other integers
    read from user text are length-checked first.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        with _whole_integers():
            return args.handler(args, argv)
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (InterlaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed_seconds: {time.perf_counter() - start:.6f}",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
