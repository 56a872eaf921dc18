"""Per-layer tracing of the interlace package from outside it.

``Tracer.install()`` replaces every traced public function at each place it
is looked up: the attribute of every loaded ``interlace`` module that holds
the original object (for example ``spectra.refine_root`` next to
``polynomials.refine_root``, or ``cli.jflip_si_certificate``), and the
``Matrix`` methods on the class itself. ``uninstall()`` puts the originals
back. Nothing in the package is edited.

Each call is a span. A span's self time is its wall time minus the wall time
of the traced spans it caused, so the self times of one call tree add up to
its wall time. ``Matrix.minors`` is a generator: each step of it is a span,
so it is timed while it computes a minor and not while its consumer runs.

Counts are deterministic for a given input; times are not.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from math import comb

# (layer, owner, attribute): owner None means a module-level function of
# interlace.<layer>, otherwise a class in that module. The metric stem is the
# attribute without underscores: matrices.mul is Matrix.__mul__.
TRACED = (
    ("matrices", "Matrix", "minors"),
    ("matrices", "Matrix", "det"),
    ("matrices", "Matrix", "__mul__"),
    ("matrices", "Matrix", "__pow__"),
    ("matrices", "Matrix", "charpoly"),
    ("classification", None, "tnn_violation"),
    ("classification", None, "stp_violation"),
    ("classification", None, "classify_sign_definite"),
    ("classification", None, "is_oscillatory"),
    ("classification", None, "is_oscillatory_by_definition"),
    ("classification", None, "check_corner_conditions"),
    ("classification", None, "jflip_si_certificate"),
    ("polynomials", None, "poly_gcd"),
    ("polynomials", None, "squarefree_part"),
    ("polynomials", None, "hurwitz_minors"),
    ("polynomials", None, "is_self_interlacing"),
    ("polynomials", None, "isolate_real_roots"),
    ("polynomials", None, "refine_root"),
    ("spectra", None, "spectrum_report"),
    ("spectra", None, "kind_two_report"),
    ("spectra", None, "verify_sign_pattern"),
    ("constructors", None, "random_positive_tnn"),
    ("constructors", None, "random_tnn"),
    ("constructors", None, "random_oscillatory"),
    ("documents", None, "parse_matrix_document"),
    ("documents", None, "format_matrix_document"),
    ("cli", None, "main"),
)

# Spans that carry a peak bit length of their exact result.
WITH_BITS = ("matrices.minors", "matrices.det", "matrices.mul", "matrices.pow",
             "matrices.charpoly")
# Extra counters, beyond .count and .self_s of every span.
EXTRA = ("classification.powers_tried", "classification.scan_fraction",
         "polynomials.isolate_real_roots.roots",
         "polynomials.refine_root.bisection_steps",
         "spectra.modulus_sort_refines", "cli.output_bytes")
# Public scans whose minors count towards scan_fraction.
SCANS = ("classification.tnn_violation", "classification.stp_violation",
         "classification.classify_sign_definite")


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = []
    for key in _keys():
        names += [f"{key}.count", f"{key}.self_s"]
        if key in WITH_BITS:
            names.append(f"{key}.peak_bits")
    return names + list(EXTRA)


def _keys() -> list[str]:
    return [f"{layer}.{attr.strip('_')}" for layer, _, attr in TRACED]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _matrix_bits(m) -> int:
    return max(_bits(x) for row in m.rows for x in row)


def _minor_table(n: int) -> int:
    """Number of minors of all orders of an n x n matrix: sum_k C(n,k)^2."""
    return comb(2 * n, n) - 1


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)  # inclusive time, for shares
        self.bits = defaultdict(int)
        self.extra = defaultdict(int)
        self.scan_full = 0
        self._stack = []     # one [child_seconds] cell per open span
        self._active = defaultdict(int)
        self._patches = []   # (holder, attribute, original)

    # -- bookkeeping ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic counters plus self times, keyed by metric name."""
        out = {}
        for key in _keys():
            out[f"{key}.count"] = self.count[key]
            out[f"{key}.self_s"] = self.self_s[key]
            out[f"{key}.wall_s"] = self.wall_s[key]
            if key in WITH_BITS:
                out[f"{key}.peak_bits"] = self.bits[key]
        for name in EXTRA:
            out[name] = self.extra[name]
        yielded = self.extra["classification.scan_yield"]
        out["classification.scan_fraction"] = (
            yielded / self.scan_full if self.scan_full else 0.0)
        out["classification.scan_minors"] = yielded
        out["classification.scan_table"] = self.scan_full
        return out

    def add(self, name: str, amount: int):
        """Count work the benchmark itself observes (e.g. output bytes)."""
        self.extra[name] += amount

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key, fn, before=None, after=None):
        stack, active = self._stack, self._active
        count, self_s, wall_s = self.count, self.self_s, self.wall_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            state = before(args) if before else None
            stack.append(cell)
            active[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - start
                active[key] -= 1
                stack.pop()
                count[key] += 1
                self_s[key] += wall - cell[0]
                wall_s[key] += wall
                if stack:
                    stack[-1][0] += wall
            if after:
                start = clock()
                after(args, result, state)
                if stack:  # bookkeeping is not the caller's work either
                    stack[-1][0] += clock() - start
            return result

        return wrapper

    def _wrap_minors(self, fn):
        key = "matrices.minors"
        stack, active, extra = self._stack, self._active, self.extra
        count, self_s, wall_s = self.count, self.self_s, self.wall_s
        bits, clock = self.bits, time.perf_counter

        @functools.wraps(fn)
        def minors(m, order):
            gen = fn(m, order)
            try:
                while True:
                    cell = [0.0]
                    stack.append(cell)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        wall = clock() - start
                        stack.pop()
                        self_s[key] += wall - cell[0]
                        wall_s[key] += wall
                        if stack:
                            stack[-1][0] += wall
                    count[key] += 1
                    b = _bits(item[1])
                    if b > bits[key]:
                        bits[key] = b
                    if any(active[s] for s in SCANS):
                        extra["classification.scan_yield"] += 1
                    yield item
            finally:
                gen.close()

        return minors

    # -- per-function bookkeeping hooks ---------------------------------------

    def _peak(self, key, measure):
        bits = self.bits

        def after(args, result, state):
            b = measure(result)
            if b > bits[key]:
                bits[key] = b
        return after

    def _hooks(self, key):
        """(before, after) callables that feed the layer counters."""
        extra = self.extra
        if key == "matrices.det":
            return None, self._peak(key, _bits)
        if key in ("matrices.mul", "matrices.pow"):
            peak = self._peak(key, _matrix_bits)
            if key == "matrices.mul":
                return None, peak

            def after(args, result, state):
                peak(args, result, state)
                if self._active["classification.classify_sign_definite"]:
                    extra["classification.powers_tried"] += 1
            return None, after
        if key == "matrices.charpoly":
            return None, self._peak(key, lambda p: max(map(_bits, p.coeffs)))
        if key in SCANS:
            def before(args):
                return extra["classification.powers_tried"]

            def after(args, result, powers_before):
                scanned = 1
                if key == "classification.classify_sign_definite":
                    scanned += extra["classification.powers_tried"] - powers_before
                self.scan_full += scanned * _minor_table(args[0].n)
            return before, after
        if key == "polynomials.isolate_real_roots":
            def after(args, result, state):
                extra["polynomials.isolate_real_roots.roots"] += len(result)
            return None, after
        if key == "polynomials.refine_root":
            def after(args, result, state):
                extra["polynomials.refine_root.bisection_steps"] += _bisections(
                    args[1], result)
            return None, after
        if key == "spectra.spectrum_report":
            def before(args):
                return self.count["polynomials.refine_root"]

            def after(args, report, refines_before):
                refines = self.count["polynomials.refine_root"] - refines_before
                extra["spectra.modulus_sort_refines"] += refines - len(report.boxes)
            return before, after
        return None, None

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Patch every binding of every traced function in ``package``."""
        modules = _modules(package)
        for layer, owner, attr in TRACED:
            key = f"{layer}.{attr.strip('_')}"
            home = getattr(package, layer)
            if owner is not None:
                holder = getattr(home, owner)
                original = holder.__dict__[attr]
                if attr == "minors":
                    wrapper = self._wrap_minors(original)
                else:
                    wrapper = self._wrap(key, original, *self._hooks(key))
                self._patch(holder, attr, original, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(key, original, *self._hooks(key))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
        return self

    def _patch(self, holder, name, original, wrapper):
        setattr(holder, name, wrapper)
        self._patches.append((holder, name, original))

    def uninstall(self):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    def unpatched_bindings(self, package) -> list[str]:
        """Bindings that still hold a traced original (empty when installed)."""
        originals = {id(original) for _, _, original in self._patches}
        return [f"{module.__name__}.{name}" for module in _modules(package)
                for name, value in vars(module).items() if id(value) in originals]


def _modules(package) -> list:
    return [package] + [getattr(package, layer) for layer in
                        ("matrices", "classification", "polynomials", "spectra",
                         "constructors", "documents", "cli")]


def _bisections(box, result) -> int:
    """Halvings refine_root made, recovered from the box widths.

    Every bisection point is box.lo + width * j / 2^s with j odd, so an exact
    hit at step s has (mid - lo) / width with denominator 2^s; otherwise the
    width ratio itself is 2^s.
    """
    if box.is_exact:
        return 0
    if result.is_exact:
        ratio = (result.lo - box.lo) / box.width
        return ratio.denominator.bit_length() - 1
    return (box.width / result.width).numerator.bit_length() - 1
