"""Certificate throughput benchmark for the interlace package.

    python3 perfbench/run.py --workload flip_certify --seed 1 --seconds 30 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in, and exits non-zero without a result when that is missing. Each workload runs
closed loop, one client in this one process with no threads: the items run
back to back in a fixed round robin until ``--seconds`` of timed wall time
have gone by (the first pass always completes). The set-up runs five times,
once before the loop and four times between equal segments of it. Every
timing is divided by a host-speed reference timed next to it (see
``REFERENCE_S``), since the shared host's speed swings by up to 2x.

Every run checks its outputs. An item fails when it raises, when the command
line exits non-zero, when its first-pass output fails the independent oracle,
or when a later pass gives a different output; for a seed listed in
``digests.json`` the first pass must also reproduce the pinned digest.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of ``tracing.py`` for one traced
set-up plus one traced pass. The line before it (``detail: {...}``) records
the environment, the load and everything not in the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, exact_det

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seed kept out of every tuning run; later gain claims must also hold on it.
HELD_OUT_SEED = 271828
# Set-ups per run: one before the timed loop, the others spread between its
# segments, so that the median set-up does not hang on one stretch of host speed.
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)

# Host-speed reference: exact Fraction elimination on a fixed 6x6 integer
# matrix, the same kind of interpreter work as the package's exact arithmetic,
# and no code of the package. Every timing is divided by the time of the
# reference taken just before it and reported at REFERENCE_S per reference,
# which is about what it takes on a quiet two-vCPU Xeon VM (1.06 ms at best).
REFERENCE_MATRIX = [[(7 * i * i + 13 * j + 3 * i * j + 1) % 97 + 1 for j in range(6)]
                    for i in range(6)]
REFERENCE_S = 0.001


def reference_s() -> float:
    """Wall time of one run of the host-speed reference."""
    t0 = time.perf_counter()
    for _ in range(4):
        exact_det(REFERENCE_MATRIX)
    return time.perf_counter() - t0


def reference_median_s(k=5) -> float:
    """Median of ``k`` runs of the reference, to scale a set-up."""
    return statistics.median(reference_s() for _ in range(k))


def import_package():
    """Import interlace from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "interlace" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'interlace'}")
    sys.path.insert(0, str(src))
    import interlace
    import interlace.cli  # noqa: F401  (the cli module is a layer too)

    if Path(interlace.__file__).resolve().parent != (src / "interlace").resolve():
        raise SystemExit(f"perfbench: imported interlace from {interlace.__file__}")
    return interlace


def run_setup(il, workload, seed, work: Path, label: str):
    """Generate inputs and documents, then warm up one item of each kind.

    Returns the items, the inputs fingerprint, and the set-up time in
    seconds, measured and at reference speed.
    """
    rep = work / label
    rep.mkdir()
    before = reference_median_s()
    start = time.perf_counter()
    items, fingerprint = workload.setup(il, seed, rep)
    seen = set()
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            item.run()
    seconds = time.perf_counter() - start
    ref = (before + reference_median_s()) / 2
    return items, fingerprint, (seconds, seconds * REFERENCE_S / ref)


class Loop:
    """Timed round robin over the items, checking every output."""

    def __init__(self, items):
        self.items = items
        self.reference = [None] * len(items)
        self.seen = [False] * len(items)
        self.rejected = set()  # items whose first output failed the oracle
        self.samples = [[] for _ in items]   # measured seconds per item per pass
        self.scaled = [[] for _ in items]    # the same at reference speed
        self.ref_times = []  # seconds of the reference taken before each item
        self.failed = 0
        self.attempted = 0
        self.errors = []
        self.cursor = 0  # next item; a segment may stop in the middle of a pass
        self.passes = 0  # passes completed
        self.wall = 0.0

    def run(self, seconds: float, tracer=None, passes=0):
        """Run items in turn until ``seconds`` have gone by and at least
        ``passes`` full passes are done; the next call resumes at the item
        where this one stopped."""
        start = time.perf_counter()
        deadline = start + seconds
        done = 0
        while done < passes * len(self.items) or time.perf_counter() < deadline:
            self._one_item(self.cursor, tracer)
            self.cursor = (self.cursor + 1) % len(self.items)
            self.passes += self.cursor == 0
            done += 1
        self.wall += time.perf_counter() - start

    def _one_item(self, index, tracer):
        item = self.items[index]
        self.attempted += 1
        ref = reference_s()
        self.ref_times.append(ref)
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # an item that raises is a failed item
            if not self.seen[index]:
                self.seen[index] = True
                self.rejected.add(index)
            self._fail(index, f"raised {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        text = item.canon(out)
        if tracer is not None and item.kind == "jflip":
            tracer.add("cli.output_bytes", len(out[1].encode("utf-8")))
        if not self.seen[index]:
            self.seen[index] = True
            self.reference[index] = text
            error = item.oracle(out)
            if error:
                self.rejected.add(index)
                self._fail(index, error)
                return
        elif index in self.rejected:
            self._fail(index, "output rejected by the oracle on the first pass")
            return
        elif text != self.reference[index]:
            self._fail(index, "output changed between passes")
            return
        self.samples[index].append(elapsed)
        self.scaled[index].append(elapsed * REFERENCE_S / ref)

    def _fail(self, index, reason):
        self.failed += 1
        if len(self.errors) < 10:
            item = self.items[index]
            self.errors.append(f"item {index} ({item.kind}, n={item.n}): {reason}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.reference:
            h.update((text or "<failed>").encode("utf-8") + b"\n")
        return h.hexdigest()

    def mark(self) -> list[int]:
        return [len(s) for s in self.samples]

    def latencies(self, since=None, measured=False) -> list[float]:
        """One latency per item that never failed, sorted.

        By default the median of the item's passes at reference speed: on a
        shared machine the host's speed swings by up to 2x for tens of
        seconds, in CPU time as much as in wall time, and the reference taken
        next to each pass swings with it. ``measured`` gives the fastest
        measured pass instead.
        """
        since = since or [0] * len(self.samples)
        series = self.samples if measured else self.scaled
        pick = min if measured else statistics.median
        return sorted(pick(s[k:]) for s, k in zip(series, since) if s[k:])

    def items_per_s(self, since=None, measured=False) -> float:
        """Items per second of one pass made of each item's latency."""
        values = self.latencies(since, measured)
        return len(values) / sum(values)


def tail(values):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return 100.0, values[-1]


def by_class(items, loop) -> dict:
    """Median item latency (at reference speed) per kind and size, in ms."""
    classes = {}
    for item, samples in zip(items, loop.scaled):
        if samples:
            classes.setdefault(f"{item.kind} n={item.n}", []).append(
                statistics.median(samples))
    return {k: 1000 * statistics.median(v) for k, v in classes.items()}


def percentile(values, p):
    """Nearest-rank percentile of sorted values."""
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "interlace").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "loop": "closed, one client, one process, no threads",
    }


def load(items) -> dict:
    mix = {}
    for item in items:
        key = f"{item.kind} n={item.n}"
        mix[key] = mix.get(key, 0) + 1
    return {"items_per_pass": len(items), "size_mix": mix}


def check_digest(workload, seed, digest):
    pinned = json.loads((HERE / "digests.json").read_text())
    want = pinned.get(workload, {}).get(str(seed))
    if want is None:
        return "not pinned", True
    return ("match" if want == digest else f"MISMATCH (pinned {want})"), want == digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    il = import_package()
    import_s = time.perf_counter() - t0
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    detail = {"workload": args.workload, "why": why, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
              "environment": environment()}
    problems = []

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.trace:
            loop, metrics = traced_run(il, workload, args, work, detail, problems)
        else:
            loop, metrics = plain_run(il, workload, args, work, detail, problems, import_s)

    detail["load"] = load(loop.items)
    detail.update(passes=loop.passes, timed_wall_s=loop.wall,
                  samples=sum(len(s) for s in loop.samples),
                  failed_ratio={"value": loop.failed / loop.attempted,
                                "failed": loop.failed, "attempted": loop.attempted})
    detail["digest"] = loop.digest()
    detail["pinned_digest"], digest_ok = check_digest(args.workload, args.seed,
                                                      detail["digest"])
    if not digest_ok:
        problems.append("output digest differs from the pinned digest")
    problems += loop.errors
    detail["problems"] = problems
    correct = not problems and loop.failed == 0
    print("detail: " + json.dumps(detail, sort_keys=True))
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def plain_run(il, workload, args, work, detail, problems, import_s):
    items, fingerprint, seconds = run_setup(il, workload, args.seed, work, "rep0")
    setups, fingerprints = [seconds], {fingerprint}
    loop = Loop(items)
    loop.run(args.seconds / SETUP_REPEATS, passes=1)
    for k in range(1, SETUP_REPEATS):
        _, fingerprint, seconds = run_setup(il, workload, args.seed, work, f"rep{k}")
        setups.append(seconds)
        fingerprints.add(fingerprint)
        loop.run(args.seconds * (k + 1) / SETUP_REPEATS - loop.wall)
    if len(fingerprints) != 1:
        problems.append("the same seed produced different inputs")
    latencies = loop.latencies()
    p, tail_s = tail(latencies)
    setup_s = import_s + statistics.median(scaled for _, scaled in setups)
    detail["setup"] = {"import_s": import_s,
                       "generate_and_warm_up_s": [measured for measured, _ in setups],
                       "at_reference_speed_s": [scaled for _, scaled in setups]}
    detail["tail_percentile"] = p
    detail["latency_by_class_ms"] = by_class(items, loop)
    measured = loop.latencies(measured=True)
    detail["measured_fastest_pass"] = {
        "items_per_s": len(measured) / sum(measured),
        "latency_p50_ms": 1000 * statistics.median(measured),
        "latency_tail_ms": 1000 * tail(measured)[1]}
    detail["reference_ms"] = {"scale": 1000 * REFERENCE_S,
                              "median_of_run": 1000 * statistics.median(loop.ref_times),
                              "fastest_of_run": 1000 * min(loop.ref_times)}
    metrics = {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return loop, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(il, workload, args, work, detail, problems):
    """Traced set-up, untraced passes, then traced passes.

    Counts cover the traced set-up plus the first traced pass, so they repeat
    exactly; self times cover the set-up plus the mean traced pass.
    """
    tracer = tracing.Tracer()
    tracer.install(il)
    missed = tracer.unpatched_bindings(il)
    if missed:
        problems.append(f"trace wrappers missed bindings: {missed}")
    items, _, _ = run_setup(il, workload, args.seed, work, "traced")
    after_setup = tracer.snapshot()
    tracer.uninstall()

    loop = Loop(items)
    loop.run(args.seconds / 2, passes=1)
    untraced = loop.items_per_s()
    boundary = loop.mark()

    tracer.install(il)
    start = time.perf_counter()
    loop.run(0, tracer, passes=1)
    first = tracer.snapshot()
    loop.run(args.seconds / 2 - (time.perf_counter() - start), tracer)
    tracer.uninstall()
    end = tracer.snapshot()
    traced = loop.items_per_s(boundary)
    # passes in item-samples, as the last traced pass may stop early
    passes = (sum(map(len, loop.samples)) - sum(boundary)) / len(items)

    metrics = {}
    for name in tracing.metric_names():
        if name.endswith(".self_s"):
            value = after_setup[name] + (end[name] - after_setup[name]) / passes
            metrics[name] = {"value": value, "unit": "s"}
        else:
            unit = ("bits" if name.endswith("peak_bits") else
                    "ratio" if name.endswith("fraction") else
                    "bytes" if name.endswith("bytes") else "count")
            metrics[name] = {"value": first[name], "unit": unit}
    for name in workload.predicted:
        if first[f"{name}.count"] == 0:
            problems.append(f"predicted call {name} counted 0 (a binding was missed)")
    for name in workload.absent:
        if first[f"{name}.count"] != 0:
            problems.append(f"{name} ran {first[f'{name}.count']} times; "
                            "this workload must not reach it")
    detail["trace_overhead"] = {"untraced_items_per_s": untraced,
                                "traced_items_per_s": traced,
                                "ratio": untraced / traced, "traced_passes": passes}
    detail["scan"] = {k: first[k] for k in ("classification.scan_minors",
                                            "classification.scan_table")}
    detail["shares"] = shares({k: (end[k] - after_setup[k]) / passes
                               for k in end if k.endswith("_s")})
    return loop, metrics


def shares(per_pass: dict) -> dict:
    """Where one pass spends its time, for the predictions in README.md."""
    total = sum(v for k, v in per_pass.items() if k.endswith(".self_s"))
    report = per_pass["spectra.spectrum_report.wall_s"]
    return {
        "minors_and_det_of_self_time": (per_pass["matrices.minors.self_s"]
                                        + per_pass["matrices.det.self_s"]) / total,
        "charpoly_of_spectrum_report": (per_pass["matrices.charpoly.wall_s"] / report
                                        if report else 0.0),
        "traced_seconds_per_pass": total,
    }


if __name__ == "__main__":
    sys.exit(main())
