"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Each run here uses --seconds 0, so it makes one untraced and (with --trace 1)
one traced pass over the full item set of a workload: about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flip_certify", "spectrum_enclose", "classify_scan")
SEED = 3


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done


def result(workload, trace):
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2].startswith("detail: ")
    return json.loads(lines[-2][len("detail: "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_tracing_keeps_outputs(workload):
    detail_a, traced_a = result(workload, 1)
    detail_b, traced_b = result(workload, 1)
    detail_c, plain = result(workload, 0)
    for res in (traced_a, traced_b, plain):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    counts = {k: v["value"] for k, v in traced_a["metrics"].items()
              if not k.endswith("self_s")}
    assert counts == {k: v["value"] for k, v in traced_b["metrics"].items()
                      if not k.endswith("self_s")}
    assert detail_a["digest"] == detail_b["digest"] == detail_c["digest"]
    assert detail_a["trace_overhead"]["ratio"] > 0


def test_result_line_has_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, plain = result("classify_scan", 0)
    _, traced = result("classify_scan", 1)
    assert set(plain) == set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for res, declared in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        assert all(v["unit"] == units[k] for k, v in res["metrics"].items())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "classify_scan", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_patches_every_binding_and_restores_them():
    sys.path.insert(0, str(HERE))
    import run
    import tracing

    il = run.import_package()
    original = il.polynomials.refine_root
    tracer = tracing.Tracer().install(il)
    try:
        assert tracer.unpatched_bindings(il) == []
        assert il.spectra.refine_root is il.polynomials.refine_root is not original
        rows = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        list(il.Matrix(rows).minors(2))
    finally:
        tracer.uninstall()
    assert il.spectra.refine_root is original
    snap = tracer.snapshot()
    assert snap["matrices.minors.count"] == 9
    assert snap["matrices.det.count"] == 9
