"""Smoke test of the scale sweep ``bench/sweep.py`` at tiny n."""

import importlib.util
import json
import time
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "bench" / "sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_writes_its_schema_at_tiny_n(tmp_path, capsys):
    sweep = _load_sweep()
    start = time.perf_counter()
    assert sweep.main(["--label", "smoke", "--sizes", "2", "3", "--scan-sizes", "2", "3",
                       "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 2
    path = tmp_path / "BENCH_smoke.json"
    assert capsys.readouterr().out == f"{path}\n"
    report = json.loads(path.read_text(encoding="utf-8"))
    assert set(report) == {"schema", "label", "environment", "reference_s",
                           "budget_s", "repeats", "rows"}
    assert (report["schema"], report["label"]) == ("interlace-sweep/1", "smoke")
    assert set(report["environment"]) == {"python", "implementation", "source_sha256"}
    assert len(report["environment"]["source_sha256"]) == 64
    rows = report["rows"]
    assert sweep.LAYERS == ("charpoly", "hurwitz_minors", "isolate_real_roots",
                            "spectrum_report", "refine_root", "modulus_sort", "sign_scan",
                            "jflip")
    assert [(r["layer"], r["input"], r["n"]) for r in rows] == [
        (layer, kind, n) for layer in sweep.LAYERS for kind in sweep.INPUTS for n in (2, 3)
        if layer != "jflip" or kind == "tnn_flip"]
    for row in rows:
        assert row["status"] == "ok" and 1 <= row["runs"] <= report["repeats"], row
        assert 0 < row["median_s"] and 0 < row["fastest_measured_s"], row
    counts = {(r["layer"], r["input"], r["n"]): r["counts"] for r in rows}
    assert counts["charpoly", "jacobi", 3]["degree"] == 3
    assert counts["hurwitz_minors", "tnn_flip", 3]["minors"] == 3
    assert counts["isolate_real_roots", "anti_bidiagonal", 3] == {"roots": 3}
    assert counts["spectrum_report", "anti_bidiagonal", 3] == {"roots": 3, "verdict": "kind_I"}
    for kind in sweep.INPUTS:
        assert counts["refine_root", kind, 3]["roots"] == 3, kind
        assert counts["modulus_sort", kind, 3] == {"roots": 3, "refined": 0}, kind
    assert counts["refine_root", "anti_jacobi", 3] == {"roots": 3, "exact": 3}
    assert counts["sign_scan", "tnn_flip", 3] == {"verdict": "strictly_sign_definite",
                                                  "power_exponent": 1}
    for n in (2, 3):
        jflip = counts["jflip", "tnn_flip", n]
        assert jflip == {"exit": 0, "passed": True, "eigenvalues": n}


def test_isolation_layers_take_the_band_route_on_banded_inputs(monkeypatch, tmp_path):
    """The isolation layers read the route off ``m.charpoly()``: on the
    Jacobi and anti-bidiagonal inputs they build no Sturm chain, and on the
    anti-Jacobi and TNN-flip inputs they build one."""
    from interlace import polynomials

    sweep = _load_sweep()
    chains = []
    chain = polynomials._sturm_chain
    monkeypatch.setattr(polynomials, "_sturm_chain", lambda p: chains.append(p) or chain(p))
    for kind, banded in (("jacobi", True), ("anti_bidiagonal", True),
                         ("anti_jacobi", False), ("tnn_flip", False)):
        for layer in ("isolate_real_roots", "refine_root", "modulus_sort"):
            chains.clear()
            call, counts = sweep._layer(layer, sweep.INPUTS[kind](6), tmp_path)
            assert counts(call())["roots"] == 6, (kind, layer)
            assert (chains == []) is banded, (kind, layer)
