"""tools/bench_grid.py runs every layer at its tiny size and writes the documented schema."""

import importlib.util
import json
import math
from pathlib import Path

GRID = Path(__file__).resolve().parents[1] / "tools" / "bench_grid.py"
LAYERS = {
    "cox.log_partial_likelihood",
    "cox.score_and_information",
    "cox.fit",
    "baselines.ipw_weights",
    "baselines.cors",
    "baselines.cris",
    "diagnostics.signal_strengths_to_csv",
    "simulate.calibrate_censoring",
    "simulate.gen_replicate",
    "benchmark.run_replicate",
}
LAYER_KEYS = {"params", "unit", "units_per_call", "calls_per_repeat", "repeats", "median_s", "iqr_s",
              "s_per_unit"}
MEMORY_KEYS = {"params", "array", "array_bytes", "traced_peak_bytes", "arrays"}


def test_tiny_grid_schema(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_grid", GRID)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    out = tmp_path / "BENCH.json"
    assert grid.main(["--out", str(out), "--size", "tiny"]) == 0
    report = json.loads(out.read_text())

    assert set(report) == {"size", "seed", "machine", "layers", "memory"}
    assert report["size"] == "tiny"
    assert {"nproc", "cpu", "python", "numpy", "threads"} <= set(report["machine"])
    assert set(report["machine"]["threads"]) == set(grid.THREAD_VARS)

    sweep = grid.SIZES["tiny"]["sweep"]
    expected = LAYERS | {f"screening.screen[n={n},p={p},q={q}]"
                         for n in sweep["n"] for p in sweep["p"] for q in sweep["q"]}
    assert set(report["layers"]) == expected
    for name, layer in report["layers"].items():
        assert set(layer) == LAYER_KEYS, name
        assert layer["repeats"] == grid.SIZES["tiny"]["repeats"]
        assert layer["units_per_call"] > 0 and layer["calls_per_repeat"] >= 1
        assert layer["median_s"] > 0 and layer["iqr_s"] >= 0
        assert math.isclose(layer["s_per_unit"], layer["median_s"] / layer["units_per_call"])
        if name.startswith("screening.screen["):
            assert layer["units_per_call"] == layer["params"]["p"] - layer["params"]["q"], name

    assert set(report["memory"]) == {"simulate.calibrate_censoring", "simulate.gen_replicate", "data.read_csv",
                                     "screening.screen", "screening.result_to_json"}
    for name, peak in report["memory"].items():
        assert set(peak) == MEMORY_KEYS, name
        assert peak["traced_peak_bytes"] > 0
        assert math.isclose(peak["arrays"], peak["traced_peak_bytes"] / peak["array_bytes"])
    assert len(capsys.readouterr().out.splitlines()) == len(expected) + len(report["memory"])
