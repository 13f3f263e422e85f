"""The seeded CLI matrix of tools/cli_matrix.py runs to the end with the expected exit codes."""

import importlib.util
from pathlib import Path

MATRIX = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
# the calls that exercise an error exit on purpose
FAILING = {
    "screen-topk-zero",
    "screen-gamma-nan",
    "screen-constant-c",
    "screen-separated-c",
    "simulate-zero-replicates",
    "benchmark-example-and-config",
    "calibrate-bad-kv",
    "benchmark-workers-zero",
    "simulate-unknown-kv",
    "benchmark-empty-methods",
}


def test_matrix_exit_codes_and_outputs(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_matrix", MATRIX)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    codes = matrix.run_matrix(tmp_path)
    assert codes == {name: int(name in FAILING) for name, _ in matrix.calls()}
    for name, code in codes.items():
        assert (tmp_path / f"{name}.log").read_text().startswith(f"exit={code}\n")
        if name.startswith("screen-") and not code:
            assert (tmp_path / f"{name}_selected.csv").exists()
    # the tied input with a byte-order mark in front screens as the tied input does
    assert (tmp_path / "screen-bom.csv").read_bytes() == (tmp_path / "screen-tied-c1-csv.csv").read_bytes()
