"""The seeded CLI matrix of tools/cli_matrix.py runs to the end with the expected exit codes."""

import importlib.util
from pathlib import Path

import pytest

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
    "screen-overflow",
}


# pytest records warnings instead of printing them, so a numpy RuntimeWarning would never reach a
# call's log here; as an error it escapes main and fails the run
@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    # a warm repeat loads the parse that the first call on tied.csv stored, and writes the same files
    assert (tmp_path / ".coxscreen-cache" / "tied.csv.parsed").exists()
    for cold, suffixes in (("screen-tied-cnone-csv", (".csv", "_selected.csv", ".log")),
                           ("diagnose-tied", (".csv", ".log"))):
        for suffix in suffixes:
            warm = (tmp_path / f"{cold}-warm{suffix}").read_bytes()
            assert warm == (tmp_path / f"{cold}{suffix}").read_bytes(), cold + suffix
    # an overflowing candidate leaves the one diagnostic line on stderr, with no numpy warnings before it
    err = (tmp_path / "screen-overflow.log").read_text().split("--- stderr\n")[1]
    assert err == "error category=validation: non-finite score/information contribution at event time 2.0\n"
