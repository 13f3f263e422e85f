import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxscreen


def _loaded_after(code, prefixes):
    """Names of the modules under prefixes that a fresh interpreter holds after running code."""
    env = dict(os.environ)
    src = str(Path(coxscreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs over a second and tens of MB at import; nothing needs it
    assert _loaded_after("import coxscreen", ("scipy.stats",)) == "[]"


@pytest.mark.parametrize("module", ["coxscreen", "coxscreen.cli"])
def test_import_does_not_load_scipy_special(module):
    # scipy is not a runtime dependency; normals are drawn by simulate._ndtri
    assert _loaded_after(f"import {module}", ("scipy",)) == "[]"


@pytest.mark.parametrize("module", ["coxscreen", "coxscreen.cli"])
def test_import_does_not_load_a_process_pool(module):
    # only benchmark --workers > 1 needs multiprocessing
    prefixes = ("multiprocessing", "concurrent.futures.process")
    assert _loaded_after(f"import {module}", prefixes) == "[]"


@pytest.mark.parametrize("module", ["coxscreen", "coxscreen.cli"])
def test_import_does_not_load_hashlib(module):
    # only a read through the CLI's parse cache hashes, and it imports hashlib then
    assert _loaded_after(f"import {module}", ("hashlib",)) == "[]"


def test_simulation_does_not_load_scipy():
    code = (
        "from coxscreen import simulate\n"
        "from coxscreen.benchmark import run_benchmark\n"
        "config = simulate.example_config(1, n=40, p=8, censor_target=0.2, seed=3)\n"
        "simulate.calibrate_censoring(config)\n"
        "simulate.gen_replicate(config, 0)\n"
        "run_benchmark(config, replicates=1)\n"
    )
    assert _loaded_after(code, ("scipy",)) == "[]"
