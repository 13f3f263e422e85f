import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxscreen


def _loaded_after_import(module, prefix):
    """Names of the modules under prefix that a fresh interpreter holds after importing module."""
    env = dict(os.environ)
    src = str(Path(coxscreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs over a second and tens of MB at import; nothing needs it
    assert _loaded_after_import("coxscreen", "scipy.stats") == "[]"


@pytest.mark.parametrize("module", ["coxscreen", "coxscreen.cli"])
def test_import_does_not_load_scipy_special(module):
    # scipy.special is only needed to draw simulated normals; screening never loads it
    assert _loaded_after_import(module, "scipy.special") == "[]"
