import os
import subprocess
import sys
from pathlib import Path

import coxscreen


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs over a second and tens of MB at import; nothing needs it
    env = dict(os.environ)
    src = str(Path(coxscreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, coxscreen; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
