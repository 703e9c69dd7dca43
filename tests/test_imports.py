import subprocess
import sys
from pathlib import Path

import bellkit


def test_import_leaves_scipy_optimize_unloaded():
    # scipy is imported only by the functions that solve an LP
    src = str(Path(bellkit.__file__).resolve().parent.parent)
    code = "import sys, bellkit; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
