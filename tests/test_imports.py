"""``import repro`` needs only the dependencies ``pyproject.toml`` declares."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_networkx():
    script = ("import sys, repro, repro.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'networkx'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
