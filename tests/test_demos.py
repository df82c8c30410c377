"""The quick demos run to completion, and every name the package exports
resolves. Demos 02 and 04 train models for about 20 s each and are left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lfked

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_autodiff.py", "03_conditioning.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_every_exported_name_resolves():
    missing = [name for name in lfked.__all__ if not hasattr(lfked, name)]
    assert not missing, missing
