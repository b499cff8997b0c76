"""The examples no other test runs still run to completion.

Other tests drive ``quickstart.py`` and ``trace_and_debug.py``, and CI's
determinism step drives ``linux_boot.py``; nothing else runs these four,
so each runs here as a fresh interpreter in an empty working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["custom_peripheral.py",
                                    "multicore_dhrystone.py",
                                    "riscv_on_riscv.py",
                                    "wfi_annotation_demo.py"])
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                            env=env, cwd=tmp_path, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
