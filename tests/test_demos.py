"""The demo scripts run to completion against the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("cone_damage_stages.py", "cost_model_sweep.py", "cubic_convergence.py",
         "domain_decomposition.py", "patch_scheduling.py")
# output a demo must print: the pull-out stages solve two different systems
PRINTS = {"cone_damage_stages.py": r"stage 2 \(h=-395\): [1-9]\d* of \d+ A_rr entries changed"}


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert re.search(PRINTS.get(script, ""), proc.stdout), proc.stdout
