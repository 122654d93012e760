"""Benchmark self-test: ``python -m pytest perfbench`` from the repository root."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_emits_every_metric_and_repeats_its_digests():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=600, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "errors": 0}
