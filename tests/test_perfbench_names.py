"""The benchmark's tracer wraps package functions and methods by name.  A
name the package no longer has drops its layer from every traced run
without failing any test of the package, so it is checked here."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_name_the_benchmark_traces_exists():
    """Install the tracer in a fresh interpreter: it records no missing name."""
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "print(json.dumps(tracer.missing))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
