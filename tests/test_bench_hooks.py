"""The benchmark's tracer finds every function it wraps.

``perfbench/tracer.py`` wraps functions by name where the CLI looks them
up; a name that disappears is recorded as missing and its time silently
leaves ``trace.coverage``.  This test makes such a deletion fail instead.
A change that retires a hook from the benchmark updates ``EXPECTED_MISSING``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tracer still wraps this CLI-level name, which the CLI no longer imports
EXPECTED_MISSING = ["divsel.cli.evaluate_set"]

PROBE = """
import json, tracer
t = tracer.Tracer("t")
tracer.install(t)
print(json.dumps({"missing": t.missing, "tallies": sorted(t.tallies)}))
"""


def test_tracer_hooks_resolve():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    hooks = json.loads(proc.stdout)
    assert hooks["missing"] == EXPECTED_MISSING
    assert hooks["tallies"] == ["divsel.cli.diversity_score", "divsel.selection.raw_score"]
