"""The benchmark's per-layer tracer (``bench/spans.py``) wraps library
functions by name in the modules that ``import zeroness.cli`` loads, so an
import change that stops loading one of them blinds a layer.  This checks
the same set-up in a fresh interpreter, as a traced benchmark run makes it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import zeroness.cli
import spans

tracer = spans.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps({
    "missing": tracer.missing,
    "targets": sum(len(targets) for _, targets, _ in spans.LAYERS),
    "constraints": "zeroness.constraints" in sys.modules,
}))
"""


def test_cli_import_reaches_every_traced_function():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    got = json.loads(run.stdout)
    assert got["missing"] == []
    assert got["targets"] > 0
    # only a parsed, validated or compiled constraint loads the module
    assert got["constraints"] is False
