"""Command-line output pinned in ``cli_pins.json``, recorded before
``Poly`` products, substitution and renaming moved to packed monomials.

Each pin holds the argument list, the exit code and the exact stdout of
one command: ``--stats zero F``, ``coeffs F --max 6``, ``check F`` and
``--stats equiv F F`` for every file in ``models/``, and ``--stats
equipotent`` on two pairs of species.  Paths are relative to the
repository root, where the commands run.  CI runs this file under two
``PYTHONHASHSEED`` values.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from zeroness.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")

with open(os.path.join(os.path.dirname(__file__), "cli_pins.json")) as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_cli_output_is_pinned(pin, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(pin["argv"]))
    assert (code, out.getvalue()) == (pin["exit"], pin["stdout"])
