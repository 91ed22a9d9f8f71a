"""The printed output of every closure construction and of every bundled
species, pinned: generator names, their order and every polynomial.

Saturation steps, witnesses and statistics depend on the generator order,
so a construction that renames or reorders generators changes verdicts
under the step budget.  The expected texts live in
``construction_pins.json``; a failure here means a construction's output
changed, not merely its speed.
"""

import glob
import json
import os

import pytest

from test_wbpp import running_example
from zeroness import cdf as C
from zeroness import formats as F
from zeroness import species as S
from zeroness import wbpp as W
from zeroness.errors import NotWellPosed

HERE = os.path.dirname(__file__)
MODELS = os.path.join(HERE, "..", "models")

with open(os.path.join(HERE, "construction_pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)


def sin():
    """A fresh copy of models/sin.cdf (a system of its own, so that binary
    constructions merge two systems)."""
    return F.load_model(os.path.join(MODELS, "sin.cdf"))[1]


def compiled(path):
    name, expr, sorts = F.load_model(path)[1]
    try:
        return F.format_cdf(S.compile_species(expr, sorts))
    except NotWellPosed as exc:
        return f"NotWellPosed: {exc}"


def shifted_sin():
    s = sin()
    return C.CdfSeries(s.system, s.expr + 1)


CASES = {
    "wbpp.sum_": lambda: F.format_wbpp(W.sum_(running_example(), running_example(1))),
    "wbpp.shuffle": lambda: F.format_wbpp(
        W.shuffle(running_example(), running_example(1))
    ),
    "wbpp.scale": lambda: F.format_wbpp(W.scale(running_example(), 3)),
    "wbpp.derive": lambda: F.format_wbpp(W.derive(running_example(), "a")),
    # the running example's start has output 0; its a-derivative has 1
    "wbpp.shuffle_inverse": lambda: F.format_wbpp(
        W.shuffle_inverse(W.derive(running_example(1), "a"))
    ),
    "cdf.c_add": lambda: F.format_cdf(C.c_add(sin(), sin())),
    "cdf.c_mul": lambda: F.format_cdf(C.c_mul(sin(), sin())),
    "cdf.c_inverse": lambda: F.format_cdf(C.c_inverse(shifted_sin())),
}
for _path in sorted(glob.glob(os.path.join(MODELS, "*.spec"))):
    CASES["spec." + os.path.basename(_path)] = lambda p=_path: compiled(p)


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_output_is_pinned(name):
    assert CASES[name]() == PINS[name]
