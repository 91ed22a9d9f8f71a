"""Answers pinned in ``verdict_pins.json``, recorded before monomials were
packed into integers in the Groebner layer.

The `repr` of a verdict holds its outcome, witness, value, stats and
detail, so a change to reduction order, pair order or the step budget
shows up here as a changed string.  Heaps and dicts of packed monomials
must not depend on string hashing either: CI runs this file under two
``PYTHONHASHSEED`` values.
"""

import json
import os
import random

from test_cdf import _random_solvable_system
from test_metamorphic import LIMITS
from zeroness import cdf as C

with open(os.path.join(os.path.dirname(__file__), "verdict_pins.json")) as fh:
    PINS = json.load(fh)


def test_verdicts_of_the_closure_identities_are_pinned():
    # the 12 trials of test_metamorphic's
    # test_commutativity_and_linearity_of_closure_ops, drawn the same way
    rng = random.Random(5150)
    got = []
    for _ in range(12):
        dim = rng.choice([1, 2])
        f = _random_solvable_system(rng, dim)
        g = _random_solvable_system(rng, dim)
        got += [
            C.equivalent(C.c_add(f, g), C.c_add(g, f), limits=LIMITS),
            C.equivalent(C.c_mul(f, g), C.c_mul(g, f), limits=LIMITS),
            C.equivalent(
                C.c_derive(C.c_scale(f, 3), 1),
                C.c_scale(C.c_derive(f, 1), 3),
                limits=LIMITS,
            ),
            C.equivalent(f, C.CdfSeries(f.system, f.expr + 1), limits=LIMITS),
        ]
    assert [repr(v) for v in got] == PINS["commutativity_and_linearity_of_closure_ops"]

