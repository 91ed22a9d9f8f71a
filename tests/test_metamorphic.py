"""Metamorphic equivalence checks on randomized solvable systems.

Algebraically equal presentations must never be declared different (and
vice versa); under tight resource caps an inconclusive bow-out is
acceptable, a wrong verdict never is, and nothing may hang.
"""

import random
from dataclasses import replace

from test_cdf import _random_solvable_system
from zeroness import cdf as C
from zeroness._saturation import Outcome, SaturationStats
from zeroness.groebner import GroebnerLimits

LIMITS = GroebnerLimits(max_degree=12, max_basis=48, max_iterations=3000)


def test_commutativity_and_linearity_of_closure_ops():
    rng = random.Random(5150)
    conclusive = 0
    for trial in range(12):
        dim = rng.choice([1, 2])
        f = _random_solvable_system(rng, dim)
        g = _random_solvable_system(rng, dim)
        checks = [
            C.equivalent(C.c_add(f, g), C.c_add(g, f), limits=LIMITS),
            C.equivalent(C.c_mul(f, g), C.c_mul(g, f), limits=LIMITS),
            C.equivalent(
                C.c_derive(C.c_scale(f, 3), 1),
                C.c_scale(C.c_derive(f, 1), 3),
                limits=LIMITS,
            ),
        ]
        for verdict in checks:
            if verdict.outcome is not Outcome.INCONCLUSIVE_RESOURCE_LIMIT:
                assert verdict.outcome is Outcome.ZERO, (trial, verdict)
                conclusive += 1
        shifted = C.CdfSeries(f.system, f.expr + 1)
        bumped = C.equivalent(f, shifted, limits=LIMITS)
        assert bumped.outcome is Outcome.NONZERO
        assert sum(bumped.witness) == 0 and bumped.value == -1
        conclusive += 1
    assert conclusive >= 12


def test_budget_prevents_reduction_blowup():
    # a dense random pair (the c_mul identity of trial 4 in the first
    # test) whose saturation spends the whole step budget of one basis
    # computation; the budget must turn it into a fast inconclusive exit
    rng = random.Random(5150)
    for _ in range(5):
        dim = rng.choice([1, 2])
        f = _random_solvable_system(rng, dim)
        g = _random_solvable_system(rng, dim)
    verdict = C.equivalent(C.c_mul(f, g), C.c_mul(g, f), limits=LIMITS)
    assert verdict.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT
    assert "max_iterations" in verdict.detail


def test_step_counts_of_a_saturation_are_pinned():
    # The c_mul identity of trial 3 in the first test decides ZERO when
    # each basis computation may spend 133 steps and not with 132.  The
    # step budget decides which queries end INCONCLUSIVE, so a change to
    # pair order, the signature criteria or interreduction shows up here
    # rather than as a silent verdict shift.
    rng = random.Random(5150)
    for _ in range(4):
        dim = rng.choice([1, 2])
        f = _random_solvable_system(rng, dim)
        g = _random_solvable_system(rng, dim)

    def verdict(steps):
        limits = replace(LIMITS, max_iterations=steps)
        return C.equivalent(C.c_mul(f, g), C.c_mul(g, f), limits=limits)

    decided = verdict(133)
    assert decided.outcome is Outcome.ZERO and decided.detail == ""
    assert decided.stats == SaturationStats(chain_length=2, basis_size=9, max_degree=4)
    short = verdict(132)
    assert short.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT
    assert short.detail == "resource cap 'max_iterations' exceeded: exhausted > budget"
    assert short.stats == SaturationStats(chain_length=1, basis_size=6, max_degree=4)
