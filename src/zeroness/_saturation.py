"""Shared ideal-chain saturation loop.

Both zeroness engines reduce to the same scheme: a start polynomial, a
finite family of (noncommuting) derivations of its ring, and a point at
which every polynomial reached must vanish.  The loop explores words of
derivations breadth-first, evaluates each reached polynomial at the point
(early NONZERO exit, yielding a shortest witness), and prunes every
polynomial lying in the ideal of those already retained; the retained set
is kept as an incrementally extended reduced Groebner basis.  The frontier
draining out is the Groebner-detected stabilisation of the ideal chain,
and then the start polynomial's whole derivation closure vanishes at the
point, so the answer is ZERO.

Each retained polynomial joins the basis through ``groebner.extend``,
which reduces it until its head is irreducible and adjoins it to the old
reduced basis by a signature completion: S-pairs whose signature an old head or an earlier reduction
to zero divides are never reduced, and those are most of the pairs the
chain would otherwise reduce to zero.  The step budget is per ``extend``
call, so which queries end INCONCLUSIVE under ``max_iterations`` follows
the completion's step counts; the verdicts that do not hit a cap, and
their stats, depend only on the ideals, since a reduced basis is unique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ResourceLimitExceeded
from .groebner import DEFAULT_LIMITS, buchberger, extend
from .poly import _evaluate, _over_common_denominator, _packing


class Outcome(Enum):
    ZERO = "ZERO"
    NONZERO = "NONZERO"
    INCONCLUSIVE_RESOURCE_LIMIT = "INCONCLUSIVE_RESOURCE_LIMIT"


@dataclass(frozen=True)
class SaturationStats:
    """How far a saturation got; for an inconclusive verdict, the values
    reached when the cap fired (0 / 0 if it fired in the first basis)."""

    chain_length: int
    basis_size: int
    max_degree: int


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of a zeroness query.

    ``witness`` is a tuple of derivation indices (the word read); NONZERO
    verdicts carry the exact nonzero ``value`` at that word.
    """

    outcome: Outcome
    witness: tuple = None
    value: Fraction = None
    stats: SaturationStats = None
    detail: str = ""

    @property
    def is_zero(self):
        return self.outcome is Outcome.ZERO

    @property
    def is_nonzero(self):
        return self.outcome is Outcome.NONZERO

    @property
    def is_inconclusive(self):
        return self.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT


def saturate(start, ops, point, limits=None) -> ZeroVerdict:
    """Decide whether the whole derivation closure of ``start`` vanishes
    at ``point``.

    ``ops`` is the ordered family of derivations (the BFS tries them in
    this order, so witnesses are shortest and lexicographically least).
    Every polynomial of the search is kept as the ``int`` numerators of
    its packed terms over one denominator, from the start through each
    derivation and evaluation to ``extend``; the degree cap reads the
    degree field.
    """
    limits = limits or DEFAULT_LIMITS
    packing = _packing(len(start.ctx))
    at = packing.point(point)
    max_degree = start.degree

    def stats(chain, basis):
        return SaturationStats(chain, basis, max_degree)

    chain, basis = 0, ()  # what an inconclusive verdict reports if a cap fires first
    try:
        (packed,), den = _over_common_denominator(start.terms)
        value = _evaluate(packed, den, at, packing)
        if value != 0:
            return ZeroVerdict(Outcome.NONZERO, (), value, stats(0, 0))
        if start.is_zero():
            return ZeroVerdict(Outcome.ZERO, stats=stats(0, 0))
        basis = buchberger([start], limits)
        frontier = deque([((packed, den), ())])
        while frontier:
            beta, word = frontier.popleft()
            for i, op in enumerate(ops):
                gamma = op._apply(*beta, packing)
                degree = max(gamma[0], default=0) >> packing.top
                if degree > limits.max_degree:
                    raise ResourceLimitExceeded("max_degree", degree, limits.max_degree)
                max_degree = max(max_degree, degree)
                w = word + (i,)
                value = _evaluate(*gamma, at, packing)
                if value != 0:
                    return ZeroVerdict(
                        Outcome.NONZERO, w, value, stats(chain, len(basis))
                    )
                extended = extend(basis, gamma, limits)
                if extended is not basis:
                    basis = extended
                    chain = max(chain, len(w))
                    frontier.append((gamma, w))
        return ZeroVerdict(Outcome.ZERO, stats=stats(chain, len(basis)))
    except ResourceLimitExceeded as exc:
        return ZeroVerdict(
            Outcome.INCONCLUSIVE_RESOURCE_LIMIT,
            stats=stats(chain, len(basis)),
            detail=str(exc),
        )
