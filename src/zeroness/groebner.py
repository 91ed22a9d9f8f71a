"""Monomial orders, multivariate division, and Buchberger's algorithm.

This is the termination and membership engine behind the zeroness
procedures: ideal membership is decided by reduction against a reduced
Groebner basis, and saturation loops extend bases incrementally.

All computations carry resource caps; hitting one raises
:class:`~zeroness.errors.ResourceLimitExceeded`, which callers surface as
an inconclusive verdict rather than a wrong one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ResourceLimitExceeded
from .poly import Monomial, Poly, _over_common_denominator


class MonomialOrder:
    """A monomial order: graded-lex (default) or lex, both with variable
    id 0 highest."""

    __slots__ = ("kind",)

    GRLEX = "grlex"
    LEX = "lex"

    def __init__(self, kind=GRLEX):
        if kind not in (self.GRLEX, self.LEX):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind

    def key(self, m: Monomial, nvars: int):
        key = m.grlex_key(nvars)
        return key if self.kind == self.GRLEX else key[1]

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


@dataclass(frozen=True)
class GroebnerLimits:
    """Caps that keep the doubly exponential worst case from hanging.

    Conservative defaults; raise them on an inconclusive outcome.
    """

    max_degree: int = 64
    max_basis: int = 512
    max_iterations: int = 200_000


DEFAULT_LIMITS = GroebnerLimits()


class GroebnerBasis:
    """A reduced Groebner basis: monic generators, no head divisible by
    another head, every tail irreducible, sorted ascending by head.

    ``entries`` holds the tuples of :func:`_monic_entry`: each generator
    with its leading monomial under ``order`` and its tail in integers.
    They are computed once, when the basis is built, and stay in step with
    the generators: a basis is never modified after construction, and
    reduction and completion read heads and tails from here instead of
    recomputing them.
    """

    __slots__ = ("ctx", "order", "entries")

    def __init__(self, ctx, order: MonomialOrder, entries):
        self.ctx = ctx
        self.order = order
        self.entries = tuple(entries)

    @property
    def generators(self):
        return tuple(e[1] for e in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other):
        return ideal_equal(self, other)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.generators)}]"


def leading_monomial(p: Poly, order: MonomialOrder) -> Monomial:
    nv = len(p.ctx)
    return max(p.terms, key=lambda m: order.key(m, nv))


def _monic_entry(p: Poly, order: MonomialOrder):
    """``(head, g, tail, d)`` for nonzero ``p``: the form in which
    generators are kept.

    ``g`` is ``p`` divided by its leading coefficient, so
    ``g = head + tail / d``: ``tail`` maps every other monomial of ``g`` to
    its coefficient times ``d`` as an ``int``, and ``d`` is the lcm of
    their denominators.
    """
    hm = leading_monomial(p, order)
    g = p * (Fraction(1) / p.terms[hm])
    (tail,), d = _over_common_denominator(g.terms)
    del tail[hm]
    return hm, g, tail, d


class _Budget:
    """Shared step counter for one basis computation; reduction steps and
    pair selections spend from the same pool, so a single monstrous
    normal form fails loudly instead of hanging."""

    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceLimitExceeded("max_iterations", "exhausted", "budget")


def reduce(p: Poly, basis: GroebnerBasis, limits: "GroebnerLimits" = None) -> Poly:
    """Full normal form of ``p`` modulo ``basis``.

    The result is 0 iff ``p`` is in the ideal (when the basis is a
    Groebner basis).  Reduction is deterministic: reducers are tried in
    stored order.
    """
    limits = limits or DEFAULT_LIMITS
    return _reduce(p, basis.entries, basis.order, _Budget(limits.max_iterations))


def _neg_key(key):
    # component-wise negation inverts the lexicographic tuple order, so a
    # min-heap pops the largest monomial first; a lex key over no
    # variables is ()
    if key and isinstance(key[-1], tuple):
        return (-key[0], tuple([-e for e in key[1]]))
    return tuple([-e for e in key])


def _reduce(p: Poly, entries, order: MonomialOrder, budget: _Budget = None) -> Poly:
    """Normal form of ``p`` by ``entries``, tuples of :func:`_monic_entry`."""
    (work,), den = _over_common_denominator(p.terms)
    return _normal_form(p.ctx, work, den, entries, order, budget)


def _normal_form(ctx, work, den, entries, order, budget) -> Poly:
    """Normal form of the polynomial ``work / den``, where ``work`` maps
    monomials to ``int`` numerators over the one denominator ``den``.

    Reduction runs on the numerators: a reducer ``head + tail / d`` with
    ``d`` dividing the current numerator ``c`` subtracts ``c // d`` times
    its shifted tail.  When ``d`` does not divide ``c``, every numerator
    and ``den`` are first scaled by ``d / gcd(c, d)``.  The remainder gets
    one ``Fraction`` per term, so a zero remainder builds none.
    """
    nv = len(ctx)
    key = order.key
    # A term cancelled to 0 stays in ``work``, so each monomial is queued at
    # most once and no two heap entries share a key (the monomials are
    # never compared).
    heap = [(_neg_key(key(m, nv)), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        if budget is not None:
            budget.spend()
        for hm, _, tail, d in entries:
            if hm.divides(m):
                # work -= c * (m / hm) * (hm + tail / d): the head term
                # cancels exactly, and every introduced monomial is
                # strictly below m in the order.
                if c % d:
                    k = d // gcd(c, d)
                    c *= k
                    den *= k
                    work = {t: x * k for t, x in work.items()}
                    remainder = {t: x * k for t, x in remainder.items()}
                q = c // d
                shift = m / hm
                for gm, gc in tail.items():
                    t = gm * shift
                    prev = work.get(t)
                    if prev is None:
                        heapq.heappush(heap, (_neg_key(key(t, nv)), t))
                        work[t] = -q * gc
                    else:
                        work[t] = prev - q * gc
                break
        else:
            remainder[m] = c
    return Poly(ctx, {m: Fraction(c, den) for m, c in remainder.items()})


def _s_poly_work(f, g, l: Monomial):
    """``(work, den)`` of the S-polynomial of the entries ``f`` and ``g``
    with head lcm ``l``: ``(l / hf) * f - (l / hg) * g``, whose heads
    cancel, so only the two shifted tails are summed.  Terms that cancel
    stay in ``work`` as 0."""
    hf, _, ft, fd = f
    hg, _, gt, gd = g
    den = fd // gcd(fd, gd) * gd
    a, b = den // fd, den // gd
    sf, sg = l / hf, l / hg
    work = {m * sf: a * c for m, c in ft.items()}
    for m, c in gt.items():
        t = m * sg
        work[t] = work.get(t, 0) - b * c
    return work, den


def _gm_update(gens, pairs, new, order, seq):
    """Gebauer-Moller pair update: add ``new``, the entry of a monic and
    reduced generator, to ``gens`` and return the critical-pair heap
    rebuilt with the B/M/F criteria.

    A pair is (lcm key, sequence number, lcm, entry f, entry g); the
    numbers come from ``seq`` and increase, so the heap pops the smallest
    lcm first and breaks ties in insertion order.
    """
    hm = new[0]
    nv = len(new[1].ctx)
    lcms = [hm.lcm(e[0]) for e in gens]

    # M criterion: drop (g1, h) when another new pair's lcm strictly divides.
    kept = [
        i
        for i, l1 in enumerate(lcms)
        if not any(j != i and l2 != l1 and l2.divides(l1) for j, l2 in enumerate(lcms))
    ]
    # F criterion: among equal lcms keep one representative.
    seen = {}
    for i in kept:
        seen.setdefault(lcms[i].exps, i)
    # Buchberger's coprimality criterion.
    kept = [i for i in seen.values() if not hm.coprime(gens[i][0])]

    # B criterion on old pairs.
    surviving = [
        pair
        for pair in pairs
        if not hm.divides(pair[2])
        or hm.lcm(pair[3][0]) == pair[2]
        or hm.lcm(pair[4][0]) == pair[2]
    ]
    surviving.extend(
        (order.key(lcms[i], nv), next(seq), lcms[i], gens[i], new) for i in kept
    )
    heapq.heapify(surviving)
    gens.append(new)
    return surviving


def _interreduce(gens, order, budget=None):
    """Reduce each of ``gens``, entries of monic generators, by the others
    until none changes; return them sorted ascending by head."""
    gens = list(gens)
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            hm, g, tail, d = gens[i]
            r = _normal_form(
                g.ctx, {hm: d, **tail}, d, gens[:i] + gens[i + 1 :], order, budget
            )
            if r.terms != g.terms:
                changed = True
                if r.is_zero():
                    gens.pop(i)
                else:
                    gens[i] = _monic_entry(r, order)
                break
    nv = len(gens[0][1].ctx) if gens else 0
    gens.sort(key=lambda e: order.key(e[0], nv))
    return gens


def _complete(gens, pairs, order, limits, budget, seq):
    """Run pair reductions until no critical pair is left."""
    while pairs:
        budget.spend()
        # Normal strategy: smallest pair lcm in the order.
        _, _, l, f, g = heapq.heappop(pairs)
        work, den = _s_poly_work(f, g, l)
        h = _normal_form(f[1].ctx, work, den, gens, order, budget)
        if h.is_zero():
            continue
        if h.degree > limits.max_degree:
            raise ResourceLimitExceeded("max_degree", h.degree, limits.max_degree)
        if len(gens) + 1 > limits.max_basis:
            raise ResourceLimitExceeded("max_basis", len(gens) + 1, limits.max_basis)
        pairs = _gm_update(gens, pairs, _monic_entry(h, order), order, seq)
    return gens


def buchberger(
    gens, order: MonomialOrder = None, limits: GroebnerLimits = None, ctx=None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``ctx`` is only needed for an empty (or all-zero) generator list,
    where the zero ideal has no context to infer from.
    """
    order = order or MonomialOrder()
    limits = limits or DEFAULT_LIMITS
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if ctx is None:
            raise ValueError("empty generator list needs an explicit ctx")
        return GroebnerBasis(ctx, order, ())
    ctx = gens[0].ctx
    budget = _Budget(limits.max_iterations)
    seq = itertools.count()
    basis, pairs = [], []
    for g in gens:
        h = _reduce(g, basis, order, budget)
        if h.is_zero():
            continue
        if h.degree > limits.max_degree:
            raise ResourceLimitExceeded("max_degree", h.degree, limits.max_degree)
        if len(basis) + 1 > limits.max_basis:
            raise ResourceLimitExceeded("max_basis", len(basis) + 1, limits.max_basis)
        pairs = _gm_update(basis, pairs, _monic_entry(h, order), order, seq)
    basis = _complete(basis, pairs, order, limits, budget, seq)
    return GroebnerBasis(ctx, order, _interreduce(basis, order, budget))


def extend(basis: GroebnerBasis, p: Poly, limits: GroebnerLimits = None) -> GroebnerBasis:
    """Groebner basis of ideal(basis) + <p>, reusing the existing basis.

    Returns ``basis`` itself when ``p`` is already a member.
    """
    limits = limits or DEFAULT_LIMITS
    order = basis.order
    budget = _Budget(limits.max_iterations)
    h = _reduce(p, basis.entries, order, budget)
    if h.is_zero():
        return basis
    if h.degree > limits.max_degree:
        raise ResourceLimitExceeded("max_degree", h.degree, limits.max_degree)
    if len(basis) + 1 > limits.max_basis:
        raise ResourceLimitExceeded("max_basis", len(basis) + 1, limits.max_basis)
    gens = list(basis.entries)
    seq = itertools.count()
    pairs = _gm_update(gens, [], _monic_entry(h, order), order, seq)
    gens = _complete(gens, pairs, order, limits, budget, seq)
    return GroebnerBasis(basis.ctx, order, _interreduce(gens, order, budget))


def ideal_contains(basis: GroebnerBasis, p: Poly) -> bool:
    return reduce(p, basis).is_zero()


def ideal_equal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """With reduced bases under one order, equality is generator equality."""
    if not isinstance(b, GroebnerBasis):
        return NotImplemented
    if a.order != b.order:
        raise ValueError("bases use different monomial orders")
    return list(a.generators) == list(b.generators)
