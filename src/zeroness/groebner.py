"""Monomial orders, multivariate division, and Buchberger's algorithm.

This is the termination and membership engine behind the zeroness
procedures: ideal membership is decided by reduction against a reduced
Groebner basis, and saturation loops extend bases incrementally.

All computations carry resource caps; hitting one raises
:class:`~zeroness.errors.ResourceLimitExceeded`, which callers surface as
an inconclusive verdict rather than a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceLimitExceeded
from .poly import Monomial, Poly


class MonomialOrder:
    """A monomial order: graded-lex (default) or lex, with an optional
    variable priority permutation (highest priority first)."""

    __slots__ = ("kind", "priority")

    GRLEX = "grlex"
    LEX = "lex"

    def __init__(self, kind=GRLEX, priority=None):
        if kind not in (self.GRLEX, self.LEX):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.priority = tuple(priority) if priority is not None else None

    def key(self, m: Monomial, nvars: int):
        prio = self.priority if self.priority is not None else range(nvars)
        exps = tuple(m.exponent(v) for v in prio)
        if self.kind == self.GRLEX:
            return (m.degree, exps)
        return exps

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.priority == other.priority
        )

    def __hash__(self):
        return hash((self.kind, self.priority))

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
    another head, every tail irreducible, sorted ascending by head."""

    __slots__ = ("ctx", "order", "generators")

    def __init__(self, ctx, order: MonomialOrder, generators):
        self.ctx = ctx
        self.order = order
        self.generators = tuple(generators)

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other):
        return ideal_equal(self, other)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.generators)}]"


def leading_monomial(p: Poly, order: MonomialOrder) -> Monomial:
    nv = len(p.ctx)
    return max(p.terms, key=lambda m: order.key(m, nv))


def leading_coefficient(p: Poly, order: MonomialOrder) -> Fraction:
    return p.terms[leading_monomial(p, order)]


def monic(p: Poly, order: MonomialOrder) -> Poly:
    if p.is_zero():
        return p
    c = leading_coefficient(p, order)
    return p * (Fraction(1) / c)


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
    return _reduce(p, basis.generators, basis.order, _Budget(limits.max_iterations))


def _neg_key(key):
    # component-wise negation inverts the lexicographic tuple order, so a
    # min-heap pops the largest monomial first
    if isinstance(key[-1], tuple):
        return tuple(-k for k in key[:-1]) + (tuple(-e for e in key[-1]),)
    return tuple(-k for k in key)


def _reduce(p: Poly, gens, order: MonomialOrder, budget: _Budget = None) -> Poly:
    import heapq

    nv = len(p.ctx)
    heads = [(leading_monomial(g, order), g) for g in gens]
    work = dict(p.terms)
    heap = [(_neg_key(order.key(m, nv)), m.exps) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, exps = heapq.heappop(heap)
        m = Monomial._from_sorted(exps)
        c = work.pop(m, None)
        if c is None or c == 0:
            continue
        if budget is not None:
            budget.spend()
        for hm, g in heads:
            if hm.divides(m):
                # work -= c * (m / hm) * g ; generators are monic, so the
                # head term cancels exactly and is skipped below.  Every
                # introduced monomial is strictly below m in the order.
                shift = m / hm
                for gm, gc in g.terms.items():
                    if gm == hm:
                        continue
                    key = gm * shift
                    if key not in work:
                        heapq.heappush(
                            heap, (_neg_key(order.key(key, nv)), key.exps)
                        )
                        work[key] = -c * gc
                    else:
                        val = work[key] - c * gc
                        if val == 0:
                            del work[key]
                        else:
                            work[key] = val
                break
        else:
            remainder[m] = c
    return Poly(p.ctx, remainder)


def _s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    lf, lg = leading_monomial(f, order), leading_monomial(g, order)
    l = lf.lcm(lg)
    mf = Poly(f.ctx, {l / lf: Fraction(1)})
    mg = Poly(g.ctx, {l / lg: Fraction(1)})
    return mf * f - mg * g


def _gm_update(gens, pairs, h, order):
    """Gebauer-Moller pair update: add ``h`` (monic, reduced) to the basis
    and rebuild the critical-pair set with the B/M/F criteria."""
    nv = len(h.ctx)
    lm = {id(g): leading_monomial(g, order) for g in gens}
    lm_h = leading_monomial(h, order)

    def pair_lcm(g):
        return lm_h.lcm(lm[id(g)])

    # M criterion: drop (h, g1) when another new pair's lcm strictly divides.
    candidates = list(gens)
    kept = []
    for g1 in candidates:
        l1 = pair_lcm(g1)
        dominated = False
        for g2 in candidates:
            if g2 is g1:
                continue
            l2 = pair_lcm(g2)
            if l2 != l1 and l2.divides(l1):
                dominated = True
                break
        if not dominated:
            kept.append(g1)
    # F criterion: among equal lcms keep one representative.
    seen = {}
    for g in kept:
        seen.setdefault(pair_lcm(g).exps, g)
    kept = list(seen.values())
    # Buchberger's coprimality criterion.
    kept = [g for g in kept if not lm_h.coprime(lm[id(g)])]

    # B criterion on old pairs.
    surviving = []
    for f, g in pairs:
        l = lm[id(f)].lcm(lm[id(g)])
        if not lm_h.divides(l) or lm_h.lcm(lm[id(f)]) == l or lm_h.lcm(lm[id(g)]) == l:
            surviving.append((f, g))

    gens.append(h)
    surviving.extend((g, h) for g in kept)
    return surviving


def _interreduce(gens, order, budget=None):
    gens = [monic(g, order) for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            g = gens[i]
            others = gens[:i] + gens[i + 1 :]
            r = _reduce(g, others, order, budget)
            if r.terms != g.terms:
                changed = True
                if r.is_zero():
                    gens.pop(i)
                else:
                    gens[i] = monic(r, order)
                break
    nv = len(gens[0].ctx) if gens else 0
    gens.sort(key=lambda g: order.key(leading_monomial(g, order), nv))
    return gens


def _complete(gens, pairs, order, limits, budget):
    """Run pair reductions until no critical pair is left."""
    nv = len(gens[0].ctx) if gens else 0
    while pairs:
        budget.spend()
        # Normal strategy: smallest pair lcm in the order.
        pairs.sort(
            key=lambda fg: order.key(
                leading_monomial(fg[0], order).lcm(leading_monomial(fg[1], order)), nv
            )
        )
        f, g = pairs.pop(0)
        h = _reduce(_s_poly(f, g, order), gens, order, budget)
        if h.is_zero():
            continue
        if h.degree > limits.max_degree:
            raise ResourceLimitExceeded("max_degree", h.degree, limits.max_degree)
        if len(gens) + 1 > limits.max_basis:
            raise ResourceLimitExceeded("max_basis", len(gens) + 1, limits.max_basis)
        pairs = _gm_update(gens, pairs, monic(h, order), order)
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
    basis, pairs = [], []
    for g in gens:
        h = _reduce(g, basis, order, budget)
        if h.is_zero():
            continue
        if h.degree > limits.max_degree:
            raise ResourceLimitExceeded("max_degree", h.degree, limits.max_degree)
        pairs = _gm_update(basis, pairs, monic(h, order), order)
    basis = _complete(basis, pairs, order, limits, budget)
    return GroebnerBasis(ctx, order, _interreduce(basis, order, budget))


def extend(basis: GroebnerBasis, p: Poly, limits: GroebnerLimits = None) -> GroebnerBasis:
    """Groebner basis of ideal(basis) + <p>, reusing the existing basis.

    Returns ``basis`` itself when ``p`` is already a member.
    """
    limits = limits or DEFAULT_LIMITS
    budget = _Budget(limits.max_iterations)
    h = _reduce(p, basis.generators, basis.order, budget)
    if h.is_zero():
        return basis
    if h.degree > limits.max_degree:
        raise ResourceLimitExceeded("max_degree", h.degree, limits.max_degree)
    if len(basis) + 1 > limits.max_basis:
        raise ResourceLimitExceeded("max_basis", len(basis) + 1, limits.max_basis)
    gens = list(basis.generators)
    pairs = _gm_update(gens, [], monic(h, basis.order), basis.order)
    gens = _complete(gens, pairs, basis.order, limits, budget)
    return GroebnerBasis(basis.ctx, basis.order, _interreduce(gens, basis.order, budget))


def ideal_contains(basis: GroebnerBasis, p: Poly) -> bool:
    return reduce(p, basis).is_zero()


def ideal_equal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """With reduced bases under one order, equality is generator equality."""
    if not isinstance(b, GroebnerBasis):
        return NotImplemented
    if a.order != b.order:
        raise ValueError("bases use different monomial orders")
    return list(a.generators) == list(b.generators)
