"""Multivariate division and Buchberger's algorithm.

This is the termination and membership engine behind the zeroness
procedures: ideal membership is decided by reduction against a reduced
Groebner basis, and saturation loops extend bases incrementally.

Every basis is taken under graded lex with variable 0 highest, the one
monomial order of the library; membership is the same under any order.
A monomial is the ``int`` a :class:`~zeroness.poly.Poly` stores (see
:class:`~zeroness.poly._Packing`), so the order is integer comparison, a
product is a sum and divisibility is a mask test; a polynomial is reduced
on the ``int`` numerators of its terms over one denominator, with the
keys it stores, and leaves as a ``Poly`` with the same keys.

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

from .errors import ContextMismatch, ResourceLimitExceeded
from .poly import (  # noqa: F401 (_MAX_EXPONENT re-exported)
    _MAX_EXPONENT,
    Poly,
    _from_numerators,
    _over_common_denominator,
    _packing,
    _poly,
)


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

    ``entries`` holds the tuples of :func:`_monic_entry`, packed by
    ``packing``, the packing of ``ctx``: each generator's head and its tail
    in integers.  They are computed once, when the basis is built; a basis
    is never modified after construction, and reduction and completion read
    heads and tails from here.  ``generators`` lifts them to ``Poly``
    objects on first use.
    """

    __slots__ = ("ctx", "packing", "entries", "_generators")

    def __init__(self, ctx, entries):
        self.ctx = ctx
        self.packing = _packing(len(ctx))
        self.entries = tuple(entries)
        self._generators = None

    @property
    def generators(self):
        if self._generators is None:
            one = Fraction(1)
            self._generators = tuple(
                _poly(self.ctx, {h: one, **{m: Fraction(c, d) for m, c in tail.items()}})
                for h, tail, d in self.entries
            )
        return self._generators

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other):
        return ideal_equal(self, other)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.generators)}]"


def _monic_entry(remainder):
    """``(head, tail, d)`` for a nonzero polynomial whose packed monomials
    map to ``int`` numerators in ``remainder``: the form in which
    generators are kept.

    The monic generator, the polynomial divided by its leading
    coefficient, is ``head + tail / d``: ``tail`` maps every other
    monomial to its coefficient times ``d`` as an ``int``, and ``d`` is the
    lcm of the coefficients' denominators.
    """
    head = max(remainder)
    lc = remainder[head]
    sign = 1 if lc > 0 else -1
    lc *= sign
    # the coefficient of m is sign * c / lc, with denominator lc // gcd(c, lc)
    d = 1
    for c in remainder.values():
        q = lc // gcd(c, lc)
        if d % q:
            d = d // gcd(d, q) * q
    tail = {m: sign * c * d // lc for m, c in remainder.items() if m != head}
    return head, tail, d


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
    budget = _Budget(limits.max_iterations)
    remainder, den = _reduce(p, basis.ctx, basis.entries, basis.packing, budget)
    return _from_numerators(p.ctx, remainder, den)


def _reduce(p, ctx, entries, packing, budget: _Budget):
    """``(remainder, den)`` of :func:`_normal_form` for ``p``, a ``Poly``
    of ``ctx``, on the ``int`` numerators of its terms."""
    if p.ctx is not ctx:
        raise ContextMismatch("polynomial outside the basis's context")
    (work,), den = _over_common_denominator(p.terms)
    return _normal_form(work, den, entries, packing, budget)


def _normal_form(work, den, entries, packing, budget):
    """Normal form of the polynomial ``work / den`` by ``entries``, tuples
    of :func:`_monic_entry`, where ``work`` maps packed monomials to
    ``int`` numerators over the one denominator ``den``.  Returns
    ``(remainder, den)`` in the same form, the remainder's monomials in
    descending order.

    Reduction runs on the numerators: a reducer ``head + tail / d`` with
    ``d`` dividing the current numerator ``c`` subtracts ``c // d`` times
    its shifted tail.  When ``d`` does not divide ``c``, every numerator
    and ``den`` are first scaled by ``d / gcd(c, d)``.
    """
    guards = packing.guards
    heappop, heappush = heapq.heappop, heapq.heappush
    # A term cancelled to 0 stays in ``work``, so each monomial is queued at
    # most once; negated, the largest pops first.
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        budget.spend()
        mg = m | guards
        for h, tail, d in entries:
            if (mg - h) & guards == guards:
                # work -= c * (m / h) * (h + tail / d): the head term cancels
                # exactly, and every introduced monomial is strictly below m
                # in the order.
                if c % d:
                    k = d // gcd(c, d)
                    c *= k
                    den *= k
                    work = {t: x * k for t, x in work.items()}
                    remainder = {t: x * k for t, x in remainder.items()}
                q = c // d
                shift = m - h
                for gm, gc in tail.items():
                    t = gm + shift
                    if t & guards:
                        raise packing.overflow(t)
                    prev = work.get(t)
                    if prev is None:
                        heappush(heap, -t)
                        work[t] = -q * gc
                    else:
                        work[t] = prev - q * gc
                break
        else:
            remainder[m] = c
    return remainder, den


def _s_poly_work(f, g, l, packing):
    """``(work, den)`` of the S-polynomial of the entries ``f`` and ``g``
    with packed head lcm ``l``: ``(l / hf) * f - (l / hg) * g``, whose heads
    cancel, so only the two shifted tails are summed.  Terms that cancel
    stay in ``work`` as 0."""
    hf, ft, fd = f
    hg, gt, gd = g
    guards = packing.guards
    den = fd // gcd(fd, gd) * gd
    work = {}
    for shift, tail, a in ((l - hf, ft, den // fd), (l - hg, gt, -(den // gd))):
        for m, c in tail.items():
            t = m + shift
            if t & guards:
                raise packing.overflow(t)
            work[t] = work.get(t, 0) + a * c
    return work, den


def _new_entry(remainder, size, packing, limits):
    """The entry of the nonzero ``remainder`` joining a basis of ``size``
    generators, once it passes the degree and basis caps."""
    degree = max(map(packing.degree, remainder))
    if degree > limits.max_degree:
        raise ResourceLimitExceeded("max_degree", degree, limits.max_degree)
    if size + 1 > limits.max_basis:
        raise ResourceLimitExceeded("max_basis", size + 1, limits.max_basis)
    return _monic_entry(remainder)


def _gm_update(gens, pairs, new, packing, seq):
    """Gebauer-Moller pair update: add ``new``, the entry of a monic and
    reduced generator, to ``gens`` and return the critical-pair heap
    rebuilt with the B/M/F criteria.

    A pair is (packed lcm, sequence number, entry f, entry g); the numbers
    come from ``seq`` and increase, so the heap pops the smallest lcm first
    and breaks ties in insertion order.
    """
    h = new[0]
    divides, lcm, guards = packing.divides, packing.lcm, packing.guards
    lcms = [lcm(h, e[0]) for e in gens]

    # M criterion: drop (g1, h) when another new pair's lcm strictly divides.
    kept = []
    for i, l1 in enumerate(lcms):
        l1g = l1 | guards
        if not any(l2 != l1 and (l1g - l2) & guards == guards for l2 in lcms):
            kept.append(i)
    # F criterion: among equal lcms keep one representative.
    seen = {}
    for i in kept:
        seen.setdefault(lcms[i], i)
    # Buchberger's coprimality criterion: the lcm of coprime heads is their
    # product.
    kept = [i for i in seen.values() if lcms[i] != h + gens[i][0]]

    # B criterion on old pairs.
    surviving = [
        pair
        for pair in pairs
        if not divides(h, pair[0])
        or lcm(h, pair[2][0]) == pair[0]
        or lcm(h, pair[3][0]) == pair[0]
    ]
    surviving.extend((lcms[i], next(seq), gens[i], new) for i in kept)
    heapq.heapify(surviving)
    gens.append(new)
    return surviving


def _interreduce(gens, packing, budget):
    """Reduce each of ``gens``, entries of monic generators, by the others
    until none changes; return them sorted ascending by head."""
    gens = list(gens)
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            h, tail, d = gens[i]
            g = {h: d, **tail}
            # with no reduction step the remainder is g itself; after one,
            # it lacks the monomial that step cancelled
            r, _ = _normal_form(dict(g), d, gens[:i] + gens[i + 1 :], packing, budget)
            if r != g:
                changed = True
                if r:
                    gens[i] = _monic_entry(r)
                else:
                    gens.pop(i)
                break
    gens.sort(key=lambda e: e[0])
    return gens


def _complete(gens, pairs, packing, limits, budget, seq):
    """Run pair reductions until no critical pair is left."""
    while pairs:
        budget.spend()
        # Normal strategy: smallest pair lcm in the order.
        l, _, f, g = heapq.heappop(pairs)
        work, den = _s_poly_work(f, g, l, packing)
        h, _ = _normal_form(work, den, gens, packing, budget)
        if h:
            new = _new_entry(h, len(gens), packing, limits)
            pairs = _gm_update(gens, pairs, new, packing, seq)
    return gens


def buchberger(gens, limits: GroebnerLimits = None, ctx=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``ctx`` is only needed for an empty (or all-zero) generator list,
    where the zero ideal has no context to infer from.
    """
    limits = limits or DEFAULT_LIMITS
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if ctx is None:
            raise ValueError("empty generator list needs an explicit ctx")
        return GroebnerBasis(ctx, ())
    ctx = gens[0].ctx
    packing = _packing(len(ctx))
    budget = _Budget(limits.max_iterations)
    seq = itertools.count()
    basis, pairs = [], []
    for g in gens:
        h, _ = _reduce(g, ctx, basis, packing, budget)
        if h:
            new = _new_entry(h, len(basis), packing, limits)
            pairs = _gm_update(basis, pairs, new, packing, seq)
    basis = _complete(basis, pairs, packing, limits, budget, seq)
    return GroebnerBasis(ctx, _interreduce(basis, packing, budget))


def extend(basis: GroebnerBasis, p, limits: GroebnerLimits = None) -> GroebnerBasis:
    """Groebner basis of ideal(basis) + <p>, reusing the existing basis.

    ``p`` is a ``Poly`` of the basis's context, or a pair ``(packed, den)``
    of its ``int`` numerators over one denominator, as saturation keeps
    its polynomials.  Returns ``basis`` itself when ``p`` is already a
    member.
    """
    limits = limits or DEFAULT_LIMITS
    packing, entries = basis.packing, basis.entries
    budget = _Budget(limits.max_iterations)
    if isinstance(p, Poly):
        h, _ = _reduce(p, basis.ctx, entries, packing, budget)
    else:
        packed, den = p  # the normal form consumes its work: copy it
        h, _ = _normal_form(dict(packed), den, entries, packing, budget)
    if not h:
        return basis
    new = _new_entry(h, len(entries), packing, limits)
    gens = list(entries)
    seq = itertools.count()
    pairs = _gm_update(gens, [], new, packing, seq)
    gens = _complete(gens, pairs, packing, limits, budget, seq)
    return GroebnerBasis(basis.ctx, _interreduce(gens, packing, budget))


def ideal_contains(basis: GroebnerBasis, p: Poly) -> bool:
    return reduce(p, basis).is_zero()


def ideal_equal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """With reduced bases, equality is generator equality."""
    if not isinstance(b, GroebnerBasis):
        return NotImplemented
    return list(a.generators) == list(b.generators)
