"""Multivariate division and signature-based Groebner completion.

This is the termination and membership engine behind the zeroness
procedures: ideal membership is decided by reduction against a reduced
Groebner basis, and saturation loops extend bases incrementally.

A basis grows by one polynomial at a time (:func:`extend`, and
:func:`buchberger` folds it over its generators).  Each step completes
the old reduced basis and the new polynomial by signatures, so that most
S-pairs that would reduce to zero are never formed: J. C. Faugere, "A
new efficient algorithm for computing Groebner bases without reduction
to zero (F5)", ISSAC 2002; C. Eder and J. C. Faugere, "A survey on
signature-based algorithms for computing Groebner bases", J. Symbolic
Comput. 80 (2017).  See :func:`_adjoin`.  The new polynomial and each
S-pair are reduced only until their head is irreducible
(:func:`_top_reduce`); one final pass reduces every tail
(:func:`_interreduce`).

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

    ``max_iterations`` bounds the steps of one :func:`buchberger`,
    :func:`extend` or :func:`reduce` call.  A step is one term a reduction
    reads off (cancelled by a reducer or left standing), or one S-pair
    whose signature the criteria of :func:`_adjoin` let through to
    reduction.  In a completion, a polynomial is read off only until its
    head is irreducible, the irreducible head included
    (:func:`_top_reduce`); the final pass, :func:`_interreduce`, and
    :func:`reduce` read off every term.  Conservative defaults; raise
    them on an inconclusive outcome.
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
    S-pair reductions spend from the same pool, so a single monstrous
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
    work, den = _numerators(p, basis.ctx)
    remainder, den = _normal_form(work, den, basis.entries, basis.packing, budget)
    return _from_numerators(p.ctx, remainder, den)


def _numerators(p, ctx):
    """``(work, den)``: the ``int`` numerators of the terms of ``p``, a
    ``Poly`` of ``ctx``, over one denominator."""
    if p.ctx is not ctx:
        raise ContextMismatch("polynomial outside the basis's context")
    (work,), den = _over_common_denominator(p.terms)
    return work, den


def _subtract(work, heap, m, c, den, reducer, packing):
    """Cancel the term ``c * m`` of ``work / den``, already taken out of
    ``work``, by ``reducer``, an entry ``(head, tail, d)`` whose head
    divides ``m``; monomials new to ``work`` join ``heap``, negated.
    Returns ``(work, den, k)``, where the numerators were first scaled by
    ``k`` if ``d`` does not divide ``c``.

    Reduction runs on the numerators: a reducer ``head + tail / d`` with
    ``d`` dividing the current numerator ``c`` subtracts ``c // d`` times
    its shifted tail.  When ``d`` does not divide ``c``, every numerator
    and ``den`` are first scaled by ``k = d / gcd(c, d)``.  The head term
    cancels exactly, and every introduced monomial is strictly below ``m``
    in the order.  A term cancelled to 0 stays in ``work``, so each
    monomial is queued at most once.
    """
    h, tail, d = reducer
    k = 1
    if c % d:
        k = d // gcd(c, d)
        c *= k
        den *= k
        work = {t: x * k for t, x in work.items()}
    q = c // d
    shift = m - h
    guards = packing.guards
    for gm, gc in tail.items():
        t = gm + shift
        if t & guards:
            raise packing.overflow(t)
        prev = work.get(t)
        if prev is None:
            heapq.heappush(heap, -t)
            work[t] = -q * gc
        else:
            work[t] = prev - q * gc
    return work, den, k


def _normal_form(work, den, entries, packing, budget):
    """Full normal form of the polynomial ``work / den`` by ``entries``,
    tuples of :func:`_monic_entry`, where ``work`` maps packed monomials to
    ``int`` numerators over the one denominator ``den``.  Returns
    ``(remainder, den)`` in the same form, the remainder's monomials in
    descending order.  Reducers are tried in stored order.

    Only :func:`reduce` and the final pass of a completion,
    :func:`_interreduce`, reduce every term; the completion itself only
    top-reduces (:func:`_top_reduce`).
    """
    guards = packing.guards
    heappop = heapq.heappop
    # negated, the largest monomial pops first
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
        for reducer in entries:
            if (mg - reducer[0]) & guards == guards:
                break
        else:
            remainder[m] = c
            continue
        work, den, k = _subtract(work, heap, m, c, den, reducer, packing)
        if k != 1:
            remainder = {t: x * k for t, x in remainder.items()}
    return remainder, den


def _top_reduce(work, den, entries, packing, budget, signed=(), sigma=0):
    """``work / den``, in the form of :func:`_normal_form`, reduced by
    ``entries`` until no reducer divides its head: ``(rest, den)``, where
    ``rest`` holds the nonzero terms left, its head irreducible and its
    tail as the reductions left it, or is empty.  One step is spent on
    each term read off, the irreducible head included.

    ``signed`` holds further reducers ``(head, tail, d, sig)`` of
    signature ``sig`` (see :func:`_adjoin`); one may cancel the monomial
    ``m`` only when ``(m / head) * sig < sigma``, so that the reduction
    keeps the signature ``sigma`` of ``work``.  Reducers of ``entries``
    are tried first, in stored order, then those of ``signed``.
    """
    guards = packing.guards
    heappop = heapq.heappop
    heap = [-m for m in work]
    heapq.heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        budget.spend()
        mg = m | guards
        for reducer in entries:
            if (mg - reducer[0]) & guards == guards:
                break
        else:
            # A sum of packed monomials that overflows a field keeps every
            # field's exact value, so it still compares in grlex.
            for h, tail, d, sig in signed:
                if (mg - h) & guards == guards and m - h + sig < sigma:
                    reducer = h, tail, d
                    break
            else:
                work[m] = c
                return {t: x for t, x in work.items() if x}, den
        work, den, _ = _subtract(work, heap, m, c, den, reducer, packing)
    return {}, den


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


def _interreduce(gens, packing, budget):
    """The reduced Groebner basis of ``gens``, entries of monic generators
    that form a Groebner basis, sorted ascending by head.

    This final pass of a completion is where every tail is reduced: the
    completion reduces the new elements only until their heads are
    irreducible.  One pass in ascending order of heads suffices.  An entry
    whose head a kept head divides is dropped: the kept heads alone
    generate the ideal of heads, so the rest stay a Groebner basis (of
    equal heads the first stays, the sort being stable).  Every other
    entry is kept as its normal form by the entries kept so far.  A head
    that divides a monomial is no larger than it in grlex, so only
    smaller heads, all of them kept already, can divide a term of an
    entry's tail, and no later entry makes an earlier one reducible
    again.
    """
    divides = packing.divides
    kept = []
    for h, tail, d in sorted(gens, key=lambda e: e[0]):
        if any(divides(k[0], h) for k in kept):
            continue
        r, _ = _normal_form({h: d, **tail}, d, kept, packing, budget)
        kept.append(_monic_entry(r))
    return kept


def _adjoin(gens, h, packing, limits, budget):
    """Entries of the reduced Groebner basis of ideal(``gens``) + <``h``>,
    where ``gens`` are the entries of a reduced Groebner basis and ``h``,
    a nonzero remainder of :func:`_top_reduce` by them, has a head that no
    head of ``gens`` divides.

    The completion is the rewrite-basis algorithm of Eder and Faugere's
    survey, run over ``gens``, which stay fixed.  Each new element ``v``
    is ``t * h`` plus multiples of ``h`` by monomials below ``t`` and a
    member of ideal(``gens``); its signature ``sig(v)`` is the packed
    monomial ``t``, compared as an ``int`` (grlex).  ``h`` has signature 1.
    Reduction by ``gens`` keeps a signature; reduction by a multiple
    ``s * v`` does when ``s * sig(v)`` is below it.

    The S-pair of two elements is read as a J-pair: the multiple of the
    one whose multiple has the larger signature ``sigma``, the new element
    in a pair with one of ``gens``.  J-pairs are reduced by increasing
    ``sigma``, all J-pairs of one signature as one, and a signature is
    skipped

    - when a syzygy signature divides it: the head of some ``g`` of
      ``gens`` (the F5 criterion: ``g * h`` lies in ideal(``gens``)) or
      the signature of an earlier reduction to 0.  The test depends on
      ``sigma`` alone and the syzygies only grow, so a J-pair with a
      ``g`` whose own head divides its ``sigma`` (as it does whenever
      the two heads are coprime) is dropped when it is formed, in one
      division test; the others are tested against every syzygy when
      their signature is popped (a scan of every syzygy at each push
      costs more than the pairs it drops);
    - when its rewriter has no J-pair there (the rewrite criterion).  The
      rewriter of ``sigma`` is the element ``v`` with ``sig(v)`` dividing
      ``sigma`` whose multiple of signature ``sigma`` has the smallest
      head, the latest of those on a tie: the rewrite order by
      signature-to-head ratio of Eder and Roune (ISSAC 2013), which is the
      cover criterion of Gao, Volny and Wang (Math. Comp. 2016).

    The J-pair of a signature left is top-reduced (:func:`_top_reduce`):
    regular reduction of its head, by ``gens`` and by the multiples of
    signature below ``sigma``, until the head is irreducible.  The head,
    and whether the pair reduces to 0, do not depend on how far its tail
    is reduced, so the tails of new elements are left as the reductions
    made them.  A remainder is then never top-reducible by a multiple of
    signature ``sigma`` alone: that multiple would have a smaller head
    than the rewriter's, so the remainder joins the basis.  (Under the
    order of addition, where the rewriter is the latest element whose
    signature divides ``sigma``, such a remainder must be kept as a
    rewriter; a completion that dropped it lost basis elements.)

    ``gens`` and the new elements together are then a Groebner basis, and
    :func:`_interreduce` makes it the reduced one in one pass, reducing
    every tail there.
    """
    divides, lcm, guards = packing.divides, packing.lcm, packing.guards
    syzygies = [g[0] for g in gens]
    signed, pairs = [], []
    seq = itertools.count()

    def push(sigma, i, partner, fixed=False):
        if sigma & guards:
            raise packing.overflow(sigma)
        if not (fixed and divides(partner[0], sigma)):
            heapq.heappush(pairs, (sigma, next(seq), i, partner))

    def add(entry, sig):
        """``entry`` joins ``signed`` with signature ``sig``, and its
        J-pairs ``(sigma, seq, element index, partner entry)`` the heap."""
        hw, i = entry[0], len(signed)
        for g in gens:
            push(lcm(hw, g[0]) - hw + sig, i, g, fixed=True)
        for j, (hu, tu, du, su) in enumerate(signed):
            l = lcm(hw, hu)
            a, b = l - hw + sig, l - hu + su
            if a > b:
                push(a, i, (hu, tu, du))
            elif b > a:
                push(b, j, entry)
        signed.append((*entry, sig))

    add(_new_entry(h, len(gens), packing, limits), 0)
    while pairs:
        sigma = pairs[0][0]
        group = []
        while pairs and pairs[0][0] == sigma:
            group.append(heapq.heappop(pairs))
        sg = sigma | guards
        if any((sg - s) & guards == guards for s in syzygies):
            continue
        r = min(
            (i for i, v in enumerate(signed) if divides(v[3], sigma)),
            key=lambda i: (sigma - signed[i][3] + signed[i][0], -i),
        )
        pair = next((p for p in group if p[2] == r), None)
        if pair is None:
            continue
        budget.spend()
        f, g = signed[r][:3], pair[3]
        work, den = _s_poly_work(f, g, lcm(f[0], g[0]), packing)
        rem, _ = _top_reduce(work, den, gens, packing, budget, signed, sigma)
        if not rem:
            syzygies.append(sigma)
            continue
        add(_new_entry(rem, len(gens) + len(signed), packing, limits), sigma)
    return _interreduce([*gens, *(e[:3] for e in signed)], packing, budget)


def buchberger(gens, limits: GroebnerLimits = None, ctx=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The generators are adjoined one at a time, as by :func:`extend`, with
    one step budget for the whole computation.  ``ctx`` is only needed for
    an empty (or all-zero) generator list, where the zero ideal has no
    context to infer from.
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
    basis = []
    for g in gens:
        h, _ = _top_reduce(*_numerators(g, ctx), basis, packing, budget)
        if h:
            basis = _adjoin(basis, h, packing, limits, budget)
    return GroebnerBasis(ctx, basis)


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
        work, den = _numerators(p, basis.ctx)
    else:
        packed, den = p  # the reduction consumes its work: copy it
        work = dict(packed)
    h, _ = _top_reduce(work, den, entries, packing, budget)
    if not h:
        return basis
    return GroebnerBasis(basis.ctx, _adjoin(entries, h, packing, limits, budget))


def ideal_contains(basis: GroebnerBasis, p: Poly) -> bool:
    return reduce(p, basis).is_zero()


def ideal_equal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """With reduced bases, equality is generator equality."""
    if not isinstance(b, GroebnerBasis):
        return NotImplemented
    return list(a.generators) == list(b.generators)
