import heapq
import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dense,
    grlex_key,
    macaulay_member,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    packed,
)
from zeroness import cdf as C
from zeroness import groebner
from zeroness import wbpp as W
from zeroness._saturation import Outcome
from zeroness.errors import ContextMismatch, ResourceLimitExceeded
from zeroness.groebner import (
    _MAX_EXPONENT,
    GroebnerLimits,
    _Budget,
    _packing,
    buchberger,
    extend,
    ideal_contains,
    ideal_equal,
    reduce,
)
from zeroness.poly import Context, Poly


@pytest.fixture
def ctx():
    return Context(["x", "y"])


def test_single_generator(ctx):
    gb = buchberger([ctx.var("x")])
    assert [str(g) for g in gb] == ["x"]


def test_zero_ideal(ctx):
    gb = buchberger([], ctx=ctx)
    assert len(gb) == 0
    c = ctx.const(Fraction(5, 3))
    assert reduce(c, gb) == c


def test_hand_computed_basis(ctx):
    # Hand run: S(x^2+y, xy) = y*(x^2+y) - x*(xy) = y^2; the remaining
    # S-pairs reduce to zero and no head divides another, so the reduced
    # basis keeps all three.
    x, y = ctx.var("x"), ctx.var("y")
    gb = buchberger([x**2 + y, x * y])
    assert sorted(str(g) for g in gb) == ["x*y", "x^2 + y", "y^2"]


def test_reduce_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    gb = buchberger([x**2 - y, y**2])
    assert reduce(x**2 - y, gb).is_zero()
    # x^2 y = y(x^2 - y) + y^2, checked by hand division
    assert reduce(x**2 * y, gb).is_zero()
    assert not reduce(x, gb).is_zero()


def test_ideal_contains_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert ideal_contains(buchberger([x]), x**3 * y)
    assert not ideal_contains(buchberger([x**2]), x)
    # x^2 - y^2 = (x + y)(x - y)
    assert ideal_contains(buchberger([x - y]), x**2 - y**2)


def test_ideal_equal_examples(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert ideal_equal(buchberger([x]), buchberger([2 * x]))
    assert not ideal_equal(buchberger([x]), buchberger([x, y]))
    # second generator x^3 - xy = x (x^2 - y)
    assert ideal_equal(
        buchberger([x**2 - y]), buchberger([y - x**2, x**3 - x * y])
    )


def test_reduction_idempotent(ctx):
    rng = random.Random(5)
    from test_poly import rand_poly

    for _ in range(25):
        gens = [rand_poly(ctx, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        p = rand_poly(ctx, rng)
        r = reduce(p, gb)
        assert reduce(r, gb) == r


def test_generators_reduce_to_zero(ctx):
    rng = random.Random(6)
    from test_poly import rand_poly

    for _ in range(25):
        gens = [rand_poly(ctx, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        for g in gens:
            assert reduce(g, gb).is_zero()


def test_membership_agrees_with_macaulay_oracle():
    # reduce == 0 must be confirmable by bounded linear algebra over the
    # basis (graded orders give degree-bounded representations), and
    # reduce != 0 must never be representable.
    ctx = Context(["x", "y", "z"])
    rng = random.Random(42)
    from test_poly import rand_poly

    checked_members = checked_nonmembers = 0
    for _ in range(30):
        gens = [rand_poly(ctx, rng, degree=2, terms=3, coeff_bound=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        basis = list(gb.generators)
        if not basis:
            continue
        # a guaranteed member
        member = gens[0] * rand_poly(ctx, rng, degree=1, terms=2)
        assert reduce(member, gb).is_zero()
        if member.degree <= 5:
            assert macaulay_member(member, basis, member.degree)
            checked_members += 1
        probe = rand_poly(ctx, rng, degree=2, terms=3)
        if probe.is_zero():
            continue
        if reduce(probe, gb).is_zero():
            assert macaulay_member(probe, basis, probe.degree)
        else:
            assert not macaulay_member(probe, basis, probe.degree + 2)
            checked_nonmembers += 1
    assert checked_members and checked_nonmembers


def test_incremental_extension_matches_batch(ctx):
    rng = random.Random(9)
    from test_poly import rand_poly

    for _ in range(20):
        gens = [rand_poly(ctx, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        batch = buchberger(gens)
        incremental = buchberger(gens[:1])
        for g in gens[1:]:
            incremental = extend(incremental, g)
        assert ideal_equal(batch, incremental)


def test_extend_member_returns_same_object(ctx):
    x = ctx.var("x")
    gb = buchberger([x])
    assert extend(gb, x**3) is gb


def test_polynomials_of_another_context_are_refused(ctx):
    # a context's packing is fixed, so a polynomial from another context,
    # even one with the same names, is refused rather than read by id
    other = Context(["x", "y", "z"])
    gb = buchberger([ctx.var("x")])
    for run in (
        lambda: reduce(other.var("z"), gb),
        lambda: extend(gb, other.var("z")),
        lambda: buchberger([ctx.var("x"), Context(["x", "y"]).var("y")]),
    ):
        with pytest.raises(ContextMismatch):
            run()


def test_degree_cap_raises(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    limits = GroebnerLimits(max_degree=1)
    with pytest.raises(ResourceLimitExceeded):
        buchberger([x**2 - y], limits=limits)


def test_basis_cap_raises():
    ctx = Context(["x", "y", "z"])
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    limits = GroebnerLimits(max_basis=1)
    with pytest.raises(ResourceLimitExceeded):
        buchberger([x * y - z, y * z - x, x * z - y], limits=limits)


def test_basis_cap_counts_input_generators(ctx):
    # coprime heads make no S-pair, so only the loop over the input
    # generators can see the basis outgrow the cap
    x, y = ctx.var("x"), ctx.var("y")
    with pytest.raises(ResourceLimitExceeded):
        buchberger([x], limits=GroebnerLimits(max_basis=0))
    with pytest.raises(ResourceLimitExceeded):
        buchberger([x, y], limits=GroebnerLimits(max_basis=1))
    assert len(buchberger([x, y], limits=GroebnerLimits(max_basis=2))) == 2


def test_elimination_and_the_unit_ideal_over_no_variables():
    # membership needs no elimination order: <x - y^2, x> contains y^2
    ctx = Context(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    gb = buchberger([x - y**2, x])
    assert [str(g) for g in gb] == ["x", "y^2"]
    assert ideal_contains(gb, y**2)
    # a constant over no variables packs to the degree field alone
    empty = Context([])
    assert [str(g) for g in buchberger([empty.const(2)])] == ["1"]


def test_basis_canonical_under_generator_permutation():
    ctx = Context(["x", "y", "z"])
    rng = random.Random(314)
    from test_poly import rand_poly

    for _ in range(15):
        gens = [rand_poly(ctx, rng, degree=2, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        forward = buchberger(gens)
        backward = buchberger(list(reversed(gens)))
        assert list(forward.generators) == list(backward.generators)


def test_cyclic4_step_count_is_pinned():
    # The step budget counts reduction steps and S-pair reductions, so it
    # decides which inputs end INCONCLUSIVE.  Cyclic-4 needs exactly 80
    # steps, its four generators adjoined one at a time; a change to pair
    # order, the signature criteria or interreduction shows up here.
    ctx = Context(["a", "b", "c", "d"])
    a, b, c, d = (ctx.var(n) for n in "abcd")
    cyclic4 = [
        a + b + c + d,
        a * b + b * c + c * d + d * a,
        a * b * c + b * c * d + c * d * a + d * a * b,
        a * b * c * d - 1,
    ]
    gb = buchberger(cyclic4, limits=GroebnerLimits(max_iterations=80))
    assert len(gb) == 7
    with pytest.raises(ResourceLimitExceeded):
        buchberger(cyclic4, limits=GroebnerLimits(max_iterations=79))


@st.composite
def built_monomials(draw):
    """Exponent vectors over ``nvars`` variables, each pair with the way
    the library is to build a packed monomial from them.  Exponents at the
    packed field boundary make products and quotients that straddle it."""
    nvars = draw(st.integers(0, 4))
    exponent = st.one_of(
        st.integers(0, 3), st.sampled_from([_MAX_EXPONENT - 1, _MAX_EXPONENT])
    )
    vec = st.lists(exponent, min_size=nvars, max_size=nvars).map(tuple)
    how = st.sampled_from(["power", "mul", "div", "lcm"])
    return nvars, draw(st.lists(st.tuples(vec, vec, how), min_size=1, max_size=8))


def monomial(ctx, exps):
    """The packed monomial of ``exps``, built by ring arithmetic in ``ctx``."""
    p = ctx.one()
    for v, e in enumerate(exps):
        p = p * ctx.var_by_id(v) ** e
    (m,) = p.terms
    return m


@given(built_monomials())
@settings(max_examples=100, deadline=None)
def test_order_key_matches_dense_reference(case):
    nvars, draws = case

    def ref(e):
        return sum(e), e

    # the same monomials built in a larger context, then in theirs again
    for n in (nvars, nvars + 2, nvars):
        pad = (0,) * (n - nvars)
        ctx = Context([f"v{i}" for i in range(n)])
        packing = _packing(n)
        # A product with an exponent past the field is refused; the other
        # monomials sort and pop off a negated heap in the order.
        fits = []
        for a, b, way in draws:
            a, b = a + pad, b + pad
            ka, kb = monomial(ctx, a), monomial(ctx, b)
            if way == "power":
                fits.append((ka, a))
            elif way == "lcm":
                fits.append((packing.lcm(ka, kb), tuple(map(max, a, b))))
            else:
                product = tuple(x + y for x, y in zip(a, b))
                if max(product, default=0) > _MAX_EXPONENT:
                    with pytest.raises(ResourceLimitExceeded) as refused:
                        Poly(ctx, {ka: Fraction(1)}) * Poly(ctx, {kb: Fraction(1)})
                    assert refused.value.cap == "exponent"
                    assert refused.value.value == max(product)
                    assert refused.value.value > refused.value.limit == _MAX_EXPONENT
                    continue
                (kab,) = (Poly(ctx, {ka: Fraction(1)}) * Poly(ctx, {kb: Fraction(1)})).terms
                fits.append((kab, product) if way == "mul" else (kab - kb, a))
        for m, e in fits:
            assert m == packed(e)
            assert dense(m, n) == e
            assert grlex_key(m, n) == ref(e)
        want = [e for _, e in sorted(fits, key=lambda it: ref(it[1]))]
        got = [e for _, e in sorted(fits, key=lambda it: it[0])]
        assert got == want
        heap = [-m for m, _ in fits]
        heapq.heapify(heap)
        popped = [-heapq.heappop(heap) for _ in fits]
        assert [dense(m, n) for m in popped] == want[::-1]

        for a, ea in fits:
            assert packing.degree(a) == sum(ea)
            for b, eb in fits:
                assert packing.divides(a, b) == mono_divides(a, b, n)
                if mono_divides(a, b, n):
                    assert b - a == mono_div(b, a, n)  # the shift
                assert packing.lcm(a, b) == mono_lcm(a, b, n)
                product = tuple(x + y for x, y in zip(ea, eb))
                top = max(product, default=0)
                if top > _MAX_EXPONENT:
                    assert (a + b) & packing.guards
                    assert packing.overflow(a + b).value == top
                else:
                    assert not (a + b) & packing.guards
                    assert a + b == mono_mul(a, b, n) == packed(product)


def test_exponent_overflow_is_a_resource_cap():
    # An exponent past the packed field cannot be built, and a product
    # that would carry out of it is refused: the computation is
    # inconclusive, never a normal form of wrapped exponents.
    ctx = Context(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    with pytest.raises(ResourceLimitExceeded) as refused:
        y ** (2**40) + x
    assert refused.value.cap == "exponent"
    limits = GroebnerLimits(max_degree=2**41)

    # x^M y^M by x + y: the first step's shift x^(M-1) y^M times the tail
    # y carries y past the field
    edge = x**_MAX_EXPONENT * y**_MAX_EXPONENT
    gb = buchberger([x + y])
    for run in (
        lambda: reduce(edge, gb, limits),
        lambda: buchberger([x + y, edge], limits),
        lambda: extend(gb, edge, limits),
    ):
        with pytest.raises(ResourceLimitExceeded) as refused:
            run()
        assert (refused.value.cap, refused.value.value) == ("exponent", _MAX_EXPONENT + 1)

    # S(x^M + y, x y^M) = y^M (x^M + y) - x^(M-1) (x y^M): the shift y^M of
    # the first tail carries y past the field
    f = x**_MAX_EXPONENT + y
    g = x * y**_MAX_EXPONENT
    with pytest.raises(ResourceLimitExceeded) as refused:
        buchberger([f, g], limits)
    assert (refused.value.cap, refused.value.value) == ("exponent", _MAX_EXPONENT + 1)


def test_exponent_overflow_makes_a_query_inconclusive():
    # a start of e^M vanishes at 0, and its first derivation, by e' = e^2,
    # gives M e^(M+1): past the field
    with pytest.raises(ResourceLimitExceeded) as refused:
        Context(["e"]).var("e") ** (2**40)
    assert refused.value.cap == "exponent"
    sys = C.CdfSystem(("x1",), ["e"], {("e", 1): Context(["e"]).var("e") ** 2}, [0])
    series = C.CdfSeries(sys, sys.ctx.var("e") ** _MAX_EXPONENT)
    m = W.Wbpp(["a"], ["X"], "X", {("a", "X"): Context(["X"]).var("X") ** 2}, {"X": 0})
    start = 3 * m.core.ctx.var("X") ** _MAX_EXPONENT
    limits = GroebnerLimits(max_degree=2**32)
    for verdict in (C.zeroness(series, limits), W.zeroness(m, start, limits)):
        assert verdict.outcome is Outcome.INCONCLUSIVE_RESOURCE_LIMIT
        assert verdict.detail == (
            f"resource cap 'exponent' exceeded: {_MAX_EXPONENT + 1} > {_MAX_EXPONENT}"
        )


# The Groebner layer reduces integer numerators over one tracked
# denominator, with every monomial packed into an int, and completes a
# basis by signatures.  It must give what the plain-Fraction division and
# signature completion below give, term for term and in the same order,
# spend the same steps, and store only Fraction coefficients.  The
# reference decodes the packed keys with the oracle's own arithmetic,
# orders and pairs them by the oracle's grlex key and its own copies of
# the heap key, the leading monomial and the signature criteria, so it
# runs no packed code of the library.  Classical completion, with the
# Gebauer-Moller update and no signatures, is the independent oracle for
# the bases themselves: a reduced Groebner basis is unique.


def ref_neg_key(key):
    # component-wise negation inverts the lexicographic tuple order, so a
    # min-heap pops the largest monomial first
    return -key[0], tuple([-e for e in key[1]])


def ref_leading_monomial(p):
    nv = len(p.ctx)
    return max(p.terms, key=lambda m: grlex_key(m, nv))


def ref_gm_update(gens, pairs, new, seq):
    """Gebauer-Moller update on (head, monic generator) entries; a pair is
    (lcm key, sequence number, lcm, entry f, entry g)."""
    hm = new[0]
    nv = len(new[1].ctx)
    lcms = [mono_lcm(hm, e[0], nv) for e in gens]
    kept = [
        i
        for i, l1 in enumerate(lcms)
        if not any(
            j != i and l2 != l1 and mono_divides(l2, l1, nv) for j, l2 in enumerate(lcms)
        )
    ]
    seen = {}
    for i in kept:
        seen.setdefault(dense(lcms[i], nv), i)
    kept = [i for i in seen.values() if not mono_coprime(hm, gens[i][0], nv)]
    surviving = [
        pair
        for pair in pairs
        if not mono_divides(hm, pair[2], nv)
        or mono_lcm(hm, pair[3][0], nv) == pair[2]
        or mono_lcm(hm, pair[4][0], nv) == pair[2]
    ]
    surviving.extend(
        (grlex_key(lcms[i], nv), next(seq), lcms[i], gens[i], new) for i in kept
    )
    heapq.heapify(surviving)
    gens.append(new)
    return surviving


def ref_entry(p):
    hm = ref_leading_monomial(p)
    return hm, p * (Fraction(1) / p.terms[hm])


def ref_reduce(p, entries, budget, signed=(), sigma=None, top=False):
    """Normal form of ``p`` by ``entries``, (head, monic generator) pairs,
    then by ``signed``, (head, monic generator, signature) triples, each
    only where its multiple's signature is below ``sigma``.  With ``top``,
    stop at the first term no reducer divides: ``p`` reduced until its
    head is irreducible, its tail as the reductions left it."""
    nv = len(p.ctx)
    work = dict(p.terms)
    heap = [(ref_neg_key(grlex_key(m, nv)), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if c == 0:
            continue
        budget.spend()
        reducers = [(hm, g) for hm, g in entries if mono_divides(hm, m, nv)]
        reducers += [
            (hm, g)
            for hm, g, sig in signed
            if mono_divides(hm, m, nv)
            and grlex_key(mono_mul(mono_div(m, hm, nv), sig, nv), nv)
            < grlex_key(sigma, nv)
        ]
        if not reducers:
            if top:
                work[m] = c
                return Poly(p.ctx, {t: x for t, x in work.items() if x != 0})
            remainder[m] = c
            continue
        hm, g = reducers[0]
        shift = mono_div(m, hm, nv)
        for gm, gc in g.terms.items():
            if gm == hm:
                continue
            t = mono_mul(gm, shift, nv)
            prev = work.get(t)
            if prev is None:
                heapq.heappush(heap, (ref_neg_key(grlex_key(t, nv)), t))
                work[t] = -c * gc
            else:
                work[t] = prev - c * gc
    return Poly(p.ctx, remainder)


def ref_s_poly(lf, f, lg, g, l):
    nv = len(f.ctx)
    mf = Poly(f.ctx, {mono_div(l, lf, nv): Fraction(1)})
    mg = Poly(g.ctx, {mono_div(l, lg, nv): Fraction(1)})
    return mf * f - mg * g


def ref_complete(gens, pairs, budget, seq):
    while pairs:
        budget.spend()
        _, _, l, (lf, f), (lg, g) = heapq.heappop(pairs)
        h = ref_reduce(ref_s_poly(lf, f, lg, g, l), gens, budget)
        if not h.is_zero():
            pairs = ref_gm_update(gens, pairs, ref_entry(h), seq)
    return gens


def ref_interreduce(gens, budget):
    gens = list(gens)
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            g = gens[i][1]
            r = ref_reduce(g, gens[:i] + gens[i + 1 :], budget)
            if r.terms != g.terms:
                changed = True
                if r.is_zero():
                    gens.pop(i)
                else:
                    gens[i] = ref_entry(r)
                break
    nv = len(gens[0][1].ctx) if gens else 0
    gens.sort(key=lambda e: grlex_key(e[0], nv))
    return gens


def ref_buchberger(gens, budget):
    seq = itertools.count()
    basis, pairs = [], []
    for g in gens:
        h = ref_reduce(g, basis, budget)
        if not h.is_zero():
            pairs = ref_gm_update(basis, pairs, ref_entry(h), seq)
    basis = ref_complete(basis, pairs, budget, seq)
    return ref_interreduce(basis, budget)


def ref_extend(entries, p, budget):
    h = ref_reduce(p, entries, budget)
    if h.is_zero():
        return entries
    gens = list(entries)
    seq = itertools.count()
    pairs = ref_gm_update(gens, [], ref_entry(h), seq)
    gens = ref_complete(gens, pairs, budget, seq)
    return ref_interreduce(gens, budget)


def ref_sig_adjoin(gens, h, budget):
    """The reduced basis of ``gens``, (head, monic generator) pairs of a
    reduced basis, and ``h``, nonzero with a head no head of ``gens``
    divides, completed by signatures: J-pairs by increasing signature,
    dropped when a syzygy signature (a head of ``gens`` or an earlier
    reduction to zero) divides theirs or when their element is not the
    one whose multiple of that signature has the smallest head (the latest
    of those), the rest reduced only until their head is irreducible; then
    the generators are interreduced in one pass, ascending by head, which
    reduces every tail."""
    nv = len(h.ctx)

    def key(m):
        return grlex_key(m, nv)

    def multiple(sig, hm, sigma):
        # the head of the multiple of signature sigma of an element
        return mono_mul(mono_div(sigma, sig, nv), hm, nv)

    syzygies = [hm for hm, _ in gens]
    signed, pairs = [], []  # (head, monic generator, signature); J-pairs
    seq = itertools.count()

    def push(sigma, i, partner):
        heapq.heappush(pairs, (key(sigma), next(seq), sigma, i, partner))

    def add(entry, sig):
        hw, i = entry[0], len(signed)
        for g in gens:
            push(mono_mul(mono_div(mono_lcm(hw, g[0], nv), hw, nv), sig, nv), i, g)
        for j, (hu, u, su) in enumerate(signed):
            l = mono_lcm(hw, hu, nv)
            a = mono_mul(mono_div(l, hw, nv), sig, nv)
            b = mono_mul(mono_div(l, hu, nv), su, nv)
            if key(a) > key(b):
                push(a, i, (hu, u))
            elif key(b) > key(a):
                push(b, j, entry)
        signed.append((*entry, sig))

    add(ref_entry(h), packed((0,) * nv))
    while pairs:
        group = [heapq.heappop(pairs)]
        while pairs and pairs[0][0] == group[0][0]:
            group.append(heapq.heappop(pairs))
        sigma = group[0][2]
        if any(mono_divides(z, sigma, nv) for z in syzygies):
            continue
        rewriters = [i for i, v in enumerate(signed) if mono_divides(v[2], sigma, nv)]
        r = min(
            rewriters, key=lambda i: (key(multiple(signed[i][2], signed[i][0], sigma)), -i)
        )
        chosen = [p for p in group if p[3] == r]
        if not chosen:
            continue
        budget.spend()
        hf, f, _ = signed[r]
        hg, g = chosen[0][4]
        s_poly = ref_s_poly(hf, f, hg, g, mono_lcm(hf, hg, nv))
        rem = ref_reduce(s_poly, gens, budget, signed, sigma, top=True)
        if rem.is_zero():
            syzygies.append(sigma)
        else:
            add(ref_entry(rem), sigma)
    # one ascending pass: drop a generator whose head a kept head divides
    # (the first of equal heads stays), reduce the rest by those kept
    gens = gens + [(hw, w) for hw, w, _ in signed]
    kept = []
    for hm, g in sorted(gens, key=lambda e: key(e[0])):
        if not any(mono_divides(k, hm, nv) for k, _ in kept):
            kept.append(ref_entry(ref_reduce(g, kept, budget)))
    return kept


def ref_sig_buchberger(gens, budget):
    basis = []
    for g in gens:
        h = ref_reduce(g, basis, budget, top=True)
        if not h.is_zero():
            basis = ref_sig_adjoin(basis, h, budget)
    return basis


def ref_sig_extend(entries, p, budget):
    h = ref_reduce(p, entries, budget, top=True)
    return entries if h.is_zero() else ref_sig_adjoin(entries, h, budget)


@contextmanager
def recorded_budgets():
    """Collect every step budget the library makes while the block runs."""
    made = []

    class Recorded(_Budget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    with mock.patch.object(groebner, "_Budget", Recorded):
        yield made


def capped(run):
    try:
        return run()
    except ResourceLimitExceeded:
        return None


def assert_same_polys(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g.terms.items()) == list(w.terms.items())
        for c in g.terms.values():
            assert type(c) is Fraction and c != 0


# a budget the classical reference does not reach on the drawn ideals
UNCAPPED = 10**7
REFERENCE_CTXS = {n: Context(["x", "y", "z", "w"][:n]) for n in (0, 2, 3, 4)}


def ref_poly(nvars, terms):
    """The polynomial of ``terms``, (exponents, numerator, denominator)."""
    out = {}
    for exps, num, den in terms:
        m = packed(exps)
        out[m] = out.get(m, Fraction(0)) + Fraction(num, den)
    return Poly(REFERENCE_CTXS[nvars], out)


@st.composite
def reduction_cases(draw):
    nvars = draw(st.sampled_from([2, 3]))  # no variables: the last @example
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    term = st.tuples(exps, st.integers(-6, 6), st.integers(1, 12))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=3))
    p = draw(st.lists(term, max_size=6))
    limit = draw(st.sampled_from([40, 400]))
    return nvars, gens, p, limit


@given(reduction_cases())
# a reducer with d == 1: x^2 + y
@example((2, [[((2, 0), 1, 1), ((0, 1), 1, 1)]], [((3, 0), 5, 3)], 400))
# (x - y/2)(x + y/3) reduces to zero by x - y/2
@example(
    (
        2,
        [[((1, 0), 1, 1), ((0, 1), -1, 2)]],
        [((2, 0), 1, 1), ((1, 1), -1, 6), ((0, 2), -1, 6)],
        400,
    )
)
# x + y by y - z/2: x is already in the remainder when the numerator 1 of y,
# which the reducer's d = 2 does not divide, forces a rescale
@example(
    (
        3,
        [[((0, 1, 0), 1, 1), ((0, 0, 1), -1, 2)]],
        [((1, 0, 0), 1, 1), ((0, 1, 0), 1, 1)],
        400,
    )
)
# S(x^2 + xy, xy + y^2) = y(x^2 + xy) - x(xy + y^2): the tails cancel as well
@example(
    (2, [[((2, 0), 1, 1), ((1, 1), 1, 1)], [((1, 1), 1, 1), ((0, 2), 1, 1)]], [], 400)
)
# no variables: every monomial is 1, of degree 0
@example((0, [[((), 3, 2)]], [((), 5, 7)], 400))
# x*y, x*z, y*z is not a regular sequence: two J-pairs reduce to zero
@example((3, [[((1, 1, 0), 1, 1)], [((1, 0, 1), 1, 1)], [((0, 1, 1), 1, 1)]], [], 400))
# z^2 then x*y^2: the J-pair's signature z^2 is the old head, so it is dropped
@example((3, [[((0, 0, 2), 2, 1)], [((1, 2, 0), 1, 1)]], [((1, 1, 1), 1, 1)], 400))
# x^2*z - x^2*y*z^2 then x*y: a reduction to zero whose signature drops a
# later J-pair
@example((3, [[((2, 0, 1), 1, 1), ((2, 1, 2), -1, 1)], [((1, 1, 0), 2, 1)]], [], 400))
# x^2 + y extended by x: the new head divides the old one, so x^2 + y is
# dropped and the basis is y, x
@example((2, [[((2, 0), 1, 1), ((0, 1), 1, 1)]], [((1, 0), 1, 1)], 400))
# y^2 + x extended by x: the new head divides a term of the old tail, so
# that tail is rewritten and the basis is x, y^2
@example((2, [[((0, 2), 1, 1), ((1, 0), 1, 1)]], [((1, 0), 1, 1)], 400))
# A remainder top-reducible only by a multiple of its own signature: with
# the latest element whose signature divides as the rewriter, dropping it
# lost y^5*z - y^4*z + ... from the basis.  The rewriter of smallest head
# never leaves such a remainder.
@example(
    (
        3,
        [
            [((1, 2, 1), 1, 2), ((0, 1, 0), 1, 2), ((2, 0, 0), -1, 1), ((2, 0, 2), 2, 1)],
            [((0, 0, 0), 1, 1), ((2, 1, 2), -1, 1)],
        ],
        [],
        400,
    )
)
# x^2 then x*y + x*z + y: the J-pair of signature x top-reduces to x*z + y,
# whose head divides the tail term x*z of x*y + x*z + y.  That tail is
# reduced only by the final pass, which leaves x*y.
@example(
    (
        3,
        [[((2, 0, 0), 1, 1)], [((1, 1, 0), 1, 1), ((1, 0, 1), 1, 1), ((0, 1, 0), 1, 1)]],
        [],
        400,
    )
)
@settings(max_examples=200, deadline=None)
def test_groebner_layer_matches_fraction_reference(case):
    nvars, gens, p, limit = case
    limits = GroebnerLimits(max_iterations=limit)
    ctx = REFERENCE_CTXS[nvars]
    gens = [ref_poly(nvars, g) for g in gens]
    p = ref_poly(nvars, p)
    nonzero = [g for g in gens if not g.is_zero()]

    budget = _Budget(limit)
    want = capped(lambda: ref_sig_buchberger(nonzero, budget))
    with recorded_budgets() as made:
        got = capped(lambda: buchberger(gens, limits, ctx=ctx))
    assert sum(limit - b.left for b in made) == limit - budget.left
    if want is None:
        assert got is None
        return
    assert_same_polys(got.generators, [g for _, g in want])
    classical = ref_buchberger(nonzero, _Budget(UNCAPPED))
    assert_same_polys(got.generators, [g for _, g in classical])

    budget = _Budget(limit)
    want_nf = capped(lambda: ref_reduce(p, want, budget))
    with recorded_budgets() as made:
        got_nf = capped(lambda: reduce(p, got, limits))
    assert [b.left for b in made] == [budget.left]
    assert (got_nf is None) == (want_nf is None)
    if got_nf is not None:
        assert_same_polys([got_nf], [want_nf])

    budget = _Budget(limit)
    want_ext = capped(lambda: ref_sig_extend(want, p, budget))
    with recorded_budgets() as made:
        got_ext = capped(lambda: extend(got, p, limits))
    assert [b.left for b in made] == [budget.left]
    assert (got_ext is None) == (want_ext is None)
    if got_ext is not None:
        assert (got_ext is got) == (want_ext is want)
        assert_same_polys(got_ext.generators, [g for _, g in want_ext])
        classical = ref_extend(want, p, _Budget(UNCAPPED))
        assert_same_polys(got_ext.generators, [g for _, g in classical])


@st.composite
def ideal_cases(draw):
    nvars = draw(st.integers(2, 4))
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    term = st.tuples(exps, st.integers(-3, 3), st.integers(1, 3))
    gens = st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=4)
    return nvars, draw(gens)


@given(ideal_cases())
# y^2*w^2 then a remainder that, with the latest element whose signature
# divides as the rewriter and singularly top-reducible remainders dropped,
# left y*z*w^4 in the basis in place of z*w^4
@example(
    (
        4,
        [
            [((0, 2, 0, 2), -5, 4)],
            [
                ((2, 1, 2, 2), 1, 2),
                ((1, 2, 2, 1), 3, 2),
                ((2, 2, 1, 0), 1, 2),
                ((0, 0, 1, 2), 1, 2),
            ],
        ],
    )
)
@settings(max_examples=100, deadline=None)
def test_extend_matches_classical_completion(case):
    # extend one generator at a time, as saturation does, and compare with
    # the classical completion of all of them at once
    nvars, gens = case
    gens = [ref_poly(nvars, g) for g in gens]
    limits = GroebnerLimits(max_iterations=3000)

    def incremental():
        basis = buchberger(gens[:1], limits, ctx=REFERENCE_CTXS[nvars])
        for g in gens[1:]:
            basis = extend(basis, g, limits)
        return basis

    got = capped(incremental)
    if got is None:
        return
    want = ref_buchberger([g for g in gens if not g.is_zero()], _Budget(UNCAPPED))
    assert_same_polys(got.generators, [g for _, g in want])
