"""Seeded input generators for the benchmark.

Every generator returns plain data (lists, strings, integers), never a
zeroness object, so the inputs and their digest do not depend on how the
library represents them.  The ``build_*`` functions turn that data into
library objects through the public constructors only.

A polynomial is a list of terms ``[coefficient, exponents]`` where the
coefficient is a nonzero integer and ``exponents`` is a dense list with one
entry per variable.
"""

import hashlib
import json
from fractions import Fraction

NONZERO_COEFFS = (-3, -2, -1, 1, 2, 3)


def digest(specs) -> str:
    """SHA-256 of the canonical JSON of the generated inputs."""
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Plain polynomials --------------------------------------------------------------


def rand_term(rng, nvars, pool, degree):
    """One term of exactly ``degree``, its variables drawn from ``pool``."""
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.choice(pool)] += 1
    return [rng.choice(NONZERO_COEFFS), exps]


def rand_poly(rng, nvars, pool, degrees):
    """One term per entry of ``degrees``; like terms are merged."""
    merged = {}
    for d in degrees:
        c, exps = rand_term(rng, nvars, pool, d)
        merged[tuple(exps)] = merged.get(tuple(exps), 0) + c
    return [[c, list(e)] for e, c in sorted(merged.items()) if c != 0]


def build_poly(ctx, names, terms):
    p = ctx.zero()
    for c, exps in terms:
        t = ctx.const(Fraction(c))
        for name, e in zip(names, exps):
            if e:
                t = t * ctx.var(name) ** e
        p = p + t
    return p


# CDF systems ---------------------------------------------------------------------


def cdf_blocks(rng, dim, block, kernel_degrees, expr_degrees):
    """A system of independent per-axis blocks, each an autonomous ODE in its
    own generators, so that a power series solution always exists.

    ``kernel_degrees`` lists the degree of each term of every kernel entry;
    ``expr_degrees`` does the same for the expression, over all generators.
    """
    gens, owner = [], []
    for axis in range(1, dim + 1):
        for i in range(block):
            gens.append(f"g{axis}_{i}")
            owner.append(axis)
    k = len(gens)
    kernel = []
    for g in range(k):
        axis = owner[g]
        pool = [h for h in range(k) if owner[h] == axis]
        terms = rand_poly(rng, k, pool, kernel_degrees)
        if terms:
            kernel.append([g, axis, terms])
    return {
        "base": [f"x{j}" for j in range(1, dim + 1)],
        "gens": gens,
        "kernel": kernel,
        "init": [rng.randint(-2, 2) for _ in gens],
        "expr": rand_poly(rng, k, list(range(k)), expr_degrees),
    }


def cdf_dense(rng, k, terms, max_degree):
    """A dense one-variable system: every kernel entry mixes all ``k``
    generators, with ``terms`` terms of degree 0..max_degree each."""
    gens = [f"y{i}" for i in range(k)]
    pool = list(range(k))
    kernel = []
    for g in range(k):
        degrees = [rng.randint(0, max_degree) for _ in range(terms)]
        entry = rand_poly(rng, k, pool, degrees)
        if entry:
            kernel.append([g, 1, entry])
    return {
        "base": ["x1"],
        "gens": gens,
        "kernel": kernel,
        "init": [rng.randint(-2, 2) for _ in gens],
        "expr": rand_poly(rng, k, pool, [1, 1]),
    }


def build_cdf(spec):
    from zeroness import cdf
    from zeroness.poly import Context

    names = spec["gens"]
    ctx = Context(names)
    kernel = {
        (names[g], axis): build_poly(ctx, names, terms)
        for g, axis, terms in spec["kernel"]
    }
    init = [Fraction(v) for v in spec["init"]]
    system = cdf.CdfSystem(spec["base"], names, kernel, init)
    return cdf.CdfSeries(system, build_poly(system.ctx, names, spec["expr"]))


def fold_costs(spec, folds, limit):
    """Predicted cost of the first ``folds`` Lie derivatives of a
    one-variable system's expression, one cumulative figure per fold,
    stopping after the first figure above ``limit``.

    The figure sums (terms in) x (terms out) over the folds: the work of
    building each result one term product at a time.  Term counts come
    from supports alone, ignoring cancellation, which is linear in the
    support size and far cheaper than the exact fold.
    """
    # a monomial is packed into one integer, 8 bits per exponent
    def pack(exps):
        return sum(e << (8 * v) for v, e in enumerate(exps))

    steps = [  # (variable's bit offset, image monomials minus the variable)
        (8 * g, [pack(e) - (1 << (8 * g)) for _, e in terms])
        for g, _, terms in spec["kernel"]
    ]
    support = {pack(e) for _, e in spec["expr"]}
    cost, costs = 0, []
    for _ in range(folds):
        nxt = set()
        for m in support:
            for shift, images in steps:
                if (m >> shift) & 0xFF:
                    nxt.update(m + img for img in images)
        cost += len(support) * len(nxt)
        support = nxt
        costs.append(cost)
        if cost > limit:
            break
    return costs


# Processes -----------------------------------------------------------------------


def wbpp_shaped(rng, nts, letters, trans_degrees):
    """A process with ``nts`` nonterminals; every (letter, nonterminal)
    transition has one term per entry of ``trans_degrees``."""
    names = [f"N{i}" for i in range(nts)]
    pool = list(range(nts))
    alphabet = [chr(ord("a") + i) for i in range(letters)]
    transitions = []
    for a in alphabet:
        for nt in range(nts):
            terms = rand_poly(rng, nts, pool, trans_degrees)
            if terms:
                transitions.append([a, nt, terms])
    return {
        "alphabet": alphabet,
        "nts": names,
        "transitions": transitions,
        "outputs": [rng.randint(-2, 2) for _ in names],
    }


def build_wbpp(spec, shift=0):
    """The process started at its first nonterminal plus ``shift``."""
    from zeroness import wbpp
    from zeroness.poly import Context

    names = spec["nts"]
    ctx = Context(names)
    transitions = {
        (a, names[nt]): build_poly(ctx, names, terms)
        for a, nt, terms in spec["transitions"]
    }
    outputs = {nt: Fraction(v) for nt, v in zip(names, spec["outputs"])}
    start = ctx.var(names[0]) + shift
    return wbpp.Wbpp(spec["alphabet"], names, start, transitions, outputs)
