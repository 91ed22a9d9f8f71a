"""Support constraints over exponent vectors and their monoid recognizers.

The constraint grammar has per-coordinate atoms (equality with a constant,
congruence modulo m >= 1) and boolean connectives.  A constraint denotes a
subset of N^d; every such set is recognized by a finite commutative monoid
(threshold monoids for equalities, cyclic monoids for congruences, product
monoids for conjunction, complemented accepting sets for negation), which
is the form the series-restriction construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstraintError


@dataclass(frozen=True)
class Eq:
    axis: int  # 1-based
    value: int

    def __str__(self):
        return f"z{self.axis} == {self.value}"


@dataclass(frozen=True)
class ModEq:
    axis: int
    residue: int
    modulus: int

    def __str__(self):
        return f"z{self.axis} % {self.modulus} == {self.residue}"


@dataclass(frozen=True)
class And:
    left: object
    right: object

    def __str__(self):
        return f"({self.left} && {self.right})"


@dataclass(frozen=True)
class Or:
    left: object
    right: object

    def __str__(self):
        return f"({self.left} || {self.right})"


@dataclass(frozen=True)
class Not:
    child: object

    def __str__(self):
        return f"!({self.child})"


@dataclass(frozen=True)
class TrueExpr:
    """The empty conjunction: all of N^d."""

    def __str__(self):
        return "true"


TRUE = TrueExpr()


def ge(axis: int, n: int):
    """Sugar: z_axis >= n, compiled into the atom grammar."""
    if n <= 0:
        return TRUE
    return Not(le(axis, n - 1))


def le(axis: int, n: int):
    """Sugar: z_axis <= n."""
    expr = Eq(axis, 0)
    for v in range(1, n + 1):
        expr = Or(expr, Eq(axis, v))
    return expr


def and_all(exprs):
    exprs = list(exprs)
    if not exprs:
        return TRUE
    out = exprs[0]
    for e in exprs[1:]:
        out = And(out, e)
    return out


def validate(expr, dim: int):
    """Check dimension-consistency and atom well-formedness."""
    if isinstance(expr, Eq):
        if not 1 <= expr.axis <= dim:
            raise ConstraintError(f"axis z{expr.axis} out of range 1..{dim}")
        if expr.value < 0:
            raise ConstraintError("equality with a negative constant")
    elif isinstance(expr, ModEq):
        if not 1 <= expr.axis <= dim:
            raise ConstraintError(f"axis z{expr.axis} out of range 1..{dim}")
        if expr.modulus < 1:
            raise ConstraintError("modulus must be >= 1")
        if expr.residue < 0:
            raise ConstraintError("negative residue")
    elif isinstance(expr, (And, Or)):
        validate(expr.left, dim)
        validate(expr.right, dim)
    elif isinstance(expr, Not):
        validate(expr.child, dim)
    elif isinstance(expr, TrueExpr):
        pass
    else:
        raise ConstraintError(f"not a constraint expression: {expr!r}")


def contains(expr, vector) -> bool:
    """Direct semantics; the oracle the monoid route is tested against."""
    if isinstance(expr, Eq):
        return vector[expr.axis - 1] == expr.value
    if isinstance(expr, ModEq):
        return vector[expr.axis - 1] % expr.modulus == expr.residue % expr.modulus
    if isinstance(expr, And):
        return contains(expr.left, vector) and contains(expr.right, vector)
    if isinstance(expr, Or):
        return contains(expr.left, vector) or contains(expr.right, vector)
    if isinstance(expr, Not):
        return not contains(expr.child, vector)
    if isinstance(expr, TrueExpr):
        return True
    raise ConstraintError(f"not a constraint expression: {expr!r}")


class MonoidRecognizer:
    """A finite commutative monoid with a homomorphism from N^d and an
    accepting subset; recognizes the preimage of the accepting set.

    Elements are indices 0..size-1.  :func:`recognizer` checks the monoid
    laws on the trimmed result (:meth:`check_laws`).
    """

    __slots__ = ("size", "table", "identity", "images", "accepting")

    def __init__(self, size, table, identity, images, accepting):
        self.size = size
        self.table = [list(row) for row in table]
        self.identity = identity
        self.images = tuple(images)
        self.accepting = frozenset(accepting)

    def check_laws(self):
        """Raise :class:`ConstraintError` unless the table is a commutative
        monoid with the axis images inside it.

        Associativity is Light's test: (a*g)*c = a*(g*c) for every a, c and
        every g of a generating set, here the distinct axis images and each
        element not reachable from the identity through them.  The elements
        g passing the test are closed under the product, and the identity
        passes, so they are the whole monoid."""
        n = self.size
        t = self.table
        for m in self.images:
            if not 0 <= m < n:
                raise ConstraintError("axis image outside the monoid")
        for a in range(n):
            if t[self.identity][a] != a or t[a][self.identity] != a:
                raise ConstraintError("identity law fails")
        for a in range(n):
            for b in range(n):
                if t[a][b] != t[b][a]:
                    raise ConstraintError("commutativity fails")
        generators = set(self.images)
        generators |= set(range(n)) - _reachable(self.identity, generators, self.add)
        for g in generators:
            for a in range(n):
                ag, row = t[a][g], t[a]
                for c in range(n):
                    if t[ag][c] != row[t[g][c]]:
                        raise ConstraintError("associativity fails")

    @property
    def dim(self):
        return len(self.images)

    def add(self, a, b):
        return self.table[a][b]

    def __repr__(self):
        return f"MonoidRecognizer(size={self.size}, accepting={sorted(self.accepting)})"


def _reachable(start, steps, mul):
    """The elements ``start * s_1 * ... * s_r`` for steps s_i in ``steps``,
    multiplied by ``mul``."""
    reached = {start}
    frontier = [start]
    while frontier:
        a = frontier.pop()
        for g in steps:
            b = mul(a, g)
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    return reached


def _threshold_monoid(dim, axis, value):
    # Elements 0..value track the exact coordinate, value+1 is "overflow".
    size = value + 2
    inf = value + 1

    def add(a, b):
        if a == inf or b == inf or a + b > value:
            return inf
        return a + b

    table = [[add(a, b) for b in range(size)] for a in range(size)]
    images = [(1 if value >= 1 else inf) if j == axis - 1 else 0 for j in range(dim)]
    return MonoidRecognizer(size, table, 0, images, {value})


def _cyclic_monoid(dim, axis, residue, modulus):
    table = [[(a + b) % modulus for b in range(modulus)] for a in range(modulus)]
    images = [1 % modulus if j == axis - 1 else 0 for j in range(dim)]
    return MonoidRecognizer(modulus, table, 0, images, {residue % modulus})


def _product(m1: MonoidRecognizer, m2: MonoidRecognizer, union: bool):
    """The product monoid over the pairs reachable from the identity
    through the axis images.  They form a submonoid, the only part
    :func:`_trim` keeps, so the rest is never built; the pairs keep their
    order in the full product, so the trimmed result is the same."""
    t1, t2 = m1.table, m2.table

    def mul(a, b):
        return t1[a[0]][b[0]], t2[a[1]][b[1]]

    steps = set(zip(m1.images, m2.images))
    elems = sorted(_reachable((m1.identity, m2.identity), steps, mul))
    idx = {e: i for i, e in enumerate(elems)}
    table = [[idx[mul(a, b)] for b in elems] for a in elems]
    if union:
        accepting = {
            idx[(a, b)] for (a, b) in elems if a in m1.accepting or b in m2.accepting
        }
    else:
        accepting = {
            idx[(a, b)] for (a, b) in elems if a in m1.accepting and b in m2.accepting
        }
    images = [idx[(m1.images[j], m2.images[j])] for j in range(m1.dim)]
    return MonoidRecognizer(
        len(elems), table, idx[(m1.identity, m2.identity)], images, accepting
    )


def _trim(m: MonoidRecognizer) -> MonoidRecognizer:
    """Restrict to the submonoid reachable from the axis images, then merge
    elements indistinguishable under every reachable translate (a monoid
    congruence, so the quotient still recognizes the same set)."""
    order = sorted(_reachable(m.identity, set(m.images), m.add))
    # Partition refinement over the reachable submonoid: split until no
    # reachable translate distinguishes two elements of one block.
    fresh = {}
    block = {}
    for a in order:
        key = a in m.accepting
        fresh.setdefault(key, len(fresh))
        block[a] = fresh[key]
    while True:
        fresh = {}
        new_block = {}
        for a in order:
            key = (block[a], tuple(block[m.table[a][b]] for b in order))
            fresh.setdefault(key, len(fresh))
            new_block[a] = fresh[key]
        stable = len(fresh) == len(set(block.values()))
        block = new_block
        if stable:
            break
    classes = sorted(set(block.values()))
    remap = {c: i for i, c in enumerate(classes)}
    rep = {}
    for a in order:
        rep.setdefault(remap[block[a]], a)
    size = len(classes)
    table = [
        [remap[block[m.table[rep[i]][rep[j]]]] for j in range(size)]
        for i in range(size)
    ]
    images = [remap[block[m.images[j]]] for j in range(m.dim)]
    accepting = {remap[block[a]] for a in order if a in m.accepting}
    return MonoidRecognizer(size, table, remap[block[m.identity]], images, accepting)


def recognizer(expr, dim: int) -> MonoidRecognizer:
    """Compile a constraint of the given dimension to a trimmed recognizer."""
    validate(expr, dim)
    rec = _trim(_build(expr, dim))
    rec.check_laws()
    return rec


def _build(expr, dim):
    if isinstance(expr, Eq):
        return _threshold_monoid(dim, expr.axis, expr.value)
    if isinstance(expr, ModEq):
        return _cyclic_monoid(dim, expr.axis, expr.residue, expr.modulus)
    if isinstance(expr, And):
        return _product(_trim(_build(expr.left, dim)), _trim(_build(expr.right, dim)), False)
    if isinstance(expr, Or):
        return _product(_trim(_build(expr.left, dim)), _trim(_build(expr.right, dim)), True)
    if isinstance(expr, Not):
        m = _build(expr.child, dim)
        return MonoidRecognizer(
            m.size, m.table, m.identity, m.images, set(range(m.size)) - m.accepting
        )
    if isinstance(expr, TrueExpr):
        return MonoidRecognizer(1, [[0]], 0, [0] * dim, {0})
    raise ConstraintError(f"not a constraint expression: {expr!r}")
