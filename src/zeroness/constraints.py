"""Support constraints over exponent vectors and their monoid recognizers.

The constraint grammar has per-axis atoms (equality with a constant,
congruence modulo m >= 1) and boolean connectives; a constraint denotes a
subset of N^d.  Every atom reads one axis, so per-axis counters decide
membership: each counts exactly up to one past the axis' largest equality
constant, then cycles modulo the lcm of its moduli.  :func:`recognizer`
builds the monoid of counter vectors and merges the vectors that no
translate tells apart (the coarsest stable partition, Hopcroft 1971).  The
result is the minimal finite commutative monoid recognizing the set, the
form the series-restriction construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm, prod

from .errors import ConstraintError, ResourceLimitExceeded


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
    """Sugar: z_axis <= n, a balanced disjunction of the equalities
    z_axis == v for v = 0..n, so its depth is logarithmic in n."""

    def span(lo, hi):  # z_axis == v for lo <= v < hi
        if hi - lo == 1:
            return Eq(axis, lo)
        mid = (lo + hi + 1) // 2
        return Or(span(lo, mid), span(mid, hi))

    return span(0, n + 1) if n >= 0 else Not(TRUE)


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

    Elements are indices 0..size-1, numbered by the first counter vector
    (axis 1 most significant) that maps to each, so the identity is 0.
    ``images[i]`` is the image of the unit vector on axis i + 1.  The
    monoid is the quotient of a counter monoid by a congruence, so the laws
    hold by construction, and it is minimal: no two elements accept under
    the same translates.
    """

    __slots__ = ("size", "table", "identity", "images", "accepting")

    def __init__(self, size, table, identity, images, accepting):
        self.size = size
        self.table = table
        self.identity = identity
        self.images = tuple(images)
        self.accepting = frozenset(accepting)

    def add(self, a, b):
        return self.table[a][b]

    def __repr__(self):
        return f"MonoidRecognizer(size={self.size}, accepting={sorted(self.accepting)})"


# Each element of a recognizer becomes one generator copy per generator of
# the restricted series, so a larger counter monoid is refused before any
# of its counter vectors is built.
MAX_RECOGNIZER_SIZE = 1024


def recognizer(expr, dim: int) -> MonoidRecognizer:
    """Compile a constraint of the given dimension to its minimal recognizer.

    Axis i counts exactly below t_i, one past its largest equality constant,
    and then cycles modulo p_i, the lcm of its moduli.  A counter vector s
    with s_i < t_i + p_i is its own smallest representative, so it accepts
    iff ``contains(expr, s)``.  Merging the vectors that no translate tells
    apart gives the minimal monoid; its table adds class representatives
    one unit step at a time."""
    validate(expr, dim)
    thresholds, periods = [0] * dim, [1] * dim
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Eq):
            thresholds[e.axis - 1] = max(thresholds[e.axis - 1], e.value + 1)
        elif isinstance(e, ModEq):
            periods[e.axis - 1] = lcm(periods[e.axis - 1], e.modulus)
        elif isinstance(e, (And, Or)):
            stack += (e.left, e.right)
        elif isinstance(e, Not):
            stack.append(e.child)
    radix = [t + p for t, p in zip(thresholds, periods)]
    size = prod(radix)
    if size > MAX_RECOGNIZER_SIZE:
        raise ResourceLimitExceeded("recognizer_size", size, MAX_RECOGNIZER_SIZE)

    vectors = list(product(*map(range, radix)))  # axis 1 most significant
    strides = [prod(radix[i + 1 :]) for i in range(dim)]

    def index(vector):
        return sum(
            stride * (z if z < t else t + (z - t) % p)
            for z, t, p, stride in zip(vector, thresholds, periods, strides)
        )

    steps = [
        [index(s[:i] + (s[i] + 1,) + s[i + 1 :]) for s in vectors] for i in range(dim)
    ]
    accepts = [contains(expr, s) for s in vectors]
    block = _coarsest_partition(accepts, steps)
    number, firsts = {}, []
    for k, b in enumerate(block):
        if b not in number:
            number[b] = len(firsts)
            firsts.append(k)
    cls = [number[b] for b in block]
    # The row of a representative r with r_i > 0 is the row of r - e_i,
    # an earlier class, stepped once along axis i.
    class_steps = [[cls[step[k]] for k in firsts] for step in steps]
    table = [list(range(len(firsts)))]
    for k in firsts[1:]:
        i = next(i for i, z in enumerate(vectors[k]) if z)
        table.append([class_steps[i][c] for c in table[cls[k - strides[i]]]])
    images = [cls[step[0]] for step in steps]
    accepting = {cls[k] for k, a in enumerate(accepts) if a}
    return MonoidRecognizer(len(firsts), table, 0, images, accepting)


def _coarsest_partition(accepts, steps):
    """The coarsest partition of the states 0..n-1 that separates accepting
    from rejecting states and is stable under every step map, as a list of
    block ids.  Hopcroft's refinement: each block that splits requeues only
    its smaller half unless it is still queued, so the number of passes does
    not grow with the length of a cycle."""
    n = len(accepts)
    preimages = [[[] for _ in range(n)] for _ in steps]
    for pre, step in zip(preimages, steps):
        for k, target in enumerate(step):
            pre[target].append(k)
    block = [0 if a else 1 for a in accepts]
    blocks = [[k for k in range(n) if block[k] == b] for b in (0, 1)]
    queued = {0, 1}
    while queued:
        splitter = blocks[queued.pop()]
        for pre in preimages:
            hit = {}
            for k in splitter:
                for j in pre[k]:
                    hit.setdefault(block[j], set()).add(j)
            for b, inside in hit.items():
                if len(inside) == len(blocks[b]):
                    continue
                outside = [k for k in blocks[b] if k not in inside]
                new = len(blocks)
                blocks[b] = outside
                blocks.append(list(inside))
                for k in inside:
                    block[k] = new
                if b in queued or len(inside) <= len(outside):
                    queued.add(new)
                else:
                    queued.add(b)
    return block
