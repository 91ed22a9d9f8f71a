"""Sparse multivariate polynomials over exact rationals.

All polynomials live in a :class:`Context`, a symbol table whose
variables are fixed when it is made.  Values are immutable after
construction; every operation returns a new polynomial in canonical form
(no zero coefficients, unique representation per mathematical polynomial).

A polynomial is stored in the one form its kernels run on: a dict from
packed monomials to nonzero ``Fraction`` coefficients.  A packed
monomial (see :class:`_Packing`) is one ``int`` of its context's
packing, whose integer order is graded lex, the one monomial order of
the library.  Build polynomials from :meth:`Context.var` and
:meth:`Context.const` with ring arithmetic, or parse them
(:func:`zeroness.formats.parse_poly`).  Products (:func:`_multiply`, also
behind powers and substitution), derivation application
(:meth:`Derivation._apply`), evaluation (:func:`_evaluate`) and
evaluation at a second-order jet of a point (:func:`_evaluate_jet`, which
reads the value of one or two derivations applied to a polynomial
without building either) are written once, as kernels on the stored keys
with integer numerators over one denominator;
renaming renumbers packed fields (:func:`transport`), and the Groebner
layer reads the same keys.  Only printing, substitution, the variable
set and the two table readers of ``cdf`` decode a key into exponents
(:meth:`_Packing.exponents`).  An exponent that does not fit its field
raises
:class:`ResourceLimitExceeded` with cap ``'exponent'``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ArityMismatch, ContextMismatch, ResourceLimitExceeded


class Context:
    """Shared variable namespace, fixed when it is made: variable id ``v``
    names the ``v``-th of ``names`` (a repeated name counts once).

    Polynomials from different contexts never mix; this prevents silent
    variable aliasing when systems are merged (merging constructs a fresh
    context explicitly).  A caller that needs fresh names collects them
    first and then makes the context, so a context's packing
    (:func:`_packing`) never changes.
    """

    __slots__ = ("_names", "_ids")

    def __init__(self, names=()):
        self._names = tuple(dict.fromkeys(names))
        self._ids = {name: vid for vid, name in enumerate(self._names)}

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def name_of(self, vid: int) -> str:
        return self._names[vid]

    def __contains__(self, name):
        return name in self._ids

    def __len__(self):
        return len(self._names)

    @property
    def names(self):
        return self._names

    # Convenience constructors -------------------------------------------

    def var(self, name: str) -> "Poly":
        return self.var_by_id(self.id_of(name))

    def var_by_id(self, vid: int) -> "Poly":
        return _poly(self, {_packing(len(self)).var(vid): Fraction(1)})

    def const(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return _poly(self, {})
        return _poly(self, {0: c})

    def zero(self) -> "Poly":
        return _poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def __repr__(self):
        return f"Context({list(self._names)!r})"


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _over_common_denominator(*tables):
    """Put the exact coefficients of several tables over one denominator.

    Each table is a dict whose values are rationals.  Returns
    ``(scaled, d)``: ``d`` is the lcm of every denominator, and
    ``scaled[i]`` maps each key of ``tables[i]`` to the integer
    ``value * d``.  The product-and-sum kernels accumulate these integers
    and build one ``Fraction`` per output coefficient, so no partial
    product pays for a gcd and an object of its own.
    """
    d = 1
    for table in tables:
        for c in table.values():
            q = c.denominator
            if d % q:
                d = d // gcd(d, q) * q
    scaled = [{k: c.numerator * (d // c.denominator) for k, c in t.items()} for t in tables]
    return scaled, d


# Packed monomials ------------------------------------------------------------


# Bits per variable field; the top bit of each field is its guard.
_FIELD = 32
_MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


class _Packing:
    """The monomials over ``nvars`` variables as single ints, in the one
    monomial order of the library: graded lex, variable 0 highest.

    Variable ``v`` owns the ``_FIELD``-bit field at ``shifts[v]``, variable
    0 highest, and the total degree sits above them all, so comparing two
    packed ints compares the monomials in grlex, and :meth:`degree` reads
    the degree field.  No stored exponent sets the top (guard) bit of its
    field.  Hence the product of two monomials is the sum of their ints,
    and that sum has overflowed a field iff it sets a guard bit; ``h``
    divides ``m`` iff ``((m | guards) - h) & guards == guards``, since each
    field's guard absorbs its own borrow.

    A :class:`Poly` maps these ints to its coefficients; the kernels run
    on a dict from them to ``int`` numerators over one denominator, kept
    next to it.
    """

    __slots__ = ("shifts", "top", "unit", "guards", "exps")

    def __init__(self, nvars: int):
        self.shifts = tuple(_FIELD * (nvars - 1 - v) for v in range(nvars))
        ones = sum(1 << s for s in self.shifts)
        self.guards = ones << (_FIELD - 1)
        self.exps = self.guards - ones  # the exponent bits of every field
        self.top = _FIELD * nvars  # the degree field sits above the variables
        self.unit = 1 << self.top

    def var(self, v: int) -> int:
        """The packed variable ``v``."""
        return (1 << self.shifts[v]) + self.unit

    def exponents(self, x: int):
        """The ``(variable id, exponent)`` pairs of the packed monomial
        ``x``, by increasing id, one per nonzero exponent field."""
        # walk the nonzero exponent fields from the highest, variable 0
        x &= self.exps
        last = len(self.shifts) - 1
        pairs = []
        while x:
            s = (x.bit_length() - 1) & -_FIELD
            e = x >> s
            x -= e << s
            pairs.append((last - s // _FIELD, e))
        return pairs

    def degree(self, x: int) -> int:
        return x >> self.top

    def is_monomial(self, x) -> bool:
        """Whether ``x`` is a packed monomial: a nonnegative ``int`` that
        sets no guard bit, whose degree field is the sum of its exponent
        fields."""
        return (
            isinstance(x, int)
            and x >= 0
            and not x & self.guards
            and x >> self.top == sum(e for _, e in self.exponents(x))
        )

    def divides(self, h: int, m: int) -> bool:
        guards = self.guards
        return ((m | guards) - h) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        guards = self.guards
        ge = ((a | guards) - b) & guards  # the guards of the fields where a >= b
        take = ge - (ge >> (_FIELD - 1))  # the exponent bits of those fields
        lcm = (a & take) | (b & (self.exps ^ take))
        return lcm + sum((lcm >> s) & _MAX_EXPONENT for s in self.shifts) * self.unit

    def check(self, packed: dict) -> dict:
        """``packed``, once no term of it sets a guard bit: a term that does
        raises :meth:`overflow`."""
        guards = self.guards
        for x in packed:
            if x & guards:
                raise self.overflow(x)
        return packed

    def overflow(self, x: int) -> ResourceLimitExceeded:
        """The error for a sum ``x`` of two packed monomials that set a
        guard bit: the largest exponent it holds does not fit a field."""
        e = max((x >> s) & ((1 << _FIELD) - 1) for s in self.shifts)
        return ResourceLimitExceeded("exponent", e, _MAX_EXPONENT)

    def point(self, point):
        """``(coords, q)`` for evaluating at ``point``, a value per
        variable id: its coordinates over one denominator ``q``, listed by
        field from the lowest, so the field at bit ``s`` reads
        ``coords[s // _FIELD]``."""
        if len(point) != len(self.shifts):
            raise ArityMismatch(
                f"point has {len(point)} entries, context has {len(self.shifts)} variables"
            )
        (coords,), q = _over_common_denominator(dict(enumerate(map(_as_fraction, point))))
        return [coords[v] for v in reversed(range(len(point)))], q


@lru_cache(maxsize=None)
def _packing(nvars: int) -> _Packing:
    return _Packing(nvars)


def _evaluate(packed: dict, den: int, at, packing: _Packing) -> Fraction:
    """The value of the polynomial ``packed`` over ``den``, packed by
    ``packing``, at the point ``at`` of :meth:`_Packing.point`.

    One pass over the terms, in integers: with the coordinates over one
    denominator ``q``, a term of degree k (its degree field) is an integer
    over ``den * q**k``, and the sums per degree are lifted to the top
    degree at the end.  Each term walks only its nonzero exponent fields,
    from the highest; each power of a coordinate numerator is computed once
    per (field, exponent) pair, and a term is dropped at its first zero
    factor, which is exact because a stored exponent is positive.
    """
    coords, q = at
    top = packing.top
    low = (1 << top) - 1
    mask = -_FIELD
    powers = {}
    by_degree = {}
    for m, val in packed.items():
        x = m & low
        while x:
            s = (x.bit_length() - 1) & mask
            e = x >> s
            key = e << s
            x -= key
            p = powers.get(key)
            if p is None:
                p = powers[key] = coords[s // _FIELD] ** e
            if not p:
                break
            val *= p
        else:
            k = m >> top
            by_degree[k] = by_degree.get(k, 0) + val
    top = max(by_degree, default=0)
    total = sum(part * q ** (top - k) for k, part in by_degree.items())
    return Fraction(total, den * q**top)


def _evaluate_jet(packed: dict, den: int, at, jet, packing: _Packing) -> Fraction:
    """The ε1ε2 part of the polynomial ``packed`` over ``den``, packed by
    ``packing``, at the point a + ε1·A + ε2·B + ε1ε2·C over
    Z[ε1, ε2]/(ε1², ε2²): the second-order jet

        sum over u, v of A_u B_v (d²p/du dv)(a) + sum over v of C_v (dp/dv)(a).

    With A = (D x)(a), B = (D' x)(a) and C = (D(D' x))(a) for derivations
    D and D', this is (D D' p)(a); with A = B = 0 and C = (D x)(a) it is
    (D p)(a).  ``at = (coords, q)`` is a, as :meth:`_Packing.point` gives
    it, and ``jet`` is from :func:`_jet`.  One pass over the terms in
    integers, as in :func:`_evaluate`: each (field, exponent) power is
    cached once as its four parts, and each term walks only its nonzero
    exponent fields carrying four parts, so a degree-k term's ε1ε2 part is
    an integer over ``den * d**2 * q**k``.  A term is dropped once all
    four parts are 0.
    """
    coords, q = at
    alpha, beta, gamma, d = jet
    top = packing.top
    low = (1 << top) - 1
    mask = -_FIELD
    powers = {}
    by_degree = {}
    for m, val in packed.items():
        x = m & low
        e1 = e2 = e12 = 0
        while x:
            s = (x.bit_length() - 1) & mask
            e = x >> s
            key = e << s
            x -= key
            parts = powers.get(key)
            if parts is None:
                f = s // _FIELD
                parts = powers[key] = _power_jet(coords[f], alpha[f], beta[f], gamma[f], e, q)
            p, p1, p2, p12 = parts
            if p:
                e12 = e12 * p + e1 * p2 + e2 * p1 + val * p12
                e1 = e1 * p + val * p1
                e2 = e2 * p + val * p2
                val *= p
            else:
                e12 = e1 * p2 + e2 * p1 + val * p12
                e1 = val * p1
                e2 = val * p2
                val = 0
                if not (e1 or e2 or e12):
                    break
        else:
            if e12:
                k = m >> top
                by_degree[k] = by_degree.get(k, 0) + e12
    if not by_degree:
        return Fraction(0)
    top = max(by_degree)
    total = sum(part * q ** (top - k) for k, part in by_degree.items())
    return Fraction(total, den * d * d * q**top)


def _power_jet(c: int, a: int, b: int, g: int, e: int, q: int):
    # (c + h)^e with h = q (ε1 a + ε2 b + ε1ε2 g), h² = 2 q² ε1ε2 a b and
    # h³ = 0: the four parts of a coordinate's e-th power over q^e
    c1 = c ** (e - 1)
    p1 = e * c1 * q
    p12 = p1 * g
    if e > 1 and a and b:
        p12 += e * (e - 1) * c ** (e - 2) * a * b * q * q
    return c1 * c, p1 * a, p1 * b, p12


def _jet(nfields: int, A: dict, B: dict, C: dict):
    """``(alpha, beta, gamma, d)`` for :func:`_evaluate_jet` from the
    directions ``A``, ``B`` and ``C``, each a dict from field index to
    value (missing = 0): their numerators listed by field, A and B over
    ``d`` and C over ``d**2``."""
    (a, b, g), d = _over_common_denominator(A, B, C)
    return (
        [a.get(f, 0) for f in range(nfields)],
        [b.get(f, 0) for f in range(nfields)],
        [g.get(f, 0) * d for f in range(nfields)],
        d,
    )


def _multiply(left: dict, right: dict, packing: _Packing) -> dict:
    """The product of the numerators ``left`` and ``right`` of two
    polynomials packed by ``packing``, in the same form.

    The terms come out in the order of the left terms, then of the right
    terms; sums that cancel to 0 are dropped.  A kept term that sets a
    guard bit has an exponent past its field and raises
    :class:`ResourceLimitExceeded` with cap ``'exponent'``.
    """
    out = {}
    get = out.get
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            t = m1 + m2
            out[t] = get(t, 0) + c1 * c2
    return packing.check({t: c for t, c in out.items() if c})


class Poly:
    """A polynomial: map from the packed monomials of its context's
    packing (:func:`_packing`) to nonzero ``Fraction`` coefficients.

    Degree of the zero polynomial is 0 by convention.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        """The polynomial of ``ctx`` with ``terms``, zero coefficients
        dropped.  Every key must be a packed monomial of the context
        (:meth:`_Packing.is_monomial`); the library's kernels, whose keys
        are monomials by construction, build through :func:`_poly`."""
        packing = _packing(len(ctx))
        for m in terms:
            if not packing.is_monomial(m):
                raise ValueError(f"{m!r} is not a packed monomial over {ctx!r}")
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # Predicates and measures --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        # the largest packed monomial has the largest degree field
        return max(self.terms, default=0) >> _packing(len(self.ctx)).top

    def constant_term(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def variables(self):
        # a field of the union of the monomials is nonzero iff some
        # monomial has that variable
        union = 0
        for m in self.terms:
            union |= m
        return {v for v, _ in _packing(len(self.ctx)).exponents(union)}

    # Ring operations ----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ctx is not other.ctx:
            raise ContextMismatch("polynomials from different variable contexts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return _poly(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return self.ctx.zero()
            return _poly(self.ctx, {m: c * k for m, k in self.terms.items()})
        self._check(other)
        (left,), d1 = _over_common_denominator(self.terms)
        (right,), d2 = _over_common_denominator(other.terms)
        product = _multiply(left, right, _packing(len(self.ctx)))
        return _from_numerators(self.ctx, product, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = None  # the empty product: no multiplication by one
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return self.ctx.one() if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        return isinstance(other, Poly) and self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ctx), frozenset(self.terms.items())))

    # Evaluation and substitution ----------------------------------------

    def eval(self, point) -> Fraction:
        """Evaluate at a point indexed by variable id (full arity), by the
        packed kernel :func:`_evaluate`."""
        packing = _packing(len(self.ctx))
        at = packing.point(point)
        (packed,), den = _over_common_denominator(self.terms)
        return _evaluate(packed, den, at, packing)

    def substitute(self, images: dict) -> "Poly":
        """Homomorphic substitution; ``images`` maps variable id -> Poly.

        Every variable occurring in ``self`` must have an image.  All
        images must share one target context.
        """
        target = None
        for p in images.values():
            if target is None:
                target = p.ctx
            elif p.ctx is not target:
                raise ContextMismatch("substitution images in different contexts")
        if target is None:
            target = self.ctx
        missing = self.variables() - set(images)
        if missing:
            names = sorted(self.ctx.name_of(v) for v in missing)
            raise ArityMismatch(f"no image for variables {names}")
        # each power images[v] ** e once; then, in integers over one
        # denominator q, a monomial with r such factors is a product over
        # q**r, lifted to the largest r
        exponents = _packing(len(self.ctx)).exponents
        factors = {m: exponents(m) for m in self.terms}
        powers = {}
        for pairs in factors.values():
            for factor in pairs:
                if factor not in powers:
                    v, e = factor
                    powers[factor] = images[v] ** e
        packing = _packing(len(target))
        scaled, q = _over_common_denominator(*(p.terms for p in powers.values()))
        powers = dict(zip(powers, scaled))
        (terms,), dc = _over_common_denominator(self.terms)
        top = max(map(len, factors.values()), default=0)
        one = {0: 1}
        out = {}
        for m, c in terms.items():
            term = one
            for factor in factors[m]:
                term = powers[factor] if term is one else _multiply(term, powers[factor], packing)
            c *= q ** (top - len(factors[m]))
            for k, x in term.items():
                out[k] = out.get(k, 0) + c * x
        return _from_numerators(target, {k: x for k, x in out.items() if x}, dc * q**top)

    def rename(self, target: Context, name_map=None) -> "Poly":
        """Transport into ``target`` by variable name (or via ``name_map``):
        each variable id is renumbered to its target's by
        :func:`transport`, so exponents of ids that meet add up."""
        ids = [None] * len(self.ctx)
        for v in self.variables():
            name = self.ctx.name_of(v)
            if name_map is not None:
                name = name_map[name]
            ids[v] = target.id_of(name)
        return transport(self, target, tuple(ids))

    # Printing -----------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _poly(ctx: Context, terms: dict) -> Poly:
    """The polynomial of ``ctx`` with ``terms``, zero coefficients dropped,
    its keys taken as packed monomials unchecked."""
    p = object.__new__(Poly)
    p.ctx = ctx
    p.terms = {m: c for m, c in terms.items() if c != 0}
    return p


def _from_numerators(ctx: Context, packed: dict, den: int) -> Poly:
    """The polynomial of ``ctx`` whose terms are the ``int`` numerators
    ``packed`` over ``den``, in stored order."""
    return _poly(ctx, {m: Fraction(c, den) for m, c in packed.items()})


def transport(p: Poly, target: Context, ids=None) -> Poly:
    """``p`` in ``target``, variable ``v`` renumbered to ``ids[v]``, for
    ``ids`` a range or a tuple over the variables of ``p``'s context that
    holds ``None`` for a variable ``p`` does not have; ``ids`` None keeps
    every id, and a range is an offset.

    The exponent fields move by the slices of :func:`_slices` and the
    degree field moves as it is.  Slices whose ids meet add up; the moved
    term is checked after each slice, so no sum carries out of a field.
    The coefficients stay as they are, summed where moved monomials meet.
    """
    if ids is None:
        ids = range(len(p.ctx))
    top, packing, slices = _slices(len(p.ctx), len(target), ids)
    unit, guards = packing.unit, packing.guards
    out = {}
    for m, c in p.terms.items():
        x = (m >> top) * unit
        for s, mask, t in slices:
            x += ((m >> s) & mask) << t
            if x & guards:
                raise packing.overflow(x)
        prev = out.get(x)
        out[x] = c if prev is None else prev + c
    return _poly(target, out)


@lru_cache(maxsize=1024)
def _slices(nsource: int, ntarget: int, ids):
    """``(top, packing, slices)`` for :func:`transport` from ``nsource``
    variables into ``ntarget``: the source degree field's shift, the
    target packing, and ``(shift, mask, target shift)`` per run of
    consecutive variables whose ids are consecutive too, each moved as
    one slice of fields.  A range of ids is one run."""
    source, packing = _packing(nsource), _packing(ntarget)
    runs = []  # [first, last] variable of each run, by increasing id
    for v, t in enumerate(ids):
        if t is None:
            continue
        if runs and runs[-1][1] == v - 1 and t == ids[v - 1] + 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    slices = tuple(
        (source.shifts[last], (1 << _FIELD * (last - first + 1)) - 1, packing.shifts[ids[last]])
        for first, last in runs
    )
    return source.top, packing, slices


def format_value(c) -> str:
    """The rational ``c`` as ``str`` writes it (``p/q``, or ``p`` for an
    integer), in full at any size: the interpreter's limit on the digits
    it converts at once (``PYTHONINTMAXSTRDIGITS``) guards parsing only."""
    if c.denominator == 1:
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"


def _decimal(n: int) -> str:
    # below 2^1900 < 10^572, fewer digits than the smallest limit (640);
    # above, split at about half the digits
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 1900:
        return str(n)
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_poly(p: Poly) -> str:
    """Canonical rendering: graded-lex descending terms, ``p/q`` coefficients."""
    if not p.terms:
        return "0"

    exponents = _packing(len(p.ctx)).exponents
    parts = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = [
            f"{p.ctx.name_of(v)}^{e}" if e > 1 else p.ctx.name_of(v) for v, e in exponents(m)
        ]
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            chunk = format_value(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{format_value(mag)}*{body}"
        if not parts:
            parts.append(chunk if c > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(parts)


def _derive(packed: dict, den: int, images, di: int, packing: _Packing):
    """The derivation with packed ``images`` over ``di`` (as in
    :class:`Derivation`'s ``_packed``) of the polynomial ``packed`` over
    ``den``, in the same form: sum over terms c*m and variables v^e of m
    of c*e * (m / v) * image(v).

    The terms come out in the order of the input terms, then of the
    variables of each term by increasing id, then of the image terms as
    stored; sums that cancel to 0 are dropped.  A term is ``m`` plus the
    packed ``image term / v``, which is exact because v occurs in m.  A
    kept term that sets a guard bit has an exponent past its field and
    raises :class:`ResourceLimitExceeded` with cap ``'exponent'``.
    """
    out = {}
    get = out.get
    for m, c in packed.items():
        for s, image in images:
            e = m >> s & _MAX_EXPONENT
            if e:
                ce = c * e
                for off, ic in image:
                    t = m + off
                    out[t] = get(t, 0) + ic * ce
    return packing.check({t: c for t, c in out.items() if c}), den * di


class Derivation:
    """A derivation of the polynomial ring, fixed by its images on variables.

    Missing images default to 0, so a derivation is always total.  Applying
    it satisfies linearity and the Leibniz rule exactly.

    ``_packed`` holds the nonzero images in the form :func:`_derive` runs
    on, packed by the context's packing: ``(images, d)``, where ``images``
    lists ``(shift of v, ((packed image term / v, int coefficient), ...))``
    by increasing variable id ``v`` and ``d`` is the images' common
    denominator.  It is built at the first application; a derivation that
    is built but never applied (those of a closure's input systems are only
    read) does not pay for it.  A derivation that :func:`gather` builds
    gets it at once, put together from its sources' ``_data``, the
    per-image cache of :meth:`_image_data`.
    """

    __slots__ = ("ctx", "images", "_packed", "_data")

    def __init__(self, ctx: Context, images: dict):
        for p in images.values():
            if p.ctx is not ctx:
                raise ContextMismatch("derivation image outside the context")
        self.ctx = ctx
        self.images = dict(images)
        self._packed = None
        self._data = None

    @property
    def degree(self) -> int:
        if not self.images:
            return 0
        return max(p.degree for p in self.images.values())

    def image(self, vid: int) -> Poly:
        return self.images.get(vid, self.ctx.zero())

    def _image_data(self) -> dict:
        """Per generator with an image, ``(variables, numerators, d)``: the
        ids of the variables the image has, and the ``int`` numerators of
        its terms, in stored order, over ``d``, the lcm of the image's own
        denominators.  Built at the first call; the reachability of
        ``_system.prune`` and :func:`gather` read it."""
        if self._data is None:
            self._data = {}
            for v, p in self.images.items():
                (scaled,), d = _over_common_denominator(p.terms)
                self._data[v] = (tuple(p.variables()), tuple(scaled.values()), d)
        return self._data

    def __call__(self, p: Poly) -> Poly:
        """Apply the derivation: :meth:`_apply` on the numerators of ``p``."""
        if p.ctx is not self.ctx:
            raise ContextMismatch("derivation applied outside its context")
        (packed,), den = _over_common_denominator(p.terms)
        return _from_numerators(self.ctx, *self._apply(packed, den, _packing(len(self.ctx))))

    def _apply(self, packed: dict, den: int, packing: _Packing):
        """The derivation of the polynomial ``packed`` over ``den``, in
        the same form: :func:`_derive` with the packed images."""
        return _derive(packed, den, *self._images(), packing)

    def _apply_at(self, packed: dict, den: int, packing: _Packing, at, first=None) -> Fraction:
        """The value at ``at`` (of :meth:`_Packing.point`) of
        :meth:`_apply`'s polynomial, or, given the derivation ``first``,
        of this derivation applied to ``first``'s; neither is built.

        Both are the ε1ε2 part of p at a jet of :func:`_evaluate_jet`.
        With A = (D x)(a) the values of this derivation's images at the
        point, (D p)(a) is that part at a + ε1ε2·A.  With B = (D' x)(a)
        for D' = ``first`` and C_v = (D(D' v))(a), the first case on each
        image of D', (D D' p)(a) is that part at a + ε1·A + ε2·B + ε1ε2·C.
        No exponent is raised, so it never overflows.
        """
        n = len(packing.shifts)
        slopes = {f: _evaluate(image, d, at, packing) for f, image, d in self._image_polys(packing)}
        along = _jet(n, {}, {}, slopes)
        if first is None:
            return _evaluate_jet(packed, den, at, along, packing)
        values, second = {}, {}
        for f, image, d in first._image_polys(packing):
            values[f] = _evaluate(image, d, at, packing)
            second[f] = _evaluate_jet(image, d, at, along, packing)
        jet = _jet(n, slopes, values, second)
        return _evaluate_jet(packed, den, at, jet, packing)

    def _image_polys(self, packing: _Packing):
        """``(field index, packed image, denominator)`` per nonzero image."""
        images, d = self._images()
        unit = packing.unit
        return [
            (s // _FIELD, {off + (1 << s) + unit: c for off, c in image}, d) for s, image in images
        ]

    def _images(self):
        """``_packed``, built at the first call."""
        if self._packed is None:
            packing = _packing(len(self.ctx))
            nonzero = {v: p.terms for v, p in sorted(self.images.items()) if p.terms}
            scaled, di = _over_common_denominator(*nonzero.values())
            images = []
            for v, terms in zip(nonzero, scaled):
                unit = packing.var(v)
                images.append((packing.shifts[v], tuple((m - unit, c) for m, c in terms.items())))
            self._packed = tuple(images), di
        return self._packed


def gather(ctx: Context, nops: int, sources) -> tuple:
    """The ``nops`` derivations of ``ctx`` that join those of ``sources``.
    Each source is ``(context, ops, ids)``: ``nops`` ops, and ``ids``
    sending generator ``v`` of the context to ``ids[v]`` of ``ctx``, one
    to one, or dropping it where that is None.  Op ``k`` of the result
    holds the images of op ``k`` of every source, by source, then as that
    op stores them, each moved as :func:`transport` moves it; the move is
    one to one, so no terms meet and no exponent grows, and the slices of
    a source are looked up once.

    Each result's ``_packed`` is built in the same pass from the sources'
    per-image numerators (:meth:`Derivation._image_data`): a moved
    image keeps the order and coefficients of its terms, and the lcm of
    the images' own denominators is their common one, so these are the
    ints its first application would compute.
    """
    packing = _packing(len(ctx))
    unit, shifts, top = packing.unit, packing.shifts, packing.top
    images = [{} for _ in range(nops)]
    moved = [[] for _ in range(nops)]
    dens = [1] * nops
    for source, ops, ids in sources:
        source_top, _, slices = _slices(len(source), len(ctx), ids)
        for k, op in enumerate(ops):
            data = op._image_data()
            for v, p in op.images.items():
                t = ids[v]
                if t is None:
                    continue
                var = (1 << shifts[t]) + unit
                terms, offsets = {}, []
                for m, c in p.terms.items():
                    x = (m >> source_top) << top
                    for s, mask, shift in slices:
                        x += ((m >> s) & mask) << shift
                    terms[x] = c
                    offsets.append(x - var)
                q = images[k][t] = object.__new__(Poly)  # no zero to drop
                q.ctx, q.terms = ctx, terms
                if terms:
                    _, nums, d = data[v]
                    if dens[k] % d:
                        dens[k] = dens[k] // gcd(dens[k], d) * d
                    moved[k].append((t, offsets, nums, d))
    out = []
    for into, entries, den in zip(images, moved, dens):
        op = Derivation(ctx, into)
        if entries:
            entries.sort()  # by target id, as the targets are distinct
            op._packed = (
                tuple(
                    (shifts[t], tuple(zip(offsets, nums if d == den else [n * (den // d) for n in nums])))
                    for t, offsets, nums, d in entries
                ),
                den,
            )
        out.append(op)
    return tuple(out)
