"""Text formats: polynomial expressions, constraints, and the model file
formats (.wbpp and .bpp processes, .cdf systems, .spec species).

Polynomial syntax: integer and rational literals (``3``, ``-5/2``),
identifiers, ``+ - * ^`` and parentheses; multiplication is always
explicit.  The .cdf ``expr =`` line uses the same grammar plus
``restrict(e; phi)``.  ``#`` starts a comment everywhere.  Every
malformed input raises ``ParseError``.  Printing is canonical
(graded-lex descending terms), and print-then-parse reproduces an
equivalent model, structurally identical unless it adjoins a start.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from . import _system, cdf, constraints, species
from .errors import ParseError
from .groebner import DEFAULT_LIMITS
from .poly import Context, Poly
from .wbpp import Wbpp

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>\d+)|(?P<ident>{_IDENT.pattern})"
    r"|(?P<op><-|==|&&|\|\||>=|<=|[-+*^()/%{};=,!])|(?P<bad>\S))"
)


def tokenize(text, line=None):
    """The tokens of ``text`` as ``(token, line)`` pairs, where ``text``
    starts on line ``line`` (None: lines are not reported)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        if line is not None:  # no token spans lines
            line += text.count("\n", pos, m.start(m.lastgroup))
        pos = m.end()
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}", line)
        tokens.append((m.group(m.lastgroup), line))
    return tokens


class _Tokens:
    def __init__(self, tokens, line=None):
        self.tokens = [tok for tok, _ in tokens]
        self.lines = [at for _, at in tokens]
        self.pos = 0
        self.start = line

    @property
    def line(self):
        """The line of the last token read: a parse error is reported
        there."""
        return self.lines[self.pos - 1] if self.pos else self.start

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line)
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line)

    def done(self):
        return self.pos >= len(self.tokens)

    def fail(self, message):
        raise ParseError(message, self.line)

    def cap(self, value, what):
        """Fail when ``value`` passes the degree cap: expanding a product or
        power beyond it, or building a constraint's monoid of about that
        many elements, takes unbounded time."""
        cap = DEFAULT_LIMITS.max_degree
        if value > cap:
            self.fail(f"{what} {value} exceeds the degree cap {cap}")


def _parse_all(rule, text, line, *args):
    ts = _Tokens(tokenize(text, line), line)
    try:
        value = rule(ts, *args)
    except RecursionError:
        ts.fail("input nested too deeply")
    if not ts.done():
        ts.fail(f"trailing input {ts.next()!r}")
    return value


def _integer(ts, what):
    tok = ts.next()
    if not tok.isdigit():
        ts.fail(f"{what} must be a number, got {tok!r}")
    return _digits(ts, tok)


def _digits(ts, digits):
    """The integer of the decimal ``digits`` just read.  The interpreter's
    limit on the digits it converts (``PYTHONINTMAXSTRDIGITS``) guards the
    parser: a longer literal is a parse error on its line."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        ts.fail(f"a literal of {len(digits)} digits exceeds the limit of {limit} digits")


# Expressions ------------------------------------------------------------------------
#
# One grammar serves polynomials and the .cdf ``expr =`` line.  Given a
# system, ``restrict(e; phi)`` is a keyword and values climb from
# polynomials to series-level closure operations; without one, every
# value is a polynomial of ``ctx``.


def parse_poly(text, ctx: Context, line=None) -> Poly:
    return _parse_all(_expr_sum, text, line, ctx, None)


def _as_series(value, system):
    if isinstance(value, cdf.CdfSeries):
        return value
    return cdf.CdfSeries(system, value)


def _expr_sum(ts, ctx, system):
    value = _expr_term(ts, ctx, system)
    while ts.peek() in ("+", "-"):
        op = ts.next()
        rhs = _expr_term(ts, ctx, system)
        if isinstance(value, Poly) and isinstance(rhs, Poly):
            value = value + rhs if op == "+" else value - rhs
        else:
            lhs = _as_series(value, system)
            rhs = _as_series(rhs, system)
            value = cdf.c_add(lhs, cdf.c_scale(rhs, 1 if op == "+" else -1))
    return value


def _expr_term(ts, ctx, system):
    value = _expr_factor(ts, ctx, system)
    while ts.peek() == "*":
        ts.next()
        rhs = _expr_factor(ts, ctx, system)
        if isinstance(value, Poly) and isinstance(rhs, Poly):
            ts.cap(value.degree + rhs.degree, "a polynomial of degree")
            value = value * rhs
        else:
            value = cdf.c_mul(_as_series(value, system), _as_series(rhs, system))
    return value


def _expr_factor(ts, ctx, system):
    negate = False
    while ts.peek() == "-":
        ts.next()
        negate = not negate
    value = _expr_primary(ts, ctx, system)
    if ts.peek() == "^":
        ts.next()
        n = _integer(ts, "exponent")
        # a constant power costs time linear in n, and a series power is n
        # closure products, so n itself is capped too
        ts.cap(n * max(value.degree, 1) if isinstance(value, Poly) else n, "a polynomial of degree")
        if isinstance(value, Poly):
            value = value ** n
        else:
            out = _as_series(ctx.one(), system)
            for _ in range(n):
                out = cdf.c_mul(out, value)
            value = out
    if negate:
        if isinstance(value, Poly):
            value = -value
        else:
            value = cdf.c_scale(value, -1)
    return value


def _expr_primary(ts, ctx, system):
    tok = ts.next()
    if tok == "restrict" and system is not None:
        ts.expect("(")
        inner = _as_series(_expr_sum(ts, ctx, system), system)
        ts.expect(";")
        constraint = _constraint_or(ts)
        ts.expect(")")
        return cdf.restrict_regular(inner, constraint)
    if tok.isdigit():
        num = _digits(ts, tok)
        if ts.peek() == "/":
            ts.next()
            den = _integer(ts, "denominator")
            if den == 0:
                ts.fail("zero denominator")
            return ctx.const(Fraction(num, den))
        return ctx.const(num)
    if tok == "(":
        value = _expr_sum(ts, ctx, system)
        ts.expect(")")
        return value
    if _IDENT.fullmatch(tok):
        if tok not in ctx:
            ts.fail(f"unknown variable {tok!r}")
        return ctx.var(tok)
    ts.fail(f"unexpected token {tok!r}")


# Constraints --------------------------------------------------------------------


def parse_constraint(text, line=None):
    return _parse_all(_constraint_or, text, line)


def _constraint_or(ts):
    c = _constraint_and(ts)
    while ts.peek() == "||":
        ts.next()
        c = constraints.Or(c, _constraint_and(ts))
    return c


def _constraint_and(ts):
    c = _constraint_not(ts)
    while ts.peek() == "&&":
        ts.next()
        c = constraints.And(c, _constraint_not(ts))
    return c


def _constraint_not(ts):
    if ts.peek() == "!":
        ts.next()
        return constraints.Not(_constraint_not(ts))
    if ts.peek() == "(":
        ts.next()
        c = _constraint_or(ts)
        ts.expect(")")
        return c
    return _constraint_atom(ts)


_COMPARISONS = {"==": constraints.Eq, ">=": constraints.ge, "<=": constraints.le}


def _constraint_atom(ts):
    tok = ts.next()
    if tok == "true":
        return constraints.TRUE
    m = re.fullmatch(r"z(\d+)", tok)
    if not m:
        ts.fail(f"constraint atoms use z1, z2, ...; got {tok!r}")
    axis = _digits(ts, m.group(1))
    op = ts.next()
    # a restriction adjoins a generator copy per element of a monoid about
    # as large as its bound, modulus or residue
    if op == "%":
        modulus = _integer(ts, "modulus")
        ts.cap(modulus, "a modulus of")
        ts.expect("==")
        residue = _integer(ts, "residue")
        ts.cap(residue, "a residue of")
        return constraints.ModEq(axis, residue, modulus)
    if op not in _COMPARISONS:
        ts.fail(f"unknown comparison {op!r}")
    bound = _integer(ts, "bound")
    ts.cap(bound, "a bound of")
    return _COMPARISONS[op](axis, bound)


# Shared line handling --------------------------------------------------------------


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _declare(table, key, value, lineno, what):
    """Record ``(value, lineno)`` under ``key``; a second declaration of the
    same thing is an error, never a silent overwrite."""
    if key in table:
        raise ParseError(f"{what} is declared twice (first on line {table[key][1]})", lineno)
    table[key] = (value, lineno)


def _names(rest, lineno):
    names = rest.split()
    seen = set()
    for name in names:
        if name in seen:
            raise ParseError(f"{name!r} is listed twice", lineno)
        seen.add(name)
    return names


def _constant(text, ctx, lineno):
    p = parse_poly(text, ctx, lineno)
    if not p.is_constant():
        raise ParseError(f"expected a constant, got {text!r}", lineno)
    return Fraction(p.constant_term())


def _require(heads, *names):
    for name in names:
        if name not in heads:
            raise ParseError(f"missing {name!r} line")


# .wbpp format -----------------------------------------------------------------------


def parse_wbpp(text):
    """Parse a process model; returns (model, warnings)."""
    heads, outputs, deltas = {}, {}, {}
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("alphabet", "nonterminals", "start"):
            _declare(heads, head, rest, lineno, f"{head!r}")
        elif head == "output":
            name, _, value = rest.partition("=")
            name = name.strip()
            _declare(outputs, name, value.strip(), lineno, f"output {name}")
        elif head == "delta":
            try:
                letter, nt, eq, value = rest.split(None, 3)
            except ValueError:
                raise ParseError("delta lines read: delta <letter> <nt> = <poly>", lineno)
            if eq != "=":
                raise ParseError("delta lines read: delta <letter> <nt> = <poly>", lineno)
            _declare(deltas, (letter, nt), value, lineno, f"delta {letter} {nt}")
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    _require(heads, "alphabet", "nonterminals", "start")
    alphabet = _names(*heads["alphabet"])
    nonterminals = _names(*heads["nonterminals"])
    start = heads["start"][0]
    if start not in nonterminals:
        raise ParseError(f"start nonterminal {start!r} not declared")
    ctx = Context(nonterminals)
    transitions = {}
    seen_outputs = {}
    for name, (value, lineno) in outputs.items():
        if name not in ctx:
            raise ParseError(f"output for undeclared nonterminal {name!r}", lineno)
        seen_outputs[name] = _constant(value, ctx, lineno)
    for (letter, nt), (value, lineno) in deltas.items():
        if letter not in alphabet:
            raise ParseError(f"delta on undeclared letter {letter!r}", lineno)
        if nt not in ctx:
            raise ParseError(f"delta on undeclared nonterminal {nt!r}", lineno)
        transitions[(letter, nt)] = parse_poly(value, ctx, lineno)
    warnings = []
    for nt in nonterminals:
        if nt not in seen_outputs:
            warnings.append(f"output {nt} defaults to 0")
    for a in alphabet:
        for nt in nonterminals:
            if (a, nt) not in transitions:
                warnings.append(f"delta {a} {nt} defaults to 0")
    model = Wbpp(alphabet, nonterminals, start, transitions, seen_outputs)
    return model, warnings


def format_wbpp(m: Wbpp) -> str:
    """The ``.wbpp`` text of ``m``.  A start other than one nonterminal is
    printed as a fresh one, U: Delta_a U = Delta_a start, same output."""
    if m.start not in [m.ctx.var_by_id(v) for v in m.start.variables()]:
        images = [op(m.start) for op in m.core.ops]
        core, u = _system.adjoin(m.core, "U", m.start.eval(m.outputs), lambda f, _: map(f, images))
        m = Wbpp.of(m.alphabet, core, u)
    lines = [
        "alphabet " + " ".join(m.alphabet),
        "nonterminals " + " ".join(m.ctx.names),
        "start " + m.ctx.name_of(min(m.start.variables())),
    ]
    for nt in m.ctx.names:
        lines.append(f"output {nt} = {m.output(nt)}")
    for a in m.alphabet:
        for nt in m.ctx.names:
            p = m.transition(a, nt)
            if not p.is_zero():
                lines.append(f"delta {a} {nt} = {p}")
    return "\n".join(lines) + "\n"


# .bpp format ------------------------------------------------------------------------


def parse_bpp(text):
    """Parse an unweighted process in standard form.

    Lines read ``rule X = a.(X|Y) + b.end`` where ``|`` merges parallel
    components and ``end`` is the terminated process; an optional
    ``start X`` line overrides the default (the first rule).
    """
    from .wbpp import BppSpec

    rules, heads = {}, {}
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "start":
            _declare(heads, head, rest, lineno, "'start'")
            continue
        if head != "rule":
            raise ParseError(f"unknown directive {head!r}", lineno)
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq or not _IDENT.fullmatch(name):
            raise ParseError("rule lines read: rule <nt> = <summands>", lineno)
        if name in rules:
            raise ParseError(f"duplicate rule for {name!r}", lineno)
        rules[name] = _parse_bpp_body(body.strip(), lineno)
    if not rules:
        raise ParseError("no rules")
    start = heads["start"][0] if heads else next(iter(rules))
    return BppSpec(rules, start)


def _parse_bpp_body(text, lineno):
    summands = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        action, dot, merge = chunk.partition(".")
        action = action.strip()
        merge = merge.strip()
        if not dot or not _IDENT.fullmatch(action):
            raise ParseError(
                f"summand {chunk!r} is not action-prefixed (standard form)", lineno
            )
        if merge.startswith("(") and merge.endswith(")"):
            merge = merge[1:-1]
        parts = [p.strip() for p in merge.split("|")]
        if parts == ["end"]:
            components = ()
        else:
            components = []
            for p in parts:
                if not _IDENT.fullmatch(p) or p == "end":
                    raise ParseError(f"bad merge component {p!r}", lineno)
                components.append(p)
            components = tuple(components)
        summands.append((action, components))
    return tuple(summands)


def format_bpp(spec) -> str:
    lines = [f"start {spec.start}"]
    for name, summands in spec.rules.items():
        parts = []
        for action, merge in summands:
            if not merge:
                parts.append(f"{action}.end")
            elif len(merge) == 1:
                parts.append(f"{action}.{merge[0]}")
            else:
                parts.append(f"{action}.({'|'.join(merge)})")
        lines.append(f"rule {name} = {' + '.join(parts)}")
    return "\n".join(lines) + "\n"


# .cdf format ------------------------------------------------------------------------


def parse_cdf(text) -> cdf.CdfSeries:
    heads, inits, kernel_lines = {}, {}, {}
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("vars", "gens"):
            _declare(heads, head, rest, lineno, f"{head!r}")
        elif head == "init":
            name, _, value = rest.partition("=")
            name = name.strip()
            _declare(inits, name, value.strip(), lineno, f"init {name}")
        elif head.startswith("d/d"):
            name, _, value = rest.partition("=")
            name = name.strip()
            _declare(kernel_lines, (head[3:], name), value.strip(), lineno, f"{head} {name}")
        elif head == "expr":
            stripped = line[4:].strip()
            if not stripped.startswith("="):
                raise ParseError("expr lines read: expr = <expression>", lineno)
            _declare(heads, head, stripped[1:].strip(), lineno, "'expr'")
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    _require(heads, "vars", "gens", "expr")
    base = _names(*heads["vars"])
    gens = _names(*heads["gens"])
    both = sorted(set(base).intersection(gens))
    if both:
        raise ParseError(f"{both[0]!r} is both a variable and a generator", heads["gens"][1])
    for name, (_, lineno) in inits.items():
        if name not in gens:
            raise ParseError(f"init of undeclared generator {name!r}", lineno)
    mixed = Context(gens + base)
    init = []
    for g in gens:
        value, lineno = inits.get(g, ("0", None))
        init.append(_constant(value, mixed, lineno))
    kernel = {}
    for (var, name), (value, lineno) in kernel_lines.items():
        if var not in base:
            raise ParseError(f"derivative along undeclared variable {var!r}", lineno)
        if name not in gens:
            raise ParseError(f"derivative of undeclared generator {name!r}", lineno)
        kernel[(name, base.index(var) + 1)] = parse_poly(value, mixed, lineno)
    system = cdf.autonomize(base, gens, kernel, init)
    text, lineno = heads["expr"]
    return _as_series(_parse_all(_expr_sum, text, lineno, system.ctx, system), system)


def format_cdf(s: cdf.CdfSeries) -> str:
    sys = s.system
    lines = ["vars " + " ".join(sys.base_names), "gens " + " ".join(sys.ctx.names)]
    for g in sys.ctx.names:
        lines.append(f"init {g} = {sys.init[sys.ctx.id_of(g)]}")
    for g in sys.ctx.names:
        for j in range(1, sys.dim + 1):
            p = sys.entry(g, j)
            if not p.is_zero():
                lines.append(f"d/d{sys.base_names[j - 1]} {g} = {p}")
    lines.append(f"expr = {s.expr}")
    return "\n".join(lines) + "\n"


# .spec format -----------------------------------------------------------------------


_ATOM_NAME = re.compile(r"X(\d+)")
_KEYWORDS = {"SET", "CYC", "SEQ", "restrict", "compose", "fix", "in", "species", "sorts"}


def parse_spec(text):
    """Parse a species file; returns (name, expression, sorts)."""
    stripped = "\n".join(
        raw.split("#", 1)[0] for raw in text.splitlines()
    )
    return _parse_all(_spec_file, stripped, 1)


def _spec_file(ts):
    sorts = 1
    if ts.peek() == "sorts":
        ts.next()
        sorts = _integer(ts, "sort count")
        if sorts < 1:
            ts.fail(f"bad sort count {sorts}")
    ts.expect("species")
    name = ts.next()
    ts.expect("{")
    expr = _species_sum(ts)
    ts.expect("}")
    return name, expr, sorts


def _species_sum(ts):
    e = _species_term(ts)
    while ts.peek() == "+":
        ts.next()
        e = species.Sum(e, _species_term(ts))
    return e


def _species_term(ts):
    e = _species_primary(ts)
    while ts.peek() == "*":
        ts.next()
        e = species.Prod(e, _species_primary(ts))
    return e


def _species_primary(ts):
    tok = ts.next()
    if tok == "0":
        return species.Zero()
    if tok == "1":
        return species.One()
    if tok == "(":
        e = _species_sum(ts)
        ts.expect(")")
        return e
    if tok in ("SET", "CYC", "SEQ"):
        ts.expect("(")
        child = _species_sum(ts)
        ts.expect(")")
        node = {"SET": species.Set, "CYC": species.Cyc, "SEQ": species.Seq}[tok]
        return node(child)
    if tok == "restrict":
        ts.expect("(")
        child = _species_sum(ts)
        ts.expect(";")
        constraint = _constraint_or(ts)
        ts.expect(")")
        return species.Restrict(child, constraint)
    if tok == "compose":
        ts.expect("(")
        outer = _species_sum(ts)
        ts.expect(";")
        slots, subs = [], []
        while True:
            nm = ts.next()
            if not _IDENT.fullmatch(nm) or nm in _KEYWORDS:
                ts.fail(f"bad slot name {nm!r}")
            ts.expect("<-")
            slots.append(nm)
            subs.append(_species_sum(ts))
            if ts.peek() == ",":
                ts.next()
                continue
            break
        ts.expect(")")
        return species.StrongCompose(outer, tuple(slots), tuple(subs))
    if tok == "fix":
        ts.expect("{")
        bindings = []
        while True:
            nm = ts.next()
            if nm in _KEYWORDS or not _IDENT.fullmatch(nm):
                ts.fail(f"bad binder name {nm!r}")
            if _ATOM_NAME.fullmatch(nm):
                ts.fail(f"binder {nm!r} shadows an atom name")
            ts.expect("=")
            bindings.append((nm, _species_sum(ts)))
            if ts.peek() == ";":
                ts.next()
                if ts.peek() == "}":
                    break
                continue
            break
        ts.expect("}")
        ts.expect("in")
        select = ts.next()
        return species.Fix(tuple(bindings), select)
    m = _ATOM_NAME.fullmatch(tok)
    if m:
        return species.Atom(_digits(ts, m.group(1)))
    if _IDENT.fullmatch(tok) and tok not in _KEYWORDS:
        return species.Ref(tok)
    ts.fail(f"unexpected token {tok!r}")


def format_spec(name, expr, sorts=1) -> str:
    return f"sorts {sorts}\nspecies {name} {{\n  {_format_species(expr)}\n}}\n"


def _format_species(e) -> str:
    if isinstance(e, species.Zero):
        return "0"
    if isinstance(e, species.One):
        return "1"
    if isinstance(e, species.Atom):
        return f"X{e.sort}"
    if isinstance(e, species.Ref):
        return e.name
    if isinstance(e, species.Sum):
        return f"({_format_species(e.left)} + {_format_species(e.right)})"
    if isinstance(e, species.Prod):
        return f"({_format_species(e.left)} * {_format_species(e.right)})"
    if isinstance(e, species.Set):
        return f"SET({_format_species(e.child)})"
    if isinstance(e, species.Cyc):
        return f"CYC({_format_species(e.child)})"
    if isinstance(e, species.Seq):
        return f"SEQ({_format_species(e.child)})"
    if isinstance(e, species.Restrict):
        return f"restrict({_format_species(e.child)}; {e.constraint})"
    if isinstance(e, species.StrongCompose):
        subs = ", ".join(
            f"{nm} <- {_format_species(s)}" for nm, s in zip(e.slots, e.subs)
        )
        return f"compose({_format_species(e.outer)}; {subs})"
    if isinstance(e, species.Fix):
        bindings = "; ".join(
            f"{nm} = {_format_species(body)}" for nm, body in e.bindings
        )
        return f"fix {{ {bindings} }} in {e.select}"
    raise ParseError(f"not a species expression: {e!r}")


# File loading -----------------------------------------------------------------------


def load_model(path):
    """Dispatch on extension; returns (kind, payload, warnings)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".wbpp"):
        model, warnings = parse_wbpp(text)
        return "wbpp", model, warnings
    if path.endswith(".bpp"):
        from .wbpp import bpp_to_wbpp

        return "wbpp", bpp_to_wbpp(parse_bpp(text)), []
    if path.endswith(".cdf"):
        return "cdf", parse_cdf(text), []
    if path.endswith(".spec"):
        name, expr, sorts = parse_spec(text)
        return "spec", (name, expr, sorts), []
    raise ParseError(f"unrecognized file extension: {path}")
