"""Text formats: polynomial expressions, constraints, and the model file
formats (.wbpp and .bpp processes, .cdf systems, .spec species).

Polynomial syntax: integer and rational literals (``3``, ``-5/2``),
identifiers, ``+ - * ^`` and parentheses; multiplication is always
explicit.  ``#`` starts a comment everywhere.  Printing is canonical
(graded-lex descending terms), and print-then-parse reproduces a
structurally identical model.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import cdf, constraints, species
from .errors import ParseError
from .groebner import DEFAULT_LIMITS
from .poly import Context, Poly
from .wbpp import Wbpp

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><-|==|&&|\|\||>=|<=|[-+*^()/%{};=,!])|(?P<bad>\S))"
)


def tokenize(text, line=None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        pos = m.end()
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}", line)
        if m.lastgroup is None:
            continue
        tokens.append(m.group(m.lastgroup))
    return tokens


class _Tokens:
    def __init__(self, tokens, line=None):
        self.tokens = tokens
        self.pos = 0
        self.line = line

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

    def cap_degree(self, degree):
        """Fail before a product or power of this degree is expanded:
        expanding one beyond the degree cap takes unbounded time."""
        cap = DEFAULT_LIMITS.max_degree
        if degree > cap:
            self.fail(f"a polynomial of degree {degree} exceeds the degree cap {cap}")


# Polynomial expressions -------------------------------------------------------


def parse_poly(text, ctx: Context, line=None) -> Poly:
    ts = _Tokens(tokenize(text, line), line)
    p = _poly_expr(ts, ctx)
    if not ts.done():
        ts.fail(f"trailing input {ts.peek()!r}")
    return p


def _poly_expr(ts, ctx):
    p = _poly_term(ts, ctx)
    while ts.peek() in ("+", "-"):
        if ts.next() == "+":
            p = p + _poly_term(ts, ctx)
        else:
            p = p - _poly_term(ts, ctx)
    return p


def _poly_term(ts, ctx):
    p = _poly_factor(ts, ctx)
    while ts.peek() == "*":
        ts.next()
        q = _poly_factor(ts, ctx)
        ts.cap_degree(p.degree + q.degree)
        p = p * q
    return p


def _poly_factor(ts, ctx):
    negate = False
    while ts.peek() == "-":
        ts.next()
        negate = not negate
    p = _poly_primary(ts, ctx)
    if ts.peek() == "^":
        ts.next()
        exp = ts.next()
        if not exp.isdigit():
            ts.fail(f"exponent must be a number, got {exp!r}")
        n = int(exp)
        ts.cap_degree(n * p.degree)
        p = p ** n
    return -p if negate else p


def _poly_primary(ts, ctx):
    tok = ts.next()
    if tok.isdigit():
        num = int(tok)
        if ts.peek() == "/":
            ts.next()
            den = ts.next()
            if not den.isdigit() or int(den) == 0:
                ts.fail(f"bad denominator {den!r}")
            return ctx.const(Fraction(num, int(den)))
        return ctx.const(num)
    if tok == "(":
        p = _poly_expr(ts, ctx)
        ts.expect(")")
        return p
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
        if tok not in ctx:
            ts.fail(f"unknown variable {tok!r}")
        return ctx.var(tok)
    ts.fail(f"unexpected token {tok!r}")


# Constraints --------------------------------------------------------------------


def parse_constraint(text, line=None):
    ts = _Tokens(tokenize(text, line), line)
    c = _constraint_or(ts)
    if not ts.done():
        ts.fail(f"trailing input {ts.peek()!r}")
    return c


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


def _constraint_atom(ts):
    tok = ts.next()
    if tok == "true":
        return constraints.TRUE
    m = re.fullmatch(r"z(\d+)", tok)
    if not m:
        ts.fail(f"constraint atoms use z1, z2, ...; got {tok!r}")
    axis = int(m.group(1))
    op = ts.next()
    if op == "%":
        modulus = int(ts.next())
        ts.expect("==")
        residue = int(ts.next())
        return constraints.ModEq(axis, residue, modulus)
    if op == "==":
        return constraints.Eq(axis, int(ts.next()))
    if op == ">=":
        return constraints.ge(axis, int(ts.next()))
    if op == "<=":
        return constraints.le(axis, int(ts.next()))
    ts.fail(f"unknown comparison {op!r}")


def format_constraint(c) -> str:
    return str(c)


# Shared line handling --------------------------------------------------------------


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# .wbpp format -----------------------------------------------------------------------


def parse_wbpp(text):
    """Parse a process model; returns (model, warnings)."""
    alphabet, nonterminals, start = None, None, None
    outputs, deltas = {}, {}
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "alphabet":
            alphabet = rest.split()
        elif head == "nonterminals":
            nonterminals = rest.split()
        elif head == "start":
            start = rest
        elif head == "output":
            name, _, value = rest.partition("=")
            name = name.strip()
            outputs[(name, lineno)] = value.strip()
        elif head == "delta":
            try:
                letter, nt, eq, value = rest.split(None, 3)
            except ValueError:
                raise ParseError("delta lines read: delta <letter> <nt> = <poly>", lineno)
            if eq != "=":
                raise ParseError("delta lines read: delta <letter> <nt> = <poly>", lineno)
            deltas[(letter, nt, lineno)] = value
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if alphabet is None:
        raise ParseError("missing 'alphabet' line")
    if nonterminals is None:
        raise ParseError("missing 'nonterminals' line")
    if start is None:
        raise ParseError("missing 'start' line")
    if start not in nonterminals:
        raise ParseError(f"start nonterminal {start!r} not declared")
    ctx = Context(nonterminals)
    transitions = {}
    seen_outputs = {}
    for (name, lineno), value in outputs.items():
        if name not in ctx:
            raise ParseError(f"output for undeclared nonterminal {name!r}", lineno)
        seen_outputs[name] = Fraction(parse_poly(value, ctx, lineno).constant_term())
    for (letter, nt, lineno), value in deltas.items():
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
    start_vars = sorted(m.start.variables())
    if not (len(m.start.terms) == 1 and len(start_vars) == 1):
        raise ParseError("only models starting at a single nonterminal can be printed")
    lines = [
        "alphabet " + " ".join(m.alphabet),
        "nonterminals " + " ".join(m.ctx.names),
        "start " + m.ctx.name_of(start_vars[0]),
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

    rules = {}
    start = None
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "start":
            start = rest
            continue
        if head != "rule":
            raise ParseError(f"unknown directive {head!r}", lineno)
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ParseError("rule lines read: rule <nt> = <summands>", lineno)
        if name in rules:
            raise ParseError(f"duplicate rule for {name!r}", lineno)
        rules[name] = _parse_bpp_body(body.strip(), lineno)
    if not rules:
        raise ParseError("no rules")
    if start is None:
        start = next(iter(rules))
    return BppSpec(rules, start)


def _parse_bpp_body(text, lineno):
    summands = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        action, dot, merge = chunk.partition(".")
        action = action.strip()
        merge = merge.strip()
        if not dot or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", action):
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
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", p) or p == "end":
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
    base, gens = None, None
    inits, kernel_lines, expr_line = {}, [], None
    for lineno, line in _logical_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "vars":
            base = rest.split()
        elif head == "gens":
            gens = rest.split()
        elif head == "init":
            name, _, value = rest.partition("=")
            inits[name.strip()] = (value.strip(), lineno)
        elif head.startswith("d/d"):
            var = head[3:]
            name, _, value = rest.partition("=")
            kernel_lines.append((var, name.strip(), value.strip(), lineno))
        elif head == "expr":
            stripped = line[4:].strip()
            if not stripped.startswith("="):
                raise ParseError("expr lines read: expr = <expression>", lineno)
            expr_line = (stripped[1:].strip(), lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if base is None:
        raise ParseError("missing 'vars' line")
    if gens is None:
        raise ParseError("missing 'gens' line")
    if expr_line is None:
        raise ParseError("missing 'expr' line")
    mixed = Context(list(gens) + [b for b in base if b not in gens])
    init = []
    for g in gens:
        value, lineno = inits.get(g, ("0", None))
        init.append(parse_poly(value, mixed, lineno).constant_term())
    kernel = {}
    for var, name, value, lineno in kernel_lines:
        if var not in base:
            raise ParseError(f"derivative along undeclared variable {var!r}", lineno)
        if name not in gens:
            raise ParseError(f"derivative of undeclared generator {name!r}", lineno)
        kernel[(name, base.index(var) + 1)] = parse_poly(value, mixed, lineno)
    system = cdf.autonomize(base, gens, kernel, init)
    return _eval_series_expr(expr_line[0], system, expr_line[1])


def _eval_series_expr(text, system, line=None):
    """Evaluate an expression over a system; plain polynomials stay at the
    expression level, restrict(...) climbs to series-level closure ops."""
    ts = _Tokens(tokenize(text, line), line)
    out = _series_sum(ts, system)
    if not ts.done():
        ts.fail(f"trailing input {ts.peek()!r}")
    return _as_series(out, system)


def _as_series(value, system):
    if isinstance(value, cdf.CdfSeries):
        return value
    return cdf.CdfSeries(system, value)


def _series_sum(ts, system):
    value = _series_term(ts, system)
    while ts.peek() in ("+", "-"):
        op = ts.next()
        rhs = _series_term(ts, system)
        if isinstance(value, Poly) and isinstance(rhs, Poly):
            value = value + rhs if op == "+" else value - rhs
        else:
            lhs = _as_series(value, system)
            rhs = _as_series(rhs, system)
            value = cdf.c_add(lhs, cdf.c_scale(rhs, 1 if op == "+" else -1))
    return value


def _series_term(ts, system):
    value = _series_factor(ts, system)
    while ts.peek() == "*":
        ts.next()
        rhs = _series_factor(ts, system)
        if isinstance(value, Poly) and isinstance(rhs, Poly):
            ts.cap_degree(value.degree + rhs.degree)
            value = value * rhs
        else:
            value = cdf.c_mul(_as_series(value, system), _as_series(rhs, system))
    return value


def _series_factor(ts, system):
    negate = False
    while ts.peek() == "-":
        ts.next()
        negate = not negate
    value = _series_primary(ts, system)
    if ts.peek() == "^":
        ts.next()
        exp = ts.next()
        if not exp.isdigit():
            ts.fail(f"exponent must be a number, got {exp!r}")
        n = int(exp)
        # a series power is n closure products, so n itself is capped too
        ts.cap_degree(n * max(value.degree, 1) if isinstance(value, Poly) else n)
        if isinstance(value, Poly):
            value = value ** n
        else:
            out = _as_series(system.ctx.one(), system)
            for _ in range(n):
                out = cdf.c_mul(out, value)
            value = out
    if negate:
        if isinstance(value, Poly):
            value = -value
        else:
            value = cdf.c_scale(value, -1)
    return value


def _series_primary(ts, system):
    tok = ts.peek()
    if tok == "restrict":
        ts.next()
        ts.expect("(")
        inner = _series_sum(ts, system)
        ts.expect(";")
        ctext = []
        depth = 0
        while True:
            nxt = ts.peek()
            if nxt is None:
                ts.fail("unterminated restrict(...)")
            if nxt == "(":
                depth += 1
            elif nxt == ")":
                if depth == 0:
                    break
                depth -= 1
            ctext.append(ts.next())
        ts.expect(")")
        constraint = parse_constraint(" ".join(ctext), ts.line)
        return cdf.restrict_regular(_as_series(inner, system), constraint)
    tok = ts.next()
    if tok.isdigit():
        num = int(tok)
        if ts.peek() == "/":
            ts.next()
            den = ts.next()
            if not den.isdigit() or int(den) == 0:
                ts.fail(f"bad denominator {den!r}")
            return system.ctx.const(Fraction(num, int(den)))
        return system.ctx.const(num)
    if tok == "(":
        value = _series_sum(ts, system)
        ts.expect(")")
        return value
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
        if tok not in system.ctx:
            ts.fail(f"unknown generator {tok!r}")
        return system.ctx.var(tok)
    ts.fail(f"unexpected token {tok!r}")


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
    ts = _Tokens(tokenize(stripped), None)
    sorts = 1
    if ts.peek() == "sorts":
        ts.next()
        tok = ts.next()
        if not tok.isdigit() or int(tok) < 1:
            ts.fail(f"bad sort count {tok!r}")
        sorts = int(tok)
    ts.expect("species")
    name = ts.next()
    ts.expect("{")
    expr = _species_sum(ts)
    ts.expect("}")
    if not ts.done():
        ts.fail(f"trailing input {ts.peek()!r}")
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
        ctext = []
        depth = 0
        while True:
            nxt = ts.peek()
            if nxt is None:
                ts.fail("unterminated restrict(...)")
            if nxt == "(":
                depth += 1
            elif nxt == ")":
                if depth == 0:
                    break
                depth -= 1
            ctext.append(ts.next())
        ts.expect(")")
        return species.Restrict(child, parse_constraint(" ".join(ctext)))
    if tok == "compose":
        ts.expect("(")
        outer = _species_sum(ts)
        ts.expect(";")
        slots, subs = [], []
        while True:
            nm = ts.next()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", nm) or nm in _KEYWORDS:
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
            if nm in _KEYWORDS or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", nm):
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
        return species.Atom(int(m.group(1)))
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in _KEYWORDS:
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
