"""Weighted basic parallel processes over noncommutative series.

A model is a finite alphabet, a set of nonterminals, letter-indexed
transition polynomials, and a rational output weight per nonterminal.
Each letter acts on configurations (polynomials over the nonterminals)
as a derivation of the polynomial ring, so reading a word rewrites the
configuration; the output map, extended as a ring homomorphism, extracts
the word's coefficient.  Products of nonterminals model parallel
composition and the recognised series multiply by shuffle product.

A model is a view on the derivation system of ``_system``, read with
letters for its ops and words for witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._saturation import ZeroVerdict
from ._system import System, adjoin, decide, fold, fold_value, inverse, union
from .errors import ArityMismatch, NotStandardForm, NotWellPosed, ResourceLimitExceeded
from .groebner import DEFAULT_LIMITS
from .poly import Context, Derivation, Poly, _from_numerators

# The length up to which the bounded commutativity semi-check compares
# Parikh-equivalent words, wherever a process must be commutative.
COMMUTATIVITY_CHECK_LENGTH = 4


class Wbpp:
    """A weighted basic parallel process.

    ``start`` is a configuration (any polynomial over the nonterminals);
    models loaded from files start at a single nonterminal.  Transitions
    absent from ``transitions`` default to 0, keeping the table total.

    A view on a derivation system ``core``: letter i names op i, and the
    output weights are the point.
    """

    __slots__ = ("alphabet", "core", "start")

    def __init__(self, alphabet, nonterminals, start, transitions, outputs):
        ctx = Context(nonterminals)
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters in alphabet")
        images = {a: {} for a in self.alphabet}
        for (letter, nt), p in transitions.items():
            if letter not in images:
                raise ArityMismatch(f"transition on unknown letter {letter!r}")
            images[letter][ctx.id_of(nt)] = p.rename(ctx)
        out = [Fraction(0)] * len(ctx)
        for nt, w in outputs.items():
            out[ctx.id_of(nt)] = Fraction(w)
        ops = [Derivation(ctx, im) for im in images.values()]
        self.core = System(ctx, ops, out)
        self.start = self.config(start)

    @classmethod
    def of(cls, alphabet, core: System, start: Poly) -> "Wbpp":
        """The model with these letters over ``core``, started at ``start``."""
        m = object.__new__(cls)
        m.alphabet, m.core, m.start = tuple(alphabet), core, start
        return m

    @property
    def ctx(self) -> Context:
        return self.core.ctx

    @property
    def delta(self) -> dict:
        return dict(zip(self.alphabet, self.core.ops))

    @property
    def outputs(self) -> tuple:
        return self.core.point

    @property
    def nonterminals(self):
        return self.ctx.names

    def op(self, letter) -> Derivation:
        if letter not in self.alphabet:
            raise ArityMismatch(f"unknown letter {letter!r}")
        return self.core.ops[self.alphabet.index(letter)]

    def transition(self, letter, nt) -> Poly:
        return self.op(letter).image(self.ctx.id_of(nt))

    def output(self, nt) -> Fraction:
        return self.outputs[self.ctx.id_of(nt)]

    def config(self, text_or_poly) -> Poly:
        if isinstance(text_or_poly, Poly):
            return text_or_poly.rename(self.ctx)
        return self.ctx.var(text_or_poly)

    def parse_word(self, word):
        """Accept an iterable of letters, or a plain string when every
        letter is a single character (multi-character letters are split
        on whitespace)."""
        if isinstance(word, str):
            if all(len(a) == 1 for a in self.alphabet):
                letters = tuple(word)
            else:
                letters = tuple(word.split())
        else:
            letters = tuple(word)
        for a in letters:
            if a not in self.alphabet:
                raise ArityMismatch(f"unknown letter {a!r}")
        return letters

    def render_word(self, letters) -> str:
        """Inverse of parse_word: single-character alphabets join tight,
        others join with spaces."""
        if all(len(a) == 1 for a in self.alphabet):
            return "".join(letters)
        return " ".join(letters)

    def __repr__(self):
        return (
            f"Wbpp(alphabet={self.alphabet}, nonterminals={self.ctx.names}, "
            f"start={self.start})"
        )


# Semantics -----------------------------------------------------------------


def delta_letter(m: Wbpp, letter, config: Poly) -> Poly:
    return m.op(letter)(config)


def delta_word(m: Wbpp, word, config: Poly) -> Poly:
    _, packed, den = fold(config, _ops(m, word))
    return _from_numerators(config.ctx, packed, den)


def output_value(m: Wbpp, config: Poly) -> Fraction:
    """The output homomorphism: evaluation at the output-weight point."""
    return config.eval(m.outputs)


def evaluate(m: Wbpp, config: Poly, word) -> Fraction:
    return fold_value(config, _ops(m, word), m.outputs)


def _ops(m: Wbpp, word) -> list:
    return [m.op(a) for a in m.parse_word(word)]


def coeffs_up_to(m: Wbpp, config: Poly, length: int, limits=None) -> dict:
    """All series coefficients for words of length <= ``length``.

    One breadth-first sweep shares the rewritten configuration of every
    common prefix.  Keys are words rendered as strings (letters joined).
    Before the sweep, the number of words is compared with the
    ``max_iterations`` cap of ``limits``: past it, nothing is enumerated,
    and :class:`ResourceLimitExceeded` reports the words up to the first
    length that passes the cap.
    """
    cap = (limits or DEFAULT_LIMITS).max_iterations
    words, of_length = 0, 1
    for _ in range(length + 1):
        words += of_length
        if words > cap:
            raise ResourceLimitExceeded("max_iterations", words, cap)
        of_length *= len(m.alphabet)
    return {
        m.render_word(word): output_value(m, cfg)
        for level in _levels(m, config, length)
        for word, cfg in level.items()
    }


def _levels(m: Wbpp, config: Poly, length: int):
    """For each length 0..``length`` in turn, the dict from every word of
    that length to the configuration it rewrites ``config`` to."""
    level = {(): config}
    for ell in range(length + 1):
        yield level
        if ell < length:
            level = {
                word + (a,): op(cfg)
                for word, cfg in level.items()
                for a, op in zip(m.alphabet, m.core.ops)
            }


# Zeroness and equivalence ---------------------------------------------------


def zeroness(m: Wbpp, config: Poly = None, limits=None) -> ZeroVerdict:
    """ZERO iff the series of ``config`` (default: the start configuration)
    is identically zero; otherwise a shortest witness word and its value."""
    config = m.start if config is None else config
    verdict = decide(m.core, config, limits)
    if verdict.witness is not None:
        word = m.render_word([m.alphabet[i] for i in verdict.witness])
        return ZeroVerdict(verdict.outcome, word, verdict.value, verdict.stats)
    return verdict


def disjoint_union(m1: Wbpp, m2: Wbpp):
    """Union model over the united alphabet, where a letter one model
    lacks acts as 0 on its nonterminals; nonterminals are renamed with
    ``_1``/``_2`` suffixes.  Returns the model, started at the first
    start, and both start configurations moved into it."""
    alphabet = m1.alphabet + tuple(a for a in m2.alphabet if a not in m1.alphabet)

    def padded(m):
        zero = Derivation(m.ctx, {})
        ops = [m.op(a) if a in m.alphabet else zero for a in alphabet]
        return System(m.ctx, ops, m.outputs)

    core, lift1, lift2 = union(padded(m1), padded(m2))
    s1, s2 = lift1(m1.start), lift2(m2.start)
    return Wbpp.of(alphabet, core, s1), s1, s2


def equivalent(m1: Wbpp, m2: Wbpp, limits=None) -> ZeroVerdict:
    """Zeroness of the difference of the two start configurations in the
    disjoint-union model (missing transitions read as 0)."""
    union_model, s1, s2 = disjoint_union(m1, m2)
    return zeroness(union_model, s1 - s2, limits)


# Closure constructions -------------------------------------------------------


def _started_at(m: Wbpp, expr: Poly) -> Wbpp:
    """``m`` plus a fresh start U standing for the configuration ``expr``:
    Delta_a U = Delta_a expr for every letter, and U outputs F(expr)."""
    core, u = adjoin(
        m.core,
        "U",
        output_value(m, expr),
        lambda lift, _: [lift(op(expr)) for op in m.core.ops],
    )
    return Wbpp.of(m.alphabet, core, u)


def scale(m: Wbpp, c) -> Wbpp:
    return _started_at(m, m.start * Fraction(c))


def sum_(m1: Wbpp, m2: Wbpp) -> Wbpp:
    union_model, s1, s2 = disjoint_union(m1, m2)
    return _started_at(union_model, s1 + s2)


def shuffle(m1: Wbpp, m2: Wbpp) -> Wbpp:
    union_model, s1, s2 = disjoint_union(m1, m2)
    return _started_at(union_model, s1 * s2)


def derive(m: Wbpp, letter) -> Wbpp:
    """Model of the left quotient: coefficients shift by the given letter."""
    return _started_at(m, m.op(letter)(m.start))


def shuffle_inverse(m: Wbpp) -> Wbpp:
    """Model of the shuffle inverse: defined when the empty-word
    coefficient is nonzero.

    From f x g = 1 the Leibniz rule forces d_a g = -(d_a f) x g^2, so the
    fresh start satisfies Delta_a U = -(Delta_a S) * U^2 with output 1/F(S).
    """
    if output_value(m, m.start) == 0:
        raise NotWellPosed("shuffle inverse needs a nonzero empty-word coefficient")
    core, u = inverse(m.core, m.start, "U")
    return Wbpp.of(m.alphabet, core, u)


# BPP embedding ----------------------------------------------------------------


@dataclass(frozen=True)
class BppSpec:
    """An unweighted basic parallel process in standard form.

    ``rules`` maps each nonterminal to its summands, each an action
    prefixing a merge of nonterminals (the empty merge is the terminated
    process).
    """

    rules: dict
    start: str

    def check(self):
        names = set(self.rules)
        if self.start not in names:
            raise NotStandardForm(f"start nonterminal {self.start!r} has no rule")
        for nt, summands in self.rules.items():
            if not summands:
                raise NotStandardForm(
                    f"nonterminal {nt!r} is not productive (no summands)"
                )
            for action, merge in summands:
                if not action:
                    raise NotStandardForm(f"unguarded summand in rule for {nt!r}")
                for x in merge:
                    if x not in names:
                        raise NotStandardForm(
                            f"rule for {nt!r} mentions undefined nonterminal {x!r}"
                        )


def bpp_to_wbpp(spec: BppSpec) -> Wbpp:
    """Natural-weighted model whose series counts accepting runs; its
    support is the process language."""
    spec.check()
    names = list(spec.rules)
    alphabet = []
    for summands in spec.rules.values():
        for action, _ in summands:
            if action not in alphabet:
                alphabet.append(action)
    ctx = Context(names)
    images = {a: {} for a in alphabet}
    for vid, summands in enumerate(spec.rules.values()):
        for action, merge in summands:
            p = ctx.one()
            for x in merge:
                p = p * ctx.var(x)
            images[action][vid] = images[action].get(vid, ctx.zero()) + p
    ops = [Derivation(ctx, images[a]) for a in alphabet]
    return Wbpp.of(alphabet, System(ctx, ops, [Fraction(0)] * len(ctx)), ctx.var(spec.start))


# Commutativity (bounded) -------------------------------------------------------


def check_commutative_bounded(m: Wbpp, length: int, config: Poly = None):
    """Compare coefficients across Parikh-equivalent words up to ``length``.

    Returns None when no disagreement is found, else the offending pair
    (first word of the class, first mismatching word).  A bounded
    semi-check only: agreement up to any finite length proves nothing
    about longer words.
    """
    config = m.start if config is None else config
    table = {}
    for level in _levels(m, config, length):
        for word, cfg in sorted(level.items()):
            key = tuple(sorted(word))
            value = output_value(m, cfg)
            if key in table:
                ref_word, ref_value = table[key]
                if value != ref_value:
                    return (m.render_word(ref_word), m.render_word(word))
            else:
                table[key] = (word, value)
    return None
