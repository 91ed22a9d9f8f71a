#!/usr/bin/env python3
"""Tour of the weighted parallel-process engine.

A model has letters, nonterminals, one transition polynomial per
(letter, nonterminal), and a rational output weight per nonterminal.
Reading a letter rewrites a configuration (a polynomial over the
nonterminals) by the Leibniz rule, so products behave like parallel
composition: each factor gets a chance to read the letter.
"""

from zeroness import wbpp as W
from zeroness.poly import Context

# The spawning counter: 'a' turns one X into two, 'b' retires one X.
ctx = Context(["S", "X"])
m = W.Wbpp(
    alphabet=["a", "b"],
    nonterminals=["S", "X"],
    start="S",
    transitions={
        ("a", "S"): ctx.var("X"),
        ("a", "X"): ctx.var("X") ** 2,
        ("b", "X"): ctx.one(),
    },
    outputs={"S": 0, "X": 0},
)

print("configurations while reading aabb:")
config = m.start
for letter in "aabb":
    config = W.delta_letter(m, letter, config)
    print(f"  after {letter}: {config}")

print("\nword values (number of distinct accepting runs):")
for word in ["ab", "aabb", "abab", "aab"]:
    print(f"  [[S]]_{word} = {W.evaluate(m, m.start, word)}")

print("\nall nonzero coefficients up to length 4:")
for word, value in sorted(W.coeffs_up_to(m, m.start, 4).items()):
    if value != 0:
        print(f"  {word}: {value}")

# Zeroness runs an ideal-chain saturation: configurations reached by new
# letters are evaluated at the output point and pruned against a Groebner
# basis of those already seen.
verdict = W.zeroness(m)
print(f"\nzeroness: {verdict.outcome.value}, witness {verdict.witness!r}, "
      f"value {verdict.value}")

# Equivalence is zeroness of the difference in the disjoint union.
m_out1 = W.Wbpp(
    ["a", "b"], ["S", "X"], "S",
    {("a", "S"): ctx.var("X"), ("a", "X"): ctx.var("X") ** 2, ("b", "X"): ctx.one()},
    {"S": 0, "X": 1},
)
verdict = W.equivalent(m, m_out1)
print(f"against the copy with output X = 1: {verdict.outcome.value}, "
      f"witness {verdict.witness!r}")

# Closures start the model at a new configuration; f + f over one model
# starts at 2*S, with no nonterminal added.
double = W.sum_(m, m)
print(f"\nf + f starts at {double.start}, value at aabb: "
      f"{W.evaluate(double, double.start, 'aabb')}")

# Unweighted processes embed by counting runs.
spec = W.BppSpec({"S": (("a", ("X",)),), "X": (("a", ("X", "X")), ("b", ()))}, "S")
embedded = W.bpp_to_wbpp(spec)
print(f"embedded process equivalent to the weighted model: "
      f"{W.equivalent(embedded, m).outcome.value}")
