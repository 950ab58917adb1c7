"""The benchmark's workloads: presentations, seeded inputs, operations and
the checks on their answers.

A workload hands out rounds.  A round is a list of `Op`s built from the
seed and the round number before any timing starts; the library receives
only the generated presentations and words.  Every round of a workload
holds the same kinds of operation in the same numbers, so the share of
failed operations does not depend on how many rounds a run completes.

Checks use `oracles` only, never the library's own searches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracles


class Inconclusive(Exception):
    """The library gave no answer (budget, depth cap or inapplicable)."""


class Wrong(Exception):
    """The library gave an answer that a check refutes."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # Whether the op's latency enters op_p50_ms / op_p99_ms.
    alike: bool = True


# (key, catalog constructor, arguments).  Every presentation a workload
# uses is listed here, so set-up builds all of them.
SPECS = {
    "diamond": [
        ("cb4abc", "colored_braid", (4, ("a", "b", "c"))),
        ("cb5ab", "colored_braid", (5, ("a", "b"))),
        ("cb3abcd", "colored_braid", (3, ("a", "b", "c", "d"))),
        ("rc4abc", "restricted_colored", (4, ("a", "b", "c"))),
        ("rc5abc", "restricted_colored", (5, ("a", "b", "c"))),
        ("b7", "braid", (7,)),
        ("malcev", "malcev", ()),
        ("cb4ab", "colored_braid", (4, ("a", "b"))),
    ],
    "word-problem": [
        ("b5", "braid", (5,)),
        ("cb4ab", "colored_braid", (4, ("a", "b"))),
        ("cb3abc", "colored_braid", (3, ("a", "b", "c"))),
        ("cb4abc", "colored_braid", (4, ("a", "b", "c"))),
    ],
    "deep-lcm": [
        ("b5", "braid", (5,)),
        ("b6", "braid", (6,)),
        ("b3", "braid", (3,)),
    ],
}

# Strand count of each braid-like presentation: the first argument.
STRANDS = {key: args[0] for specs in SPECS.values() for key, _, args in specs if args}


def build_presentations(rv, workload: str) -> dict:
    """Each presentation twice: from the catalog, and through the file
    format.  Returns key -> (catalog-built, parsed)."""
    built = {}
    for key, family, args in SPECS[workload]:
        p = getattr(rv, family)(*args)
        built[key] = (p, rv.parse_presentation(rv.format_presentation(p)))
    return built


def random_word(rng: random.Random, p, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(len(p.letters)) for _ in range(length))


def relation_index(p, mirrored: bool = False):
    pairs = [(r.lhs, r.rhs) for r in p.relations]
    if mirrored:
        pairs = [(lhs[::-1], rhs[::-1]) for lhs, rhs in pairs]
    return oracles.side_index(pairs)


def braid_tokens(offset: int, strands: int) -> list[str]:
    """The Garside element Δ of `strands` strands on generators
    s(offset+1) .. s(offset+strands-1), as tokens."""
    out = []
    for i in range(1, strands):
        out.extend(f"s{offset + j}" for j in range(i, 0, -1))
    return out


class Diamond:
    """The paper's question: left and right cancellativity verdicts, plus
    one defect.  Inputs are the catalog presentations alone, so they do not
    depend on the seed."""

    name = "diamond"
    # Its verdicts are few and unlike, so op_p50_ms / op_p99_ms time the
    # calls to this function instead: one diamond check each.
    timed_calls = ("completeness", "check_diamond")
    cancellative = ("cb4abc", "cb5ab", "cb3abcd", "b7", "malcev")
    restricted = ("rc4abc", "rc5abc")
    cli_argv = ["cancel", "--catalog", "colored-braid", "--n", "4", "--colors", "2", "--json"]

    def __init__(self, rv, pres: dict, seed: int):
        self.rv = rv
        self.pres = pres
        self.budget = rv.DEFAULT_BUDGET

    def round_ops(self, r: int) -> list[Op]:
        rv, b = self.rv, self.budget
        ops = []
        for key in self.cancellative + self.restricted:
            p = self.pres[key]
            want = "not-by-this-criterion" if key in self.restricted else "cancellative"
            for side, decide in (("left", rv.check_left_cancellative),
                                 ("right", rv.check_right_cancellative)):
                ops.append(Op(
                    f"{side} cancellativity of {key}",
                    lambda p=p, decide=decide: decide(p, b),
                    lambda v, p=p, want=want, side=side: self.check_verdict(p, v, want, side),
                ))
        cb4ab = self.pres["cb4ab"]
        ops.append(Op("defect of cb4ab", lambda: rv.defect(cb4ab, b), self.check_defect))
        return ops

    def check_verdict(self, p, v, want: str, side: str) -> None:
        status = v.status.value
        if status == "inconclusive":
            raise Inconclusive(v.reason)
        expect(status == want, f"{side} verdict {status}, expected {want}")
        witnesses = [rep for rep in v.completeness.pairs if rep.status.value == "counterexample"]
        if want == "cancellative":
            expect(v.completeness.verdict.value == "complete", "cancellative without completeness")
            return
        expect(v.completeness.verdict.value == "incomplete" and witnesses,
               "restricted family reported without an incompleteness witness")
        index = relation_index(p, mirrored=(side == "right"))
        classes: dict = {}

        def cls(w):
            if w not in classes:
                classes[w] = oracles.closure(index, w)
            return classes[w]

        for rep in witnesses:
            g = rep.witness
            src = rep.relation.lhs if rep.direction == "lhs->rhs" else rep.relation.rhs
            expect(g.source == ((rep.generator,), src), "witness grid has the wrong source")
            (u, w), (u1, v1) = g.source, g.target
            expect(u + v1 in cls(w + u1), "witness grid is not a valid diamond side")
            for g2 in rep.dst_grids:
                expect(not (g2.target[0] in cls(u1) and g2.target[1] in cls(v1)),
                       "witness has a target-equivalent grid on the other side")

    def check_defect(self, d) -> None:
        if d.value is None:
            raise Inconclusive("defect budget")
        expect(d.value == 5, f"defect {d.value}, expected 5")

    def cli_check(self, doc: dict) -> None:
        for side in ("left", "right"):
            expect(doc[side]["status"] == "cancellative", f"CLI {side} verdict")
            expect(doc[side]["completeness"] == "complete", f"CLI {side} completeness")


class WordProblem:
    """Equivalence queries on words of length 6-10, decided by the
    breadth-first oracle and by reversing.  Half the pairs are joined by k
    rewrites of the benchmark's own, on all four presentations; the other
    half are random pairs."""

    name = "word-problem"
    queries = 1000
    rewritten_on = ("b5", "cb4ab", "cb3abc", "cb4abc")
    # Random pairs only on braid(5), where reversing is deterministic.  On
    # the colored braids a random pair can make reversing enumerate an
    # exponential target set: past 1,000,000 steps (inconclusive) on some
    # seeds for colored_braid(4, .), up to 55,678 steps and 1.5 s on
    # colored_braid(3, {a,b,c}); see README.md.
    random_on = "b5"
    max_rewrites = 4

    def __init__(self, rv, pres: dict, seed: int):
        self.rv = rv
        self.pres = pres
        self.seed = seed
        self.budget = rv.Budget(max_cells=1_000_000, max_grids=1_000_000)
        self.t = random.Random(f"burau:{seed}").randrange(2, oracles.PRIME - 1)
        self.index = {key: relation_index(p) for key, p in pres.items()}
        self.alphabet = {key: oracles.Alphabet(p.letters, STRANDS[key]) for key, p in pres.items()}
        rng = random.Random("word-problem-cli")
        p = pres["cb4ab"]
        u, v = self.rewritten_pair(rng, "cb4ab", 8, self.max_rewrites)
        self.cli_argv = ["equiv", "--catalog", "colored-braid", "--n", "4", "--colors", "2",
                         p.word_str(u), p.word_str(v), "--json"]

    def rewritten_pair(self, rng, key: str, length: int, k: int):
        while True:
            u = random_word(rng, self.pres[key], length)
            v = oracles.random_rewrites(rng, self.index[key], u, k)
            if v != u:
                return u, v

    def round_ops(self, r: int) -> list[Op]:
        rng = random.Random(f"word-problem:{self.seed}:{r}")
        half = self.queries // 2
        specs = []
        for i in range(half):
            key = self.rewritten_on[i % len(self.rewritten_on)]
            k = rng.randint(1, self.max_rewrites)
            u, v = self.rewritten_pair(rng, key, rng.randint(6, 10), k)
            specs.append((key, u, v, k))
        p = self.pres[self.random_on]
        for _ in range(half):
            u = random_word(rng, p, rng.randint(6, 10))
            v = random_word(rng, p, rng.randint(6, 10))
            specs.append((self.random_on, u, v, None))
        rng.shuffle(specs)
        return [self.op(*spec) for spec in specs]

    def op(self, key, u, v, k) -> Op:
        rv, b, p = self.rv, self.budget, self.pres[key]

        def call():
            return rv.are_equivalent(p, u, v, b), rv.decide_equiv_by_reversing(p, u, v, b)

        return Op(f"{key} {p.word_str(u)} ~ {p.word_str(v)}", call,
                  lambda res: self.check(key, u, v, k, res))

    def check(self, key, u, v, k, res) -> None:
        outcome, by_reversing = res
        if not outcome.decided or by_reversing is None:
            raise Inconclusive(outcome.status.value)
        expect(outcome.is_equivalent == by_reversing, "oracle and reversing disagree")
        if k is not None:
            expect(outcome.is_equivalent, f"pair joined by {k} rewrites reported not equivalent")
            expect(1 <= outcome.distance <= k, f"distance {outcome.distance} for {k} rewrites")
            return
        alphabet = self.alphabet[key]
        differs = (alphabet.invariants(u) != alphabet.invariants(v)
                   or alphabet.burau(u, self.t) != alphabet.burau(v, self.t))
        if differs:
            expect(not outcome.is_equivalent, "pair differing in an invariant reported equivalent")
        else:
            expect(outcome.is_equivalent == (v in oracles.closure(self.index[key], u)),
                   "answer contradicts the rewriting closure")

    def cli_check(self, doc: dict) -> None:
        expect(doc["status"] == "equivalent", f"CLI equiv status {doc['status']}")
        expect(1 <= doc["distance"] <= self.max_rewrites, f"CLI distance {doc['distance']}")


class DeepLcm:
    """Right lcms and common right multiples of long words in braid(5) and
    braid(6), the Garside pair, and one long reversing past the depth cap.

    The braids compared are a fixed set of random pairs; the seed picks the
    words that spell them (by random rewriting) each round.  The cost of an
    lcm depends mostly on the braids, so this keeps the spread between
    seeds small while every seed still feeds the library different words."""

    name = "deep-lcm"
    length = 16
    pairs_per_braid = 50
    rewrites = 32
    cap_power = 4001

    def __init__(self, rv, pres: dict, seed: int):
        self.rv = rv
        self.pres = pres
        self.seed = seed
        self.budget = rv.Budget(max_cells=1_000_000, max_grids=1_000_000)
        self.t = random.Random(f"burau:{seed}").randrange(2, oracles.PRIME - 1)
        pool_rng = random.Random("deep-lcm-pool")
        self.pool = {
            key: [(random_word(pool_rng, pres[key], self.length),
                   random_word(pool_rng, pres[key], self.length))
                  for _ in range(self.pairs_per_braid)]
            for key in ("b5", "b6")
        }
        self.index = {key: relation_index(pres[key]) for key in ("b5", "b6")}
        self.alphabet = {key: oracles.Alphabet(p.letters, STRANDS[key]) for key, p in pres.items()}
        self.cli_argv = ["lcm", "--catalog", "braid", "--n", "6",
                         " ".join(braid_tokens(0, 5)), " ".join(braid_tokens(1, 5)), "--json"]

    def round_ops(self, r: int) -> list[Op]:
        rng = random.Random(f"deep-lcm:{self.seed}:{r}")
        ops = []
        for key in ("b5", "b6"):
            for u, v in self.pool[key]:
                u = oracles.random_rewrites(rng, self.index[key], u, self.rewrites)
                v = oracles.random_rewrites(rng, self.index[key], v, self.rewrites)
                ops.append(self.lcm_op(key, u, v))
        for key, n in (("b5", 5), ("b6", 6)):
            p = self.pres[key]
            u, v = p.word(braid_tokens(0, n - 1)), p.word(braid_tokens(1, n - 1))
            ops.append(self.lcm_op(key, u, v, garside=n))
        b3 = self.pres["b3"]
        w = b3.word(["s1"] * self.cap_power)
        ops.append(Op(f"reversing (s1^{self.cap_power}, s1^{self.cap_power}) in braid(3)",
                      lambda: self.rv.decide_equiv_by_reversing(b3, w, w, self.budget),
                      self.check_cap, alike=False))
        return ops

    def lcm_op(self, key, u, v, garside: int | None = None) -> Op:
        rv, b, p = self.rv, self.budget, self.pres[key]

        def call():
            return rv.right_lcm(p, u, v, b), rv.common_right_multiple(p, u, v, b)

        label = f"Garside pair of braid({garside})" if garside else f"{key} lcm"
        return Op(label, call, lambda res: self.check_lcm(key, u, v, res, garside),
                  alike=garside is None)

    def check_lcm(self, key, u, v, res, garside) -> None:
        lcm, multiple = res
        if "inconclusive" in (lcm.kind.value, multiple.kind.value):
            raise Inconclusive(lcm.reason or multiple.reason)
        expect(lcm.kind.value == "lcm" and multiple.kind.value == "multiple",
               f"kinds {lcm.kind.value}, {multiple.kind.value}")
        u1, v1 = lcm.complements
        expect(lcm.multiple == u + v1, "lcm is not u.v1")
        alphabet = self.alphabet[key]
        left, right = u + v1, v + u1
        expect(len(left) == len(right), "u.v1 and v.u1 differ in length")
        expect(alphabet.permutation(left) == alphabet.permutation(right),
               "u.v1 and v.u1 differ in the symmetric group")
        expect(alphabet.burau(left, self.t) == alphabet.burau(right, self.t),
               "u.v1 and v.u1 differ under Burau")
        expect(multiple.multiple == lcm.multiple and multiple.complements == lcm.complements,
               "right_lcm and common_right_multiple disagree")
        if garside:
            self.check_delta(key, garside, lcm.multiple, "Garside lcm")

    def check_delta(self, key, n: int, word, what: str) -> None:
        """`word` spells Δ of n strands: length n(n-1)/2 and its Burau matrix."""
        expect(len(word) == n * (n - 1) // 2, f"{what} has the wrong length")
        alphabet, delta = self.alphabet[key], self.pres[key].word(braid_tokens(0, n))
        expect(alphabet.burau(word, self.t) == alphabet.burau(delta, self.t), f"{what} is not Δ")

    def check_cap(self, answer) -> None:
        if answer is None:
            raise Inconclusive("depth cap")
        expect(answer is True, "identical words reported not equivalent")

    def cli_check(self, doc: dict) -> None:
        expect(doc["kind"] == "lcm", f"CLI lcm kind {doc['kind']}")
        self.check_delta("b6", 6, self.pres["b6"].word(doc["multiple"]), "CLI Garside lcm")


WORKLOADS = {w.name: w for w in (Diamond, WordProblem, DeepLcm)}
