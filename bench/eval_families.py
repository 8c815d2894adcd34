"""eval-families: scaling ladders over a growing output.

Each rung is one query. Free names carry a per-query suffix, so the
global `_eval` cache gives no reuse between queries; the work sits in
`prob` (wide `Distr` merges, big-exponent `Dyadic`) and in
`syntax.substitute`/`shift` under `bigstep` and `smallstep`.

Every output is checked against a closed form computed here:
- walk at any fuel: `s^k z` with weight 2^-(k+1) for k < K, deficit 2^-K;
- branching walk (also the `step_n` tables): all 2^k words of length k
  with weight 2^-(2k+1) for k < K, deficit 2^-K;
- tower `c_a c_b c2 (\\y.y (+) s y) z`: mass 1 over 2^(b^a)+1 outcomes,
  `z` and `s ...` with weights 2^-1 .. 2^-n and 2^-n for n = 2^(b^a);
- `prob_tree` of the branching walk: the words grouped by their first
  `level` symbols (with `z` closing each word);
and head and spine `step_n` tables at equal step counts must agree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import plam
from reference import base_name, canon, decode_word, digest, frac

WALK = r"Theta (\f x. x (+) f ({s} x)) {z}"
BRANCH = r"Theta (\f x. x (+) (f ({a} x) (+) f ({b} x))) {z}"
TOWER = r"{ca} {cb} {c2} (\y.y (+) {s} y) {z}"

TOWER_FUEL = 32
TREE_FUEL = 14

# (ladder, rungs): fuel for eval, steps for step_n, (a, b) for towers,
# level for prob_tree. Each ladder grows its output by about 2^5 or more.
LADDERS = (
    ("eval_walk", tuple(range(8, 65, 2))),
    ("eval_branch", tuple(range(6, 19, 2))),
    ("step_head", tuple(range(24, 65, 4))),
    ("step_spine", tuple(range(24, 53, 4))),
    ("tower", ((1, 2), (1, 3), (2, 2), (1, 5), (1, 6), (1, 7), (3, 2), (2, 3))),
    ("prob_tree", (2, 3, 4, 5, 6)),
)


def church(n: int) -> str:
    return r"(\f x." + "f (" * n + "x" + ")" * n + ")"


class Query:
    __slots__ = ("ladder", "rung", "text")

    def __init__(self, ladder, rung, text):
        self.ladder = ladder
        self.rung = rung
        self.text = text


class EvalFamilies:
    # Well above the largest rung (about 3 s for spine at 52 steps).
    budget_s = 20.0

    def __init__(self, seed: int):
        self.queries = []
        for ladder, rungs in LADDERS:
            for rung in rungs:
                tag = f"{seed}_{len(self.queries)}"
                names = {k: f"{k}_{tag}" for k in ("a", "b", "s", "z")}
                if ladder == "eval_walk":
                    text = WALK.format(**names)
                elif ladder == "tower":
                    a, b = rung
                    text = TOWER.format(ca=church(a), cb=church(b), c2=church(2), **names)
                else:
                    text = BRANCH.format(**names)
                self.queries.append(Query(ladder, rung, text))
        self._step_tables = {}  # steps -> {strategy: digest}

    def run(self, q: Query):
        term = plam.parse(q.text)
        if q.ladder in ("eval_walk", "eval_branch"):
            return plam.eval_fuel(term, q.rung).distr
        if q.ladder == "tower":
            return plam.eval_fuel(term, TOWER_FUEL).distr
        if q.ladder == "step_head":
            return plam.step_n(term, q.rung, "head")
        if q.ladder == "step_spine":
            return plam.step_n(term, q.rung, "spine")
        return plam.prob_tree(term, q.rung, TREE_FUEL)

    def check(self, q: Query, out):
        """Return (problem or "", digest, output size)."""
        if q.ladder == "prob_tree":
            return _check_tree(out, q.rung), _tree_digest(out), len(out.entries)
        items = [(t, frac(w)) for t, w in out.items()]
        dig = digest(f"{canon(t)} {w}" for t, w in items)
        if q.ladder == "eval_walk":
            problem = _check_layers(items, "s", lambda k: 1, lambda k: Fraction(1, 2 ** (k + 1)))
        elif q.ladder == "tower":
            problem = _check_tower(items, *q.rung)
        else:
            problem = _check_layers(
                items, "ab", lambda k: 2 ** k, lambda k: Fraction(1, 2 ** (2 * k + 1))
            )
        if not problem and q.ladder.startswith("step_"):
            tables = self._step_tables.setdefault(q.rung, {})
            tables[q.ladder] = dig
            if len(set(tables.values())) > 1:
                problem = f"head and spine tables differ at {q.rung} steps"
        return problem, dig, len(items)


def _check_layers(items, letters, per_depth, weight) -> str:
    """Words over `letters` ending in z, complete by length up to some K."""
    lengths = Counter()
    for t, w in items:
        word = decode_word(t, letters, "z")
        if word is None:
            return f"outcome {canon(t)} is not a word over {letters!r}"
        if w != weight(len(word)):
            return f"word {word!r} has weight {w}, expected {weight(len(word))}"
        lengths[len(word)] += 1
    depth = len(lengths)
    if not depth:
        return "no outcome at all"
    for k in range(depth):
        if lengths[k] != per_depth(k):
            return f"{lengths[k]} words of length {k}, expected {per_depth(k)}"
    mass = sum(w for _, w in items)
    if mass != 1 - Fraction(1, 2 ** depth):
        return f"mass {mass} does not leave deficit 2^-{depth}"
    return ""


def _check_tower(items, a: int, b: int) -> str:
    n = 2 ** (b ** a)
    if len(items) != n + 1:
        return f"{len(items)} outcomes, expected {n + 1}"
    s_weights = []
    for t, w in items:
        if isinstance(t, plam.Free) and base_name(t.name) == "z":
            if w != Fraction(1, 2 ** n):
                return f"z has weight {w}, expected 2^-{n}"
        elif (
            isinstance(t, plam.App)
            and isinstance(t.fun, plam.Free)
            and base_name(t.fun.name) == "s"
        ):
            s_weights.append(w)
        else:
            return f"outcome {canon(t)[:60]} has neither head s nor is z"
    if sorted(s_weights, reverse=True) != [Fraction(1, 2 ** j) for j in range(1, n + 1)]:
        return "weights of the s outcomes are not 2^-1 .. 2^-n"
    return ""


def _tree_heads(vt):
    """Heads along a chain of single-child value trees, or None if it branches."""
    heads = [base_name(vt.head)]
    while vt.args:
        if len(vt.args) != 1:
            return None
        (child,) = vt.args
        if len(child.entries) != 1 or frac(child.deficit) or frac(child.entries[0][1]) != 1:
            return None
        vt = child.entries[0][0]
        heads.append(base_name(vt.head))
    return "".join(heads)


def _check_tree(pt, level: int) -> str:
    deficit = frac(pt.deficit)
    depth = deficit.denominator.bit_length() - 1
    if deficit.numerator != 1 or depth < 1:
        return f"deficit {deficit} is not 2^-K with K >= 1"
    expected = Counter()
    for k in range(depth):
        for i in range(2 ** k):
            word = format(i, f"0{k}b").translate(str.maketrans("01", "ab")) if k else ""
            expected[(word + "z")[:level]] += Fraction(1, 2 ** (2 * k + 1))
    actual = Counter()
    for vt, w in pt.entries:
        heads = _tree_heads(vt)
        if heads is None:
            return "value tree is not a chain of single heads"
        actual[heads] += frac(w)
    if actual != expected:
        return f"grouping differs from the closed form at level {level}"
    return ""


def _tree_digest(pt) -> str:
    def tree(p) -> str:
        inner = sorted(f"{node(vt)}:{frac(w)}" for vt, w in p.entries)
        return "[" + ";".join(inner) + f"|{frac(p.deficit)}]"

    def node(vt) -> str:
        return f"{base_name(vt.head)}/{vt.depth}/{vt.offset}(" + ",".join(tree(a) for a in vt.args) + ")"

    return digest([tree(pt)])
