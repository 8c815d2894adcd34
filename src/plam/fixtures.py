"""Worked-example fixtures exercised by the `fixtures` CLI command.

`CASES` is one table of rows (name, computation, expected exact value),
both sides built only when the fixture runs, and `check` compares the two
with `==`. A computation returns a plain value of the facts it checks: for
an evaluation, its distribution and exactness; for a tree, its deficit plus
each entry's (head, offset, child trees, weight); for a tree comparison, the
verdict's repr; for a game, whether a witness was found and whether it
replays. Tests reuse `FIXTURES`, the (name, check) pairs.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import partial
from typing import Callable, List, Tuple

from .assign import AssignmentProblem, Infeasible, assignment_solve
from .bigstep import eval_fuel
from .equiv import Apply, HnfState, Lab, TAU, TermState, applicative_compare
from .equiv import refute_bisim, refute_sim, transitions, verify_witness
from .prob import Distr, Dyadic, HALF, ONE, ZERO
from .smallstep import head_step, spine_step, step_n
from .syntax import App, Choice, DELTA, F, HID, I, OMEGA, T, THETA, parse
from .trees import prob_tree, tree_eq

D = Dyadic.parse

M_SELF = parse(r"\x.y (+) x x")  # self-applicator with observable y
MM = App(M_SELF, M_SELF)
M24 = parse(r"\x y z.z (x (+) y)")
N24 = parse(r"\x y z.(z x) (+) (z y)")
M48 = parse(r"\x.x (Omega (+) I)")
N48 = parse(r"\x.(x Omega) (+) (x I)")
THETA_Y = App(THETA, parse(r"\f.y (+) y f"))

DUPLICATED = [(r"\y.T", "1/4"), (r"\y.F", "1/4"), ("I", "1/2")]
FUELS = (0, 1, 2, 8, 16, 32)
REDEX = r"(\x.(\y.x) y) z"
ETA = (("y", r"\z.y z"), ("I", r"\x y.x y"))  # pairs equal by η at every level


def _distr(pairs) -> Distr:
    return Distr([(parse(src), D(p)) for src, p in pairs])


def _bound(res):
    """An `Approx` as its distribution and exactness, which fix its deficit."""
    return res.distr, res.exact


def _tree(pt):
    """A tree as its deficit plus each entry's (head, offset, child trees, weight)."""
    entries = ((vt.head, vt.offset, tuple(map(_tree, vt.args)), w) for vt, w in pt.entries)
    return pt.deficit, tuple(entries)


def _verdict(m, n, level: int, fuel: int) -> str:
    return repr(tree_eq(prob_tree(m, level, fuel), prob_tree(n, level, fuel)))


def _game(m, n, bisim: bool, depth: int, fuel: int, pool):
    """Whether a refutation of m against n is found, whether it replays,
    and the block masses it states."""
    w = (refute_bisim if bisim else refute_sim)(m, n, depth=depth, fuel=fuel, pool=pool)
    if w is None:
        return False, False, []
    replays = verify_witness(TermState(m), TermState(n), w, Lab(fuel=fuel, pool=pool), bisim)
    return True, replays, w.mass_pairs()


def _solve(p, r):
    """An infeasible problem's witness, or whether the solution checks and its shares."""
    problem = AssignmentProblem(p, r)
    out = assignment_solve(problem)
    return out.witness if isinstance(out, Infeasible) else (out.check(problem), out.shares)


CASES: List[Tuple[str, Callable[[], object], Callable[[], object]]] = [
    (
        "eval-duplicator-choice",
        lambda: _bound(eval_fuel(parse("Delta (T (+) F)"), 2)),
        lambda: (_distr(DUPLICATED), True),
    ),
    (
        "eval-omega-divergence",
        lambda: {f: _bound(eval_fuel(OMEGA, f)) for f in FUELS},
        lambda: {f: (Distr(), False) for f in FUELS},
    ),
    ("eval-hidden-half", lambda: eval_fuel(HID, 1).distr, lambda: _distr([("I", "1/2")])),
    (
        "eval-self-application",
        lambda: {n: eval_fuel(MM, n).distr for n in range(1, 13)},
        lambda: {n: Distr([(parse("y"), ONE - Dyadic(1, n))]) for n in range(1, 13)},
    ),
    (
        "eval-separation-pair",
        lambda: [eval_fuel(App(App(App(m, OMEGA), I), DELTA), 5).distr for m in (M24, N24)],
        lambda: [_distr([("I", "1/4")]), _distr([("I", "1/2")])],
    ),
    (
        "eval-context-mass",
        lambda: eval_fuel(parse(r"(\v.(v I Omega) (v I Omega)) (\x y.x (+) y)"), 8).mass,
        lambda: D("1/4"),
    ),
    (
        "small-step-cases",
        lambda: [head_step(parse(src)) for src in ("Omega", "x (+) x", "T (+) F", REDEX)]
        + [spine_step(parse(src)) for src in (REDEX, r"\x.I I")],
        lambda: [((ONE, OMEGA),), ((ONE, parse("x")),), ((HALF, T), (HALF, F))]
        + [((ONE, parse(src)),) for src in (r"(\y.z) y", r"(\x.x) z", r"\x.I")],
    ),
    (
        "small-step-tables",
        lambda: [step_n(Choice(OMEGA, I), 2), step_n(I, 0), step_n(MM, 4)]
        + [step_n(parse("Delta (T (+) F)"), 4), step_n(OMEGA, 16)],
        lambda: [_distr([("I", "1/2")]), _distr([("I", "1")]), _distr([("y", "3/4")])]
        + [_distr(DUPLICATED), Distr()],
    ),
    ("tree-level-1", lambda: _tree(prob_tree(THETA_Y, 1, 8)), lambda: (ZERO, (("y", 0, (), ONE),))),
    # one entry has the explicit child THETA_Y, whose level-1 tree is head y
    # with mass 1; the other keeps the pure η-tail
    (
        "tree-level-2",
        lambda: _tree(prob_tree(THETA_Y, 2, 8)),
        lambda: (ZERO, (("y", -1, ((ZERO, (("y", 0, (), ONE),)),), HALF), ("y", 0, (), HALF))),
    ),
    (
        "tree-eta-pairs",
        lambda: {k: [_verdict(parse(a), parse(b), k, 4) for a, b in ETA] for k in range(1, 5)},
        lambda: {k: ["Equal", "Equal"] for k in range(1, 5)},
    ),
    ("tree-unknown-deficit", lambda: _verdict(MM, parse("y"), 2, 6), lambda: "Unknown(bound=1/64)"),
    (
        "tree-separation",
        lambda: _verdict(M24, N24, 2, 8),
        lambda: "Different(path=[], left=1, right=0)",
    ),
    (
        "markov-transitions",
        lambda: [_bound(transitions(TermState(Choice(T, F)), TAU, 4))]
        + [_bound(transitions(s, Apply(I), 4)) for s in (HnfState(M48), TermState(T))],
        lambda: [(Distr([(HnfState(T), HALF), (HnfState(F), HALF)]), True)]
        + [(Distr([(TermState(App(I, Choice(OMEGA, I))), ONE)]), True), (Distr(), True)],
    ),
    (
        "bisim-refutation",
        lambda: (
            _game(M24, N24, True, 8, 6, (OMEGA, I))[:2],
            _game(I, parse(r"\x y.x y"), True, 8, 6, (OMEGA, I)),
        ),
        lambda: ((True, True), (False, False, [])),
    ),
    (
        "sim-refutation",
        lambda: (_game(M48, N48, False, 6, 6, (I,)), _game(N48, M48, False, 6, 6, (I,))),
        lambda: (
            (True, True, [(ONE, HALF), (ONE, ZERO), (HALF, ZERO)]),
            (True, True, [(HALF, ZERO), (ONE, ZERO), (ONE, HALF)]),
        ),
    ),
    (
        "appcmp-separation",
        lambda: [
            (r.left.mass, r.right.mass, r.verdict)
            for r in applicative_compare(M24, N24, [(OMEGA, I, DELTA)], fuel=8)
        ],
        lambda: [(D("1/4"), D("1/2"), "RightExceeds")],
    ),
    (
        "assignment-solver",
        lambda: (
            _solve([Q(3, 4), Q(1, 2)], {frozenset({1}): Q(1, 2), frozenset({2}): Q(1, 2)}),
            _solve([Q(1, 2), Q(1, 2)], {frozenset({1, 2}): Q(1)}),
        ),
        lambda: (
            frozenset({1}),
            (True, {(1, frozenset({1, 2})): Q(1, 2), (2, frozenset({1, 2})): Q(1, 2)}),
        ),
    ),
]


def check(compute: Callable[[], object], expect: Callable[[], object]) -> Tuple[bool, str]:
    """Compute a row's value and compare it with its expected exact value;
    a crash is a failure, not an abort."""
    try:
        actual, expected = compute(), expect()
    except Exception as exc:
        return False, f"raised {exc!r}"
    return actual == expected, f"expected {expected!r}, got {actual!r}"


FIXTURES = [(name, partial(check, compute, expect)) for name, compute, expect in CASES]


def run_fixtures() -> List[Tuple[str, bool, str]]:
    return [(name, *fn()) for name, fn in FIXTURES]
