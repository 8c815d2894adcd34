"""Worked-example fixtures exercised by the `fixtures` CLI command.

Each fixture replays a hand-checkable computation and compares against
its expected exact value. Tests reuse this registry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Tuple

from .assign import AssignmentProblem, AssignmentSolution, Infeasible, assignment_solve
from .bigstep import eval_fuel
from .equiv import (
    Apply,
    HnfState,
    Lab,
    TAU,
    TermState,
    applicative_compare,
    refute_bisim,
    refute_sim,
    transitions,
    verify_witness,
)
from .prob import Distr, Dyadic, ONE, ZERO
from .smallstep import head_step, spine_step, step_n
from .syntax import (
    App,
    Choice,
    DELTA,
    F,
    HID,
    I,
    OMEGA,
    T,
    THETA,
    parse,
)
from .trees import Different, Equal, Unknown, prob_tree, tree_eq

D = Dyadic.parse

M_SELF = parse(r"\x.y (+) x x")  # self-applicator with observable y
MM = App(M_SELF, M_SELF)
M24 = parse(r"\x y z.z (x (+) y)")
N24 = parse(r"\x y z.(z x) (+) (z y)")
M48 = parse(r"\x.x (Omega (+) I)")
N48 = parse(r"\x.(x Omega) (+) (x I)")
THETA_Y = App(THETA, parse(r"\f.y (+) y f"))


def _distr(pairs) -> Distr:
    return Distr([(parse(src), D(p)) for src, p in pairs])


def _check(actual, expected) -> Tuple[bool, str]:
    return actual == expected, f"expected {expected!r}, got {actual!r}"


def fx_eval_duplicator() -> Tuple[bool, str]:
    expected = _distr([(r"\y.T", "1/4"), (r"\y.F", "1/4"), ("I", "1/2")])
    res = eval_fuel(parse("Delta (T (+) F)"), 2)
    ok = res.distr == expected and res.deficit == ZERO
    return ok, f"got {res!r}"


def fx_eval_omega() -> Tuple[bool, str]:
    for fuel in (0, 1, 2, 8, 16, 32):
        res = eval_fuel(OMEGA, fuel)
        if res.distr or res.deficit != ONE:
            return False, f"fuel {fuel} gave {res!r}"
    return True, "bottom at all tested fuels"


def fx_eval_hidden() -> Tuple[bool, str]:
    res = eval_fuel(HID, 1)
    return _check(res.distr, _distr([("I", "1/2")]))


def fx_eval_self_application() -> Tuple[bool, str]:
    for n in range(1, 13):
        res = eval_fuel(MM, n)
        expected = Distr([(parse("y"), ONE - Dyadic(1, n))])
        if res.distr != expected:
            return False, f"fuel {n} gave {res!r}"
    return True, "mass 1-2^-n for n in 1..12"


def fx_eval_separation_pair() -> Tuple[bool, str]:
    left = eval_fuel(App(App(App(M24, OMEGA), I), DELTA), 5)
    right = eval_fuel(App(App(App(N24, OMEGA), I), DELTA), 5)
    ok = left.distr == _distr([("I", "1/4")]) and right.distr == _distr([("I", "1/2")])
    return ok, f"got {left!r} and {right!r}"


def fx_eval_context_mass() -> Tuple[bool, str]:
    ctx_body = parse(r"\v.(v I Omega) (v I Omega)")
    hole = parse(r"\x y.x (+) y")
    return _check(eval_fuel(App(ctx_body, hole), 8).mass, D("1/4"))


def fx_head_steps() -> Tuple[bool, str]:
    x = parse("x")
    cases = [
        (head_step(OMEGA), ((ONE, OMEGA),)),
        (head_step(Choice(x, x)), ((ONE, x),)),
        (head_step(Choice(T, F)), ((Dyadic(1, 1), T), (Dyadic(1, 1), F))),
        (head_step(parse(r"(\x.(\y.x) y) z")), ((ONE, parse(r"(\y.z) y")),)),
        (spine_step(parse(r"(\x.(\y.x) y) z")), ((ONE, parse(r"(\x.x) z")),)),
        (spine_step(parse(r"\x.I I")), ((ONE, parse(r"\x.I")),)),
    ]
    for i, (actual, expected) in enumerate(cases):
        if actual != expected:
            return False, f"case {i}: got {actual!r}"
    return True, "all step cases match"


def fx_step_tables() -> Tuple[bool, str]:
    cases = [
        (step_n(Choice(OMEGA, I), 2), _distr([("I", "1/2")])),
        (step_n(I, 0), _distr([("I", "1")])),
        (step_n(MM, 4), Distr([(parse("y"), D("3/4"))])),
        (
            step_n(parse("Delta (T (+) F)"), 4),
            _distr([(r"\y.T", "1/4"), (r"\y.F", "1/4"), ("I", "1/2")]),
        ),
        (step_n(OMEGA, 16), Distr()),
    ]
    for i, (actual, expected) in enumerate(cases):
        if actual != expected:
            return False, f"case {i}: got {actual!r}"
    return True, "step tables match"


def fx_tree_level1() -> Tuple[bool, str]:
    pt = prob_tree(THETA_Y, 1, 8)
    if pt.deficit != ZERO or len(pt.entries) != 1:
        return False, f"got {pt!r}"
    vt, w = pt.entries[0]
    ok = w == ONE and vt.head == "y" and vt.args == ()
    return ok, f"got head {vt.head} weight {w}"


def fx_tree_level2() -> Tuple[bool, str]:
    pt = prob_tree(THETA_Y, 2, 8)
    if pt.deficit != ZERO or len(pt.entries) != 2:
        return False, f"got {pt!r}"
    half = Dyadic(1, 1)
    heads = sorted((vt.head, len(vt.args), w) for vt, w in pt.entries)
    ok = all(w == half for _, _, w in heads) and [h for h, _, _ in heads] == ["y", "y"]
    # one tree keeps the pure η-tail (no explicit child), the other has the
    # single explicit child whose level-1 distribution is head y, mass 1
    by_args = sorted(pt.entries, key=lambda kv: len(kv[0].args))
    plain, applied = by_args[0][0], by_args[1][0]
    ok = ok and plain.args == () and plain.offset == 0
    ok = ok and len(applied.args) == 1 and applied.offset == -1
    child = applied.args[0]
    ok = ok and len(child.entries) == 1 and child.entries[0][0].head == "y"
    ok = ok and child.entries[0][1] == ONE and child.deficit == ZERO
    # the two entries, each value tree shown with the level its tree holds
    shown = ", ".join(
        f"(VT(l{pt.level} {vt.head} d{vt.offset} args{len(vt.args)}), {w!r})" for vt, w in pt.entries
    )
    return ok, f"got ({shown})"


def fx_tree_eta_pairs() -> Tuple[bool, str]:
    for lvl in range(1, 5):
        v1 = tree_eq(prob_tree(parse("y"), lvl, 4), prob_tree(parse(r"\z.y z"), lvl, 4))
        v2 = tree_eq(prob_tree(I, lvl, 4), prob_tree(parse(r"\x y.x y"), lvl, 4))
        if not (isinstance(v1, Equal) and isinstance(v2, Equal)):
            return False, f"level {lvl}: {v1!r}, {v2!r}"
    return True, "η-pairs equal at levels 1..4"


def fx_tree_unknown() -> Tuple[bool, str]:
    v = tree_eq(prob_tree(MM, 2, 6), prob_tree(parse("y"), 2, 6))
    ok = isinstance(v, Unknown) and v.bound == Dyadic(1, 6)
    return ok, f"got {v!r}"


def fx_tree_separation() -> Tuple[bool, str]:
    v = tree_eq(prob_tree(M24, 2, 8), prob_tree(N24, 2, 8))
    return isinstance(v, Different), f"got {v!r}"


def fx_transitions() -> Tuple[bool, str]:
    res = transitions(TermState(Choice(T, F)), TAU, 4)
    half = Dyadic(1, 1)
    expected = Distr([(HnfState(T.body), half), (HnfState(F.body), half)])
    if res.distr != expected or not res.exact:
        return False, f"got {res.distr!r}"
    hs = HnfState(parse(r"\x.x (Omega (+) I)").body)
    res2 = transitions(hs, Apply(I), 4)
    expected2 = Distr([(TermState(App(I, Choice(OMEGA, I))), ONE)])
    if res2.distr != expected2:
        return False, f"got {res2.distr!r}"
    res3 = transitions(TermState(T), Apply(I), 4)
    return (not res3.distr and res3.exact), f"got {res3.distr!r}"


def fx_bisim_refutation() -> Tuple[bool, str]:
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    if w is None:
        return False, "no witness found"
    lab = Lab(fuel=6, pool=(OMEGA, I))
    m, n = TermState(M24), TermState(N24)
    if not verify_witness(m, n, w, lab, bisim=True):
        return False, "witness replay failed"
    none = refute_bisim(I, parse(r"\x y.x y"), depth=8, fuel=6, pool=(OMEGA, I))
    return none is None, f"η-pair gave {none!r}"


def fx_sim_refutation() -> Tuple[bool, str]:
    w1 = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    w2 = refute_sim(N48, M48, depth=6, fuel=6, pool=(I,))
    if w1 is None or w2 is None:
        return False, f"got {w1!r}, {w2!r}"
    lab = Lab(fuel=6, pool=(I,))
    ok1 = verify_witness(TermState(M48), TermState(N48), w1, lab, bisim=False)
    ok2 = verify_witness(TermState(N48), TermState(M48), w2, lab, bisim=False)
    pairs = {(str(l), str(r)) for l, r in w1.mass_pairs() + w2.mass_pairs()}
    expected = {("1", "1/2"), ("1/2", "0")}
    return ok1 and ok2 and expected <= pairs, f"mass pairs {sorted(pairs)}"


def fx_appcmp_separation() -> Tuple[bool, str]:
    reports = applicative_compare(M24, N24, [(OMEGA, I, DELTA)], fuel=8)
    r = reports[0]
    ok = (
        r.left.mass == D("1/4")
        and r.right.mass == D("1/2")
        and r.verdict == "RightExceeds"
    )
    return ok, f"got {r!r}"


def fx_assignment() -> Tuple[bool, str]:
    bad = AssignmentProblem(
        [Fraction(3, 4), Fraction(1, 2)],
        {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)},
    )
    verdict = assignment_solve(bad)
    if not isinstance(verdict, Infeasible) or verdict.witness != frozenset({1}):
        return False, f"got {verdict!r}"
    good = AssignmentProblem(
        [Fraction(1, 2), Fraction(1, 2)], {frozenset({1, 2}): Fraction(1)}
    )
    sol = assignment_solve(good)
    ok = isinstance(sol, AssignmentSolution) and sol.check(good)
    ok = ok and sol.share(1, {1, 2}) == Fraction(1, 2)
    ok = ok and sol.share(2, {1, 2}) == Fraction(1, 2)
    return ok, f"got {getattr(sol, 'shares', sol)!r}"


FIXTURES: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("eval-duplicator-choice", fx_eval_duplicator),
    ("eval-omega-divergence", fx_eval_omega),
    ("eval-hidden-half", fx_eval_hidden),
    ("eval-self-application", fx_eval_self_application),
    ("eval-separation-pair", fx_eval_separation_pair),
    ("eval-context-mass", fx_eval_context_mass),
    ("small-step-cases", fx_head_steps),
    ("small-step-tables", fx_step_tables),
    ("tree-level-1", fx_tree_level1),
    ("tree-level-2", fx_tree_level2),
    ("tree-eta-pairs", fx_tree_eta_pairs),
    ("tree-unknown-deficit", fx_tree_unknown),
    ("tree-separation", fx_tree_separation),
    ("markov-transitions", fx_transitions),
    ("bisim-refutation", fx_bisim_refutation),
    ("sim-refutation", fx_sim_refutation),
    ("appcmp-separation", fx_appcmp_separation),
    ("assignment-solver", fx_assignment),
]


def run_fixtures() -> List[Tuple[str, bool, str]]:
    out = []
    for name, fn in FIXTURES:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {exc!r}"
        out.append((name, ok, detail))
    return out
