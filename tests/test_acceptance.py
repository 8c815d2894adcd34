"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run pytest with -s or -rP to see the lines for passing tests).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from plam.assign import (
    AssignmentProblem,
    AssignmentSolution,
    Infeasible,
    assignment_solve,
)
from plam.bigstep import eval_fuel
from plam.equiv import (
    Lab,
    TermState,
    applicative_compare,
    refute_bisim,
    refute_sim,
    verify_witness,
)
from plam.fixtures import FIXTURES, M24, M48, N24, N48
from plam.prob import Distr, Dyadic, ONE, ZERO, point
from plam.smallstep import head_step, spine_step, step_n
from plam.syntax import (
    App,
    Choice,
    DELTA,
    I,
    Lam,
    OMEGA,
    is_hnf,
    parse,
    pretty,
    substitute,
)
from plam.trees import Equal, prob_tree, tree_eq

from oracles import trace_table

D = Dyadic.parse


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} acceptance: {name}")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("name, check", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_worked_example_fixture(name, check):
    ok, detail = check()
    report(name, ok, detail)


def test_c01_duplicator_exact_distribution():
    expected = Distr(
        [(parse(r"\y.T"), D("1/4")), (parse(r"\y.F"), D("1/4")), (I, D("1/2"))]
    )
    start = time.monotonic()
    ok = all(
        eval_fuel(parse("Delta (T (+) F)"), fuel).distr == expected
        for fuel in (2, 3, 8)
    )
    elapsed = time.monotonic() - start
    report("duplicator evaluates exactly", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_c02_divergence_and_hidden_mass():
    ok = all(
        not eval_fuel(OMEGA, fuel).distr and eval_fuel(OMEGA, fuel).deficit == ONE
        for fuel in (0, 1, 2, 4, 8, 16, 32)
    )
    ok = ok and eval_fuel(parse("Omega (+) I"), 4).distr == Distr([(I, D("1/2"))])
    report("divergence and half-hidden choice", ok)


def test_c04_separation_pair_and_mass_comparison():
    left = eval_fuel(App(App(App(M24, OMEGA), I), DELTA), 5).distr
    right = eval_fuel(App(App(App(N24, OMEGA), I), DELTA), 5).distr
    ok = left == Distr([(I, D("1/4"))]) and right == Distr([(I, D("1/2"))])
    ok = ok and eval_fuel(App(App(App(M24, OMEGA), I), DELTA), 8).distr == left
    r = applicative_compare(M24, N24, [(OMEGA, I, DELTA)], fuel=8)[0]
    ok = ok and r.verdict == "RightExceeds"
    ok = ok and r.left.mass == D("1/4") and r.right.mass == D("1/2")
    report("quarter vs half separation pair", ok, repr(r))


def test_c05_strategy_equality_on_corpus(corpus):
    start = time.monotonic()
    bad = [
        t
        for t in corpus
        for n in range(9)
        if step_n(t, n, "head") != trace_table(t, n, "spine")
    ]
    elapsed = time.monotonic() - start
    report(
        "head and spine step tables agree on corpus",
        not bad and elapsed < 60.0,
        f"{len(bad)} mismatches, {elapsed:.1f}s",
    )


def test_c06_approximation_sandwich(corpus):
    bad = []
    for t in corpus:
        ev = eval_fuel(t, 8).distr
        st = step_n(t, 24, "head")
        if not ev.leq(st) or not st.leq(ev):
            bad.append(t)
    report("fuel and step approximants sandwich", not bad, f"{len(bad)} failures")


def test_c07_beta_step_alignment(corpus):
    rng = random.Random(424242)
    lams = [t for t in corpus if isinstance(t, Lam)]
    checked = 0
    ok = True
    while checked < 200 and ok:
        fun = rng.choice(lams)
        arg = rng.choice(corpus)
        contracted = substitute(fun.body, arg)
        for k in range(9):
            if step_n(App(fun, arg), k + 1, "head") != step_n(contracted, k, "head"):
                ok = False
                break
        checked += 1
    report("beta step shifts the convergence table", ok and checked == 200)


def test_c08_evaluation_identities(corpus):
    half = Dyadic(1, 1)
    ok = True
    hnfs = [t for t in corpus if is_hnf(t)]
    for f in range(7):
        for t in corpus:
            if eval_fuel(Lam(t), f).distr != eval_fuel(t, f).distr.map_support(Lam):
                ok = False
        for a, b in zip(corpus[::2], corpus[1::2]):
            lhs = eval_fuel(Choice(a, b), f).distr
            da, db = eval_fuel(a, f).distr, eval_fuel(b, f).distr
            if set(lhs.support()) != set(da.support()) | set(db.support()):
                ok = False
            if any(lhs.weight(h) != (da.weight(h) + db.weight(h)) * half for h in lhs.support()):
                ok = False
        for h in hnfs:
            if eval_fuel(h, f).distr != point(h):
                ok = False
    report("abstraction, sum, and hnf identities", ok)


def test_c10_eta_suite_and_level_monotonicity(corpus):
    ok = all(
        isinstance(
            tree_eq(prob_tree(a, lvl, 4), prob_tree(b, lvl, 4)), Equal
        )
        for lvl in range(1, 5)
        for a, b in ((parse("y"), parse(r"\z.y z")), (I, parse(r"\x y.x y")))
    )
    cache = {}

    def pt(t, lvl):
        if (t, lvl) not in cache:
            cache[(t, lvl)] = prob_tree(t, lvl, 5)
        return cache[(t, lvl)]

    for a, b in zip(corpus[::2], corpus[1::2]):
        verdicts = {lvl: tree_eq(pt(a, lvl), pt(b, lvl)) for lvl in range(1, 5)}
        for lvl in range(2, 5):
            if isinstance(verdicts[lvl], Equal):
                if not all(isinstance(verdicts[k], Equal) for k in range(1, lvl)):
                    ok = False
    report("eta pairs equal and equality is level-monotone", ok)


def test_c11_similarity_refutation_and_mass_comparison():
    w1 = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    w2 = refute_sim(N48, M48, depth=6, fuel=6, pool=(I,))
    ok = w1 is not None and w2 is not None
    if ok:
        lab = Lab(fuel=6, pool=(I,))
        ok = verify_witness(TermState(M48), TermState(N48), w1, lab, bisim=False)
        ok = ok and verify_witness(TermState(N48), TermState(M48), w2, lab, bisim=False)
        pairs = {(str(l), str(r)) for l, r in w1.mass_pairs() + w2.mass_pairs()}
        ok = ok and {("1", "1/2"), ("1/2", "0")} <= pairs
    pool = (I, OMEGA, DELTA)
    seqs = [()]
    frontier = [()]
    for _ in range(3):
        frontier = [s + (p,) for s in frontier for p in pool]
        seqs.extend(frontier)
    reports = applicative_compare(M48, N48, seqs, fuel=8)
    ok = ok and len(reports) == 40
    ok = ok and all(r.verdict != "LeftExceeds" for r in reports)
    report("similarity refuted both ways, mass never exceeds", ok)


def _random_feasible_instance(rng, n):
    items = list(range(1, n + 1))
    budget = Fraction(1)
    r = {}
    for _ in range(rng.randint(1, 3)):
        subset = frozenset(rng.sample(items, rng.randint(1, n)))
        value = Fraction(rng.randint(0, 4), 4)
        if value == 0 or value > budget:
            continue
        budget -= value
        r[subset] = r.get(subset, Fraction(0)) + value
    p = [Fraction(0)] * n
    for subset, value in r.items():
        remaining = Fraction(1)
        for k in sorted(subset):
            share = min(Fraction(rng.randint(0, 4), 4), remaining)
            remaining -= share
            p[k - 1] += share * value
    for i in range(n):
        p[i] = max(Fraction(0), p[i] - rng.randint(0, 2) * Fraction(1, 16))
    return p, r


def _oracle_feasible(p, r):
    n = len(p)
    for k in range(1, n + 1):
        for chosen in itertools.combinations(range(1, n + 1), k):
            chosen = frozenset(chosen)
            if sum(p[i - 1] for i in chosen) > sum(
                v for s, v in r.items() if s & chosen
            ):
                return False
    return True


def test_c13_assignment_solver():
    rng = random.Random(2468)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 6)
        p, r = _random_feasible_instance(rng, n)
        sol = assignment_solve(AssignmentProblem(p, r))
        if not (isinstance(sol, AssignmentSolution) and sol.check(AssignmentProblem(p, r))):
            ok = False
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    all_subsets = [
        frozenset(s)
        for k in (1, 2, 3)
        for s in itertools.combinations((1, 2, 3), k)
    ]
    for p in itertools.product(grid, repeat=3):
        for values in itertools.product([Fraction(0), Fraction(1, 2)], repeat=7):
            r = {s: v for s, v in zip(all_subsets, values) if v}
            prob = AssignmentProblem(list(p), dict(r))
            feasible = isinstance(assignment_solve(prob), AssignmentSolution)
            if feasible != _oracle_feasible(list(p), r):
                ok = False
            result = assignment_solve(prob)
            if feasible != isinstance(result, AssignmentSolution):
                ok = False
            elif feasible and not result.check(prob):
                ok = False
    report("assignment solutions verified, grid agrees with oracle", ok)


def test_c14_property_suite(corpus, small_corpus):
    cases = 0
    ok = True
    for t in corpus:
        if parse(pretty(t)) != t:
            ok = False
        cases += 1
        for step in (head_step, spine_step):
            total = sum((p for p, _ in step(t)), ZERO)
            if total != ONE:
                ok = False
            cases += 1
        for f in range(3):
            if not eval_fuel(t, f).distr.leq(eval_fuel(t, f + 1).distr):
                ok = False
            cases += 1
    witnesses = 0
    pairs = list(zip(small_corpus[::2], small_corpus[1::2]))
    for a, b in pairs[:40]:
        for refute, bisim in ((refute_bisim, True), (refute_sim, False)):
            w = refute(a, b, depth=3, fuel=4, pool=(I,))
            cases += 1
            if w is not None:
                lab = Lab(fuel=4, pool=(I,))
                if not verify_witness(TermState(a), TermState(b), w, lab, bisim=bisim):
                    ok = False
                witnesses += 1
    report(
        "property suite",
        ok and cases >= 1000,
        f"{cases} cases, {witnesses} replayed certificates",
    )
