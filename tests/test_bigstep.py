import gc
import tracemalloc

import pytest

import oracles
from plam import prob, syntax
from plam.bigstep import eval_fuel
from plam.prob import Distr, Dyadic, ONE, ZERO, point
from plam.syntax import App, Choice, Lam, OMEGA, parse
from plam.trees import prob_tree

D = Dyadic.parse


def test_variable_is_immediate():
    res = eval_fuel(parse("y"), 0)
    assert res.distr == point(parse("y"))
    assert res.deficit == ZERO


def test_abstraction_wraps_body():
    res = eval_fuel(parse(r"\x.I I"), 1)
    assert res.distr == point(parse(r"\x.I"))


def test_choice_is_fair_and_fuel_free():
    res = eval_fuel(parse("a (+) b"), 0)
    assert res.distr == Distr([(parse("a"), D("1/2")), (parse("b"), D("1/2"))])


def test_choice_of_equal_branches_keeps_full_mass():
    res = eval_fuel(parse("a (+) a"), 0)
    assert res.distr == point(parse("a"))


def test_beta_costs_one_fuel():
    t = parse("I a")
    assert eval_fuel(t, 0).distr == Distr()
    assert eval_fuel(t, 1).distr == point(parse("a"))


def test_neutral_head_passes_arguments_through():
    res = eval_fuel(parse("y (I a)"), 8)
    # the argument is not evaluated under a neutral head
    assert res.distr == point(parse("y (I a)"))


def test_duplicator_example():
    expected = Distr(
        [(parse(r"\y.T"), D("1/4")), (parse(r"\y.F"), D("1/4")), (parse("I"), D("1/2"))]
    )
    for fuel in (2, 3, 8):
        assert eval_fuel(parse("Delta (T (+) F)"), fuel).distr == expected


def test_full_mass_bound_is_exact():
    # a lower bound of mass 1 is the limit itself
    res = eval_fuel(parse("Delta (T (+) F)"), 2)
    assert res.exact and res.deficit == ZERO
    assert not eval_fuel(parse("Delta (T (+) F)"), 1).exact


def test_evaluation_retains_no_memory_between_calls():
    # twenty distinct branching walks: a memo that outlives its call keeps
    # every intermediate distribution of every one of them alive
    walk = r"Theta (\f x.x (+) (f (a{0} x) (+) f (b{0} x))) z"
    for run in (lambda t: eval_fuel(t, 10).distr, lambda t: prob_tree(t, 4, 10).entries):
        terms = [parse(walk.format(i)) for i in range(21)]
        run(terms.pop())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in terms:
                assert run(t)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * 1024


WALK = parse(r"Theta (\f x. x (+) f (s x)) z")
BRANCHING_WALK = parse(r"Theta (\f x. x (+) (f (a x) (+) f (b x))) z")


def _distr_builds(monkeypatch, run):
    count = [0]
    init = prob.Distr.__init__

    def counted(self, pairs=()):
        count[0] += 1
        init(self, pairs)

    with monkeypatch.context() as m:
        m.setattr(prob.Distr, "__init__", counted)
        run()
    return count[0]


def test_results_that_never_gave_up_are_reused_across_fuels(monkeypatch):
    # a walk result is the same at every fuel above the one it needed, so
    # each subterm is evaluated about once, not once per fuel
    assert _distr_builds(monkeypatch, lambda: eval_fuel(WALK, 64)) <= 300


def test_one_tree_build_shares_its_evaluation_tables(monkeypatch):
    def run():
        return prob_tree(BRANCHING_WALK, 6, 14)

    first = _distr_builds(monkeypatch, run)
    assert first <= 1100
    # tables live for one call: an identical call does the same work
    assert _distr_builds(monkeypatch, run) == first > 0


def test_evaluation_builds_one_distr_per_distinct_result(monkeypatch):
    # weights stay integer numerators until the public result is built
    assert _distr_builds(monkeypatch, lambda: eval_fuel(WALK, 64)) == 1
    # one tree build turns each distinct child result into a Distr once
    assert _distr_builds(monkeypatch, lambda: prob_tree(BRANCHING_WALK, 6, 14)) <= 894


def _substitution_work(monkeypatch, run):
    """`reindex` calls and Lam/App/Choice nodes built during `run()`."""
    count = {"reindex": 0, "nodes": 0}
    reindex = syntax.reindex

    def counted(*args):
        count["reindex"] += 1
        return reindex(*args)

    with monkeypatch.context() as m:
        m.setattr(syntax, "reindex", counted)
        for cls in (Lam, App, Choice):
            def built(self, *args, _init=cls.__init__):
                count["nodes"] += 1
                _init(self, *args)

            m.setattr(cls, "__init__", built)
        run()
    return count["reindex"], count["nodes"]


def test_walk_substitutes_each_open_subterm_once_per_argument(monkeypatch):
    # the walk's results hold s^k x under a binder at every fuel; one
    # substitution table per call rewrites s^(k+1) x over the stored s^k x,
    # so the work grows with the fuel, not with its square
    work = [_substitution_work(monkeypatch, lambda: eval_fuel(WALK, f)) for f in (64, 128, 256)]
    for small, large in zip(work, work[1:]):
        for a, b in zip(small, large):
            assert 0 < a and b <= 2.3 * a


@pytest.mark.parametrize(
    "src",
    [
        r"((\x.x) (y (+) z) (+) (y (+) z)) (+) (y (+) z)",
        r"(\x.x) (\x.x) (y (+) z) (+) ((\x.x) (y (+) z) (+) (y (+) z))",
        r"(\f.f (f y)) (\x.x (+) z)",
    ],
)
def test_a_shared_result_is_never_changed_by_later_sums(src):
    # `y (+) z` is one memo entry, reached bare, under an identity and in
    # sums with itself; a sum that wrote into it would skew the later ones
    t = parse(src)
    for fuel in range(5):
        assert eval_fuel(t, fuel).distr == oracles.eval_fuel(t, fuel)


@pytest.mark.parametrize("src", [r"Delta I (+) I (Delta I)", r"I (Delta I) (+) Delta I"])
def test_a_result_is_reused_only_from_the_fuel_it_needs(src):
    # `Delta I` is reached at fuel 2 and, under `I`, at fuel 1; it needs 2,
    # so only the bare side reaches I, whichever side comes first
    t = parse(src)
    res = eval_fuel(t, 2)
    assert res.distr == oracles.eval_fuel(t, 2) == Distr([(parse("I"), D("1/2"))])
    assert eval_fuel(parse("Delta I"), 1).distr == Distr()


def test_omega_diverges():
    for fuel in (0, 1, 5, 32):
        res = eval_fuel(OMEGA, fuel)
        assert not res.distr and res.deficit == ONE


def test_hidden_half():
    assert eval_fuel(parse("Omega (+) I"), 4).distr == Distr([(parse("I"), D("1/2"))])


def test_self_application_mass():
    m = parse(r"\x.y (+) x x")
    mm = App(m, m)
    for n in range(0, 13):
        assert eval_fuel(mm, n).mass == ONE - Dyadic(1, n)


def test_fuel_monotone_on_examples():
    for src in ("Delta (T (+) F)", "Omega (+) I", r"(\x.y (+) x x) (\x.y (+) x x)"):
        t = parse(src)
        for f in range(6):
            assert eval_fuel(t, f).distr.leq(eval_fuel(t, f + 1).distr)


def test_negative_fuel_rejected():
    with pytest.raises(ValueError):
        eval_fuel(parse("I"), -1)


def test_non_integer_fuel_rejected():
    # a fuel of 2.5 never reaches the give-up rule at 0
    with pytest.raises(TypeError, match="fuel must be an int"):
        eval_fuel(OMEGA, 2.5)


def test_hnf_fixed_point():
    for src in (r"\x.x", "y", r"\x y.x (I I)", "y Omega"):
        h = parse(src)
        for f in (0, 1, 4):
            assert eval_fuel(h, f).distr == point(h)


def test_beta_invariance_for_hnf_bodies():
    # evaluating (\x.H) N at fuel f+1 dominates evaluating H[N/x] at fuel f
    cases = [
        (r"\x.x x", "I"),
        (r"\x.x (+) y", "T (+) F"),
        (r"\x.y x", "Omega"),
    ]
    for fun_src, arg_src in cases:
        fun, arg = parse(fun_src), parse(arg_src)
        from plam.syntax import substitute

        for f in range(4):
            lhs = eval_fuel(App(fun, arg), f + 1).distr
            rhs = eval_fuel(substitute(fun.body, arg), f).distr
            assert rhs.leq(lhs)
