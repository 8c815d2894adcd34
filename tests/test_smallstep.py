import gc
import tracemalloc

import pytest

from plam import bigstep, smallstep
from plam.bigstep import eval_fuel
from plam.prob import Distr, Dyadic, ONE
from plam.smallstep import (
    ResourceCapExceeded,
    converge,
    head_step,
    spine_step,
    step_n,
    trace_tree,
)
from plam.syntax import App, Choice, Lam, OMEGA, is_hnf, parse

from oracles import commute_witness

D = Dyadic.parse
HALF = Dyadic(1, 1)


def test_hnf_self_loops():
    for src in (r"\x.x", "y", r"\x.x Omega"):
        t = parse(src)
        assert head_step(t) == ((ONE, t),)
        assert spine_step(t) == ((ONE, t),)


def test_head_beta_step():
    t = parse(r"(\x.x x) I")
    assert head_step(t) == ((ONE, parse("I I")),)


def test_head_choice_step():
    out = head_step(parse("a (+) b"))
    assert out == ((HALF, parse("a")), (HALF, parse("b")))


def test_choice_alpha_collapse():
    out = head_step(Choice(parse(r"\x.x"), parse(r"\y.y")))
    assert out == ((ONE, parse("I")),)


def test_strategies_differ_on_stacked_redex():
    t = parse(r"(\x.(\y.x) y) z")
    assert head_step(t) == ((ONE, parse(r"(\y.z) y")),)
    assert spine_step(t) == ((ONE, parse(r"(\x.x) z")),)


def test_spine_reduces_under_binder():
    assert spine_step(parse(r"\x.I I")) == ((ONE, parse(r"\x.I")),)


def test_probabilities_sum_to_one():
    for src in ("Omega", "a (+) b", r"(\x.x (+) y) z", r"\x.(a (+) b) x"):
        for step in (head_step, spine_step):
            out = step(parse(src))
            total = sum((p for p, _ in out), Dyadic(0))
            assert total == ONE
            assert all(p > Dyadic(0) for p, _ in out)


def test_step_n_cumulative():
    t = Choice(OMEGA, parse("I"))
    assert step_n(t, 0) == Distr()
    assert step_n(t, 1).weight(parse("I")) == HALF
    # absorbing: the mass stays there forever
    assert step_n(t, 10).weight(parse("I")) == HALF


def test_step_n_on_hnf():
    assert step_n(parse("I"), 0) == Distr([(parse("I"), ONE)])


def test_step_n_self_application():
    m = parse(r"\x.y (+) x x")
    mm = App(m, m)
    assert step_n(mm, 4) == Distr([(parse("y"), D("3/4"))])


def test_h_inf_lower_matches_eval_limit():
    expected = Distr(
        [(parse(r"\y.T"), D("1/4")), (parse(r"\y.F"), D("1/4")), (parse("I"), D("1/2"))]
    )
    assert step_n(parse("Delta (T (+) F)"), 6, "head") == expected


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        step_n(parse("I"), 1, "leftmost")


@pytest.mark.parametrize("entry", (step_n, converge, trace_tree))
def test_negative_steps_rejected(entry):
    with pytest.raises(ValueError, match="steps must be non-negative"):
        entry(parse("I I"), -3)


@pytest.mark.parametrize("entry", (step_n, converge, trace_tree))
def test_non_integer_steps_rejected(entry):
    # a trace to depth 2.5 would expand three levels
    with pytest.raises(TypeError, match="steps must be an int"):
        entry(parse("a (+) b"), 2.5)


@pytest.mark.parametrize("entry", (step_n, converge, trace_tree))
def test_negative_cap_rejected(entry):
    with pytest.raises(ValueError, match="cap must be non-negative"):
        entry(parse("I I"), 3, cap=-1)


@pytest.mark.parametrize("entry", (step_n, converge, trace_tree))
@pytest.mark.parametrize("cap", (None, "3", 2.5, True))
def test_non_integer_cap_rejected(entry, cap):
    with pytest.raises(TypeError, match="cap must be an int"):
        entry(parse("I I"), 3, cap=cap)


@pytest.mark.parametrize(
    "entry",
    (
        lambda t: step_n(t, 3),
        lambda t: converge(t, 3),
        lambda t: trace_tree(t, 3),
        head_step,
        spine_step,
    ),
    ids=("step_n", "converge", "trace_tree", "head_step", "spine_step"),
)
@pytest.mark.parametrize("junk", (3, "x", None))
def test_non_terms_rejected(entry, junk):
    # anything else would be taken for an hnf and certified at mass 1
    with pytest.raises(TypeError, match="term must be a Term"):
        entry(junk)


def test_cap_enforced():
    # a term that doubles its live states every step
    t = parse(r"(\x.(x (+) a) (+) (x (+) b)) c")
    with pytest.raises(ResourceCapExceeded):
        step_n(t, 8, cap=2)


def test_converge_certifies_divergence():
    res = converge(OMEGA, 4)
    assert res.distr == Distr() and res.exact
    assert res.upper_mass == Dyadic(0)


def test_certified_bound_leaves_no_deficit():
    # nothing may still arrive once the bound is certified, whatever its mass
    for t, mass in ((OMEGA, Dyadic(0)), (Choice(OMEGA, parse("I")), HALF)):
        res = converge(t, 4)
        assert res.exact and res.mass == mass and res.distr.deficit == ONE - mass
        assert res.deficit == Dyadic(0)
        assert res.upper(()) == Dyadic(0) and res.upper_mass == mass


def test_converge_stops_at_the_fixed_point(monkeypatch):
    calls = []
    successor = smallstep._successor

    def counting(s, *rest):
        calls.append(s)
        return successor(s, *rest)

    monkeypatch.setattr(smallstep, "_successor", counting)
    res = converge(OMEGA, 48)
    assert res.distr == Distr() and res.exact
    # one step parks Omega, its own one successor; nothing is live then,
    # so the chain ends and no closure runs
    assert 1 <= len(calls) <= 2


def _successor_calls(monkeypatch, run):
    calls = [0]
    successor = smallstep._successor

    def counting(*args):
        calls[0] += 1
        return successor(*args)

    with monkeypatch.context() as m:
        m.setattr(smallstep, "_successor", counting)
        out = run()
    return out, calls[0]


def test_converge_skips_the_closure_after_a_fixed_point(monkeypatch):
    # step 1 splits, step 2 parks Omega and Omega I, each its own one
    # successor: nothing is live then, so the closure never runs
    res, calls = _successor_calls(monkeypatch, lambda: converge(parse("Omega (+) Omega I"), 48))
    assert res.exact and res.mass == Dyadic(0)
    assert calls == 3


def test_step_n_stops_at_the_fixed_point_after_a_split(monkeypatch):
    # both branches park at step 2, and parking ends the chain long before
    # its budget
    out, calls = _successor_calls(monkeypatch, lambda: step_n(parse("Omega (+) Omega I"), 10**7))
    assert out == Distr() and calls <= 3


@pytest.mark.parametrize("src", ("I Omega (+) Omega", "Omega (+) I Omega"))
def test_a_state_reached_in_the_round_it_parks_stays_parked(monkeypatch, src):
    # step 2 takes I Omega onto Omega while Omega parks, once before and
    # once after Omega's own step: neither order may leave Omega live
    t = parse(src)
    for n in range(11):
        assert step_n(t, n) == Distr()
    res = converge(t, 8)
    assert res.exact and res.mass == Dyadic(0)
    _, calls = _successor_calls(monkeypatch, lambda: step_n(t, 10))
    assert calls == 3
    with pytest.raises(ResourceCapExceeded):
        step_n(t, 10, cap=1)
    assert step_n(t, 10, cap=2) == Distr()


def test_weights_grow_with_the_steps_run_not_the_budget(monkeypatch):
    # a denominator of 2^budget would take seconds to build here
    res, calls = _successor_calls(monkeypatch, lambda: converge(parse(r"(\x.x) (\x.x)"), 10**7))
    assert res.exact and res.distr == Distr([(parse("I"), ONE)])
    assert calls == 1


def test_numerators_stay_small_on_a_chain_of_beta_steps(monkeypatch):
    # a deterministic 2-cycle: no step takes a choice, so the shared
    # exponent never rises and no numerator grows with the steps run; a
    # numerator only ever grows, so the live ones left at the budget bound
    # those of every step
    t = parse(r"(\x. (\y. x x) I) (\x. (\y. x x) I)")
    (absorbed, live, _), calls = _successor_calls(
        monkeypatch, lambda: smallstep._chain(t, smallstep._NO_ARGS, 100_000, 512, {})
    )
    assert absorbed == {0: {}}
    assert calls == 100_000
    assert max(w for states in live.values() for w in states.values()) < 2


def test_a_cycle_whose_weights_repeat_runs_to_the_budget():
    # A (+) (\y. A) I for the 2-cycle A: from the second step on, every
    # step maps the live states and their weights onto themselves, and
    # neither state is parked, so the chain runs every step it is given
    a = r"(\x. (\y. x x) I) (\x. (\y. x x) I)"
    t = parse(rf"{a} (+) (\y. {a}) I")
    res = converge(t, 48)
    assert res.exact and res.mass == Dyadic(0)
    assert step_n(t, 10_000) == Distr()


def test_cap_is_checked_before_the_fixed_point_stop():
    # the starting state is over the cap before Omega parks and ends the chain
    with pytest.raises(ResourceCapExceeded):
        converge(OMEGA, 5, cap=0)


@pytest.mark.parametrize(
    "call",
    (lambda t: step_n(t, 0, cap=0), lambda t: converge(t, 8, cap=0), lambda t: trace_tree(t, 0, cap=0)),
    ids=("step_n", "converge", "trace_tree"),
)
def test_cap_below_the_starting_state_rejected(call):
    with pytest.raises(ResourceCapExceeded):
        call(parse("I"))
    with pytest.raises(ResourceCapExceeded):
        call(OMEGA)


def test_converge_certifies_half():
    res = converge(Choice(OMEGA, parse("I")), 8)
    assert res.distr.mass == HALF and res.exact
    assert res.upper_mass == HALF
    assert res.upper((parse("I"),)) == HALF


def test_converge_inexact_keeps_interval_open():
    m = parse(r"\x.y (+) x x")
    res = converge(App(m, m), 4, strategy="head")
    assert not res.exact
    assert res.upper_mass == ONE
    assert res.upper((parse("y"),)) == res.distr.weight(parse("y")) + res.deficit


def test_converge_certifies_a_growing_binder_prefix():
    # the residual only grows a λ-prefix: λz.W, λz z.W, ... with W fixed
    t = parse(r"(\y z.y y) (\y z.y y)")
    for strategy in ("head", "spine"):
        res = converge(t, 8, strategy, cap=16)
        assert res.exact and res.upper_mass == Dyadic(0)


def test_spine_converge_certifies_by_the_head_closure():
    # a closure over spine states, with their frames, certified neither;
    # the head residual only grows a λ-prefix
    for src, n in ((r"(\x.x x x) (\x y z.x x)", 40), (r"(\x.x x x) (\x.(\y z.x y) (x x))", 3)):
        for strategy in ("head", "spine"):
            res = converge(parse(src), n, strategy)
            assert res.exact and res.upper_mass == Dyadic(0)


BRANCHING_WALK = r"Theta (\f x.x (+) (f (a x) (+) f (b x))) z"


def _substitute_calls(monkeypatch, module, run):
    """The number of `substitute` calls `module` makes during `run()`."""
    calls = [0]
    substitute = module.substitute

    def counting(body, arg, *rest):
        calls[0] += 1
        return substitute(body, arg, *rest)

    with monkeypatch.context() as m:
        m.setattr(module, "substitute", counting)
        run()
    return calls[0]


def test_contraction_tables_do_not_outlive_their_call(monkeypatch):
    t = parse(BRANCHING_WALK)
    for module, run in (
        (smallstep, lambda: step_n(t, 64, "head")),
        (bigstep, lambda: eval_fuel(t, 24)),
    ):
        first = _substitute_calls(monkeypatch, module, run)
        assert _substitute_calls(monkeypatch, module, run) == first > 0


def test_head_chain_contracts_each_redex_once(monkeypatch):
    # every round of the walk contracts Theta's halves and the step
    # function again; only the contraction that feeds in the new argument
    # is one the table has not seen
    t = parse(BRANCHING_WALK)
    beta_steps = [0]
    successor = smallstep._successor

    def counting(s, *rest):
        beta_steps[0] += type(s.head) is Lam
        return successor(s, *rest)

    monkeypatch.setattr(smallstep, "_successor", counting)
    calls = _substitute_calls(monkeypatch, smallstep, lambda: step_n(t, 64, "head"))
    assert 0 < calls < beta_steps[0]


def test_no_frame_reaches_the_chain_or_the_closure(monkeypatch):
    # both strategies run the one head chain and its closure; a spine step
    # of this 2-cycle would push a frame for the body (\y.y y) x
    t = parse(r"(\x.(\y.y y) x) (\x.(\y.y y) x)")
    states = []
    successor = smallstep._successor

    def recording(s, *rest):
        states.append(s)
        return successor(s, *rest)

    monkeypatch.setattr(smallstep, "_successor", recording)
    assert step_n(t, 64, "spine") == Distr()
    res = converge(t, 64, "spine")
    assert res.exact and res.mass == Dyadic(0)
    assert states and all(s.up is None for s in states)


def test_the_cap_counts_head_states_under_both_strategies():
    # the least cap at which the spine chain of this term ran 30 steps was
    # 3; the head chain's is 2
    t = parse(r"(\x y.(x (+) y) (+) y) (\x.x)")
    assert step_n(t, 30, "spine", cap=2) == step_n(t, 30, "head", cap=2)
    spine, head = (converge(t, 30, strategy, cap=2) for strategy in ("spine", "head"))
    assert (spine.distr, spine.exact) == (head.distr, head.exact)
    for run in (step_n, converge):
        for strategy in ("head", "spine"):
            with pytest.raises(ResourceCapExceeded):
                run(t, 30, strategy, cap=1)


def test_spine_calls_retain_no_memory_between_calls():
    # twenty distinct branching walks: a contraction table that outlives
    # its call keeps every state of every one of them alive
    walk = r"Theta (\f x.x (+) (f (a{0} x) (+) f (b{0} x))) z"
    for run in (
        lambda t: step_n(t, 32, "spine"),
        lambda t: converge(t, 32, "spine", cap=512),
        lambda t: trace_tree(t, 10, "spine"),
    ):
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


def test_trace_tree_shape():
    # the root, then its two half-weight hnf leaves
    assert trace_tree(parse("a (+) b"), 2) == [
        (0, ONE, parse("a (+) b")),
        (1, HALF, parse("a")),
        (1, HALF, parse("b")),
    ]


def test_trace_tree_cap():
    with pytest.raises(ResourceCapExceeded):
        trace_tree(parse("(a (+) b) (+) (c (+) d)"), 4, cap=3)
    # the whole tree has 1 + 2 + 4 nodes, in pre-order and branch order
    with pytest.raises(ResourceCapExceeded):
        trace_tree(parse("(a (+) b) (+) (c (+) d)"), 4, cap=6)
    nodes = trace_tree(parse("(a (+) b) (+) (c (+) d)"), 4, cap=7)
    assert [(depth, term) for depth, _, term in nodes] == [
        (0, parse("(a (+) b) (+) (c (+) d)")),
        (1, parse("a (+) b")),
        (2, parse("a")),
        (2, parse("b")),
        (1, parse("c (+) d")),
        (2, parse("c")),
        (2, parse("d")),
    ]


def test_trace_tree_takes_no_frame_per_step():
    nodes = trace_tree(OMEGA, 2000)
    assert nodes == [(depth, ONE, OMEGA) for depth in range(2001)]


def _replay_commute(m, results):
    for p, m2, witness in results:
        if witness is None:
            continue
        n0, target = witness
        # deterministic head chain from the spine successor
        cur = m2
        for _ in range(n0):
            out = head_step(cur)
            assert len(out) == 1 and out[0][0] == ONE
            cur = out[0][1]
        assert cur == target
        # some head path from m of length n0+1 carries exactly probability p
        paths = {(ONE, m)}
        for _ in range(n0 + 1):
            paths = {(q * pq, s2) for q, s in paths for pq, s2 in head_step(s)}
        assert any(s == target and q == p for q, s in paths)


def test_commute_witness_on_stacked_redex():
    m = parse(r"(\x.(\y.x) y) z")
    results = commute_witness(m)
    assert all(w is not None for _, _, w in results)
    _replay_commute(m, results)


def test_commute_witness_probabilistic():
    m = parse(r"(\x.(a (+) b) x) c")
    results = commute_witness(m, bound=6)
    assert results
    _replay_commute(m, results)
