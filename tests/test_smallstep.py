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
from plam.syntax import App, Choice, Free, Lam, OMEGA, is_hnf, parse

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


def test_the_spine_chain_takes_no_arguments():
    # frames and pending arguments would both claim the λ-prefix of a state
    trie = smallstep._trie([(parse("I"),)])
    with pytest.raises(ValueError, match="spine strategy takes no arguments"):
        smallstep._chain(parse("I"), trie, 4, True, 16, {}, {})


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
    # one step finds Omega's self-loop, one more certifies it
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
    # step 1 splits, step 2 re-steps Omega and Omega I onto themselves:
    # nothing was absorbed, so the live states are their own closure
    res, calls = _successor_calls(monkeypatch, lambda: converge(parse("Omega (+) Omega I"), 48))
    assert res.exact and res.mass == Dyadic(0)
    assert calls == 3


def test_step_n_stops_at_the_fixed_point_after_a_split(monkeypatch):
    out, calls = _successor_calls(monkeypatch, lambda: step_n(parse("Omega (+) Omega I"), 10**7))
    assert out == Distr() and calls <= 3


def test_weights_grow_with_the_steps_run_not_the_budget(monkeypatch):
    # a denominator of 2^budget would take seconds to build here
    res, calls = _successor_calls(monkeypatch, lambda: converge(parse(r"(\x.x) (\x.x)"), 10**7))
    assert res.exact and res.distr == Distr([(parse("I"), ONE)])
    assert calls == 1


def test_numerators_stay_small_on_a_chain_of_beta_steps(monkeypatch):
    # a deterministic 2-cycle: no step takes a choice, so the shared
    # exponent never rises and no numerator grows with the steps run; the
    # chain's fixed-point check sees every step's live numerators
    checks = []
    repeats = smallstep._repeats

    def recording(live, nxt, rise):
        fixed = repeats(live, nxt, rise)
        checks.append((max(w for states in live.values() for w in states.values()), fixed))
        return fixed

    monkeypatch.setattr(smallstep, "_repeats", recording)
    t = parse(r"(\x. (\y. x x) I) (\x. (\y. x x) I)")
    assert step_n(t, 100_000) == Distr()
    assert len(checks) == 100_000
    assert not any(fixed for _, fixed in checks)
    assert max(w for w, _ in checks) < 2


def test_cap_is_checked_before_the_fixed_point_stop():
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


def _nodes_built_per_later_steps(monkeypatch, t, n):
    """Lam/App/Choice nodes built by spine steps 2..n of `t`."""
    count = [0]
    for cls in (Lam, App, Choice):
        init = cls.__init__

        def counting(self, *args, _init=init):
            count[0] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    step_n(t, 1, "spine")
    first = count[0]
    step_n(t, n, "spine")
    monkeypatch.undo()
    return count[0] - 2 * first


def test_spine_steps_do_not_rebuild_the_enclosing_redexes(monkeypatch):
    # (\x1.(\x2.…(\xk.R) a…) a) a, where the walk R = Theta (\f x.f (s x)) z
    # never reaches an hnf, so no step is a fixed point; its first rounds
    # make contractions the table has not seen, so steps 2..n build nodes
    inner = parse(r"Theta (\f x.f (s x)) z")

    def nested(k):
        t = inner
        for _ in range(k):
            t = App(Lam(t), Free("a"))
        return t

    shallow = _nodes_built_per_later_steps(monkeypatch, nested(5), 30)
    deep = _nodes_built_per_later_steps(monkeypatch, nested(60), 30)
    assert shallow == deep > 0


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


def test_spine_chain_steps_each_focus_once(monkeypatch):
    # a body below enclosing redexes steps the same whatever they are, so
    # one call contracts and refocuses each focus once: here 782 foci,
    # where stepping every state anew makes 14 586 successor calls
    foci = []
    successor = smallstep._successor

    def counting(s, *rest):
        foci.append((s.binders, s.head, s.args))
        return successor(s, *rest)

    monkeypatch.setattr(smallstep, "_successor", counting)
    step_n(parse(BRANCHING_WALK), 52, "spine")
    assert len(foci) == len(set(foci)) > 0


def test_spine_calls_retain_no_memory_between_calls():
    # twenty distinct branching walks: a focus or contraction table that
    # outlives its call keeps every state of every one of them alive
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
    node = trace_tree(parse("a (+) b"), 2)
    assert node["prob"] == ONE
    assert len(node["children"]) == 2
    for child in node["children"]:
        assert child["prob"] == HALF
        assert child["children"] == []  # hnf leaves


def test_trace_tree_cap():
    with pytest.raises(ResourceCapExceeded):
        trace_tree(parse("(a (+) b) (+) (c (+) d)"), 4, cap=3)


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
