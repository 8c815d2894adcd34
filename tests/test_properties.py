"""Randomized property suite.

Terms come from the seeded generator wrapped as a hypothesis strategy,
so every property runs against a wide spread of shapes while staying
reproducible.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from plam import syntax
from plam.bigstep import eval_fuel
from plam.equiv import (
    DEFAULT_POOL_NAMES,
    Lab,
    TermState,
    _sim_block,
    applicative_compare,
    refute_bisim,
    refute_sim,
    verify_witness,
)
from plam.gen import random_term
from plam.prob import Approx, Distr, Dyadic, ONE, ZERO
from plam.smallstep import (
    _converge_seqs,
    _trie,
    converge,
    head_step,
    spine_step,
    step_n,
    trace_tree,
)
from plam.syntax import (
    I,
    OMEGA,
    THETA,
    App,
    Choice,
    Free,
    Lam,
    ParseError,
    ResourceCapExceeded,
    Var,
    classify,
    free_vars,
    is_hnf,
    lam_close,
    parse,
    pretty,
    shift,
    size,
    substitute,
)
from plam.trees import Different, Equal, Unknown, prob_tree, tree_eq

import oracles
from oracles import commute_witness, frac, run_every_step, trace_table

SETTINGS = dict(deadline=None)


def _term(seed, size, free=None):
    return random_term(random.Random(seed), size, free_names=free)


closed_terms = st.builds(_term, st.integers(0, 2**32 - 1), st.integers(1, 10))
open_terms = st.builds(
    _term,
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.just(["a", "b", "y"]),
)
any_terms = st.one_of(closed_terms, open_terms)
maybe_omega_terms = st.one_of(any_terms, any_terms.map(lambda t: Choice(t, OMEGA)))
# terms with dangling binder indices, as found under binders during reduction
index_open_terms = st.builds(
    lambda seed, size, env: random_term(random.Random(seed), size, env, ["a", "y"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.integers(1, 3),
)


def _spine_of(*args):
    body = Var(0)
    for a in args:
        body = App(body, a)
    return Lam(body)


# \x.x A B and \x.x A B C: nodes with two or three possibly uncertain children
spine_terms = st.one_of(
    st.builds(_spine_of, maybe_omega_terms, maybe_omega_terms),
    st.builds(_spine_of, maybe_omega_terms, maybe_omega_terms, maybe_omega_terms),
)

dyadics = st.builds(Dyadic, st.integers(0, 1 << 10), st.integers(0, 10))
# at most 1 each, so that short lists land on both sides of mass 1
weights = st.builds(Dyadic, st.integers(0, 1 << 10), st.integers(10, 20))


@settings(max_examples=200, **SETTINGS)
@given(any_terms)
def test_parse_print_round_trip(t):
    assert parse(pretty(t)) == t


_TOKEN_PIECES = ["x", "y1", "_a'", "I", "Omega", "\\", "λ", ".", "(", ")", "(+)", "⊕", "+", " "]
_JUNK = ["0", "7", "$", "\t", "\n", "\x1c", "\u200b", "é", "Ω"]


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as e:
        return ("ParseError", str(e), e.position)


@settings(max_examples=300, **SETTINGS)
@given(
    st.one_of(
        st.lists(st.sampled_from(_TOKEN_PIECES + _JUNK), max_size=30).map("".join),
        st.text(st.sampled_from("".join(_TOKEN_PIECES + _JUNK)), max_size=30),
    )
)
def test_tokenize_matches_reference(text):
    assert _outcome(syntax._tokenize, text) == _outcome(oracles.tokenize, text)
    with mock.patch.object(syntax, "_tokenize", oracles.tokenize):
        expected = _outcome(parse, text)
    assert _outcome(parse, text) == expected


@settings(max_examples=200, **SETTINGS)
@given(dyadics, dyadics)
def test_dyadic_arithmetic_matches_fractions(a, b):
    assert frac(a + b) == frac(a) + frac(b)
    assert frac(a * b) == frac(a) * frac(b)
    assert (a <= b) == (frac(a) <= frac(b))
    if a >= b:
        assert frac(a - b) == frac(a) - frac(b)


@settings(max_examples=200, **SETTINGS)
@given(st.lists(st.tuples(st.sampled_from("abcd"), weights), max_size=8))
def test_distr_mass_matches_fraction_sum(pairs):
    total = sum((frac(w) for _, w in pairs), Fraction(0))
    if total > 1:
        with pytest.raises(ValueError):
            Distr((Free(name), w) for name, w in pairs)
        return
    d = Distr((Free(name), w) for name, w in pairs)
    assert frac(d.mass) == total


@settings(max_examples=100, **SETTINGS)
@given(dyadics)
def test_dyadic_string_round_trip(d):
    assert Dyadic.parse(str(d)) == d
    assert Fraction(str(d)) == frac(d)


@settings(max_examples=150, **SETTINGS)
@given(any_terms, st.integers(0, 4))
def test_fuel_monotonicity(t, f):
    assert eval_fuel(t, f).distr.leq(eval_fuel(t, f + 1).distr)


# the walk and the branching walk: recursion through Theta contracts the
# same redexes round after round
WALKS = (
    parse(r"Theta (\f x.f (s x)) z"),
    parse(r"Theta (\f x.x (+) (f (a x) (+) f (b x))) z"),
)


@settings(max_examples=200, **SETTINGS)
@given(
    st.one_of(
        st.tuples(any_terms, st.integers(0, 6)),
        st.tuples(st.sampled_from(WALKS), st.integers(0, 16)),
    )
)
def test_eval_fuel_matches_the_memo_free_reference(case):
    t, f = case
    assert eval_fuel(t, f).distr == oracles.eval_fuel(t, f)


@settings(max_examples=200, **SETTINGS)
@given(any_terms)
def test_a_term_reached_at_two_fuels_matches_the_reference(t):
    # t is evaluated at fuel f on one side and f - 1 under I on the other,
    # in either order, so a memo entry used below the fuel it needs shows
    for m in (Choice(t, App(I, t)), Choice(App(I, t), t)):
        for f in range(7):
            assert eval_fuel(m, f).distr == oracles.eval_fuel(m, f)


@settings(max_examples=200, **SETTINGS)
@given(any_terms)
def test_step_outcomes_are_stochastic(t):
    for step in (head_step, spine_step):
        out = step(t)
        total = sum((p for p, _ in out), ZERO)
        assert total == ONE
        assert all(p > ZERO for p, _ in out)


@settings(max_examples=200, **SETTINGS)
@given(any_terms)
def test_classify_is_total_and_reassembles(t):
    form = classify(t)
    assert isinstance(form.head, (Var, Free, Choice, Lam))
    assert form.plug(form.head, form.args) == t
    assert is_hnf(t) == isinstance(form.head, (Var, Free))
    if isinstance(form.head, Lam):
        assert form.args


@settings(max_examples=150, **SETTINGS)
@given(any_terms, any_terms, st.integers(0, 3))
def test_choice_identity(m, n, f):
    half = Dyadic(1, 1)
    lhs = eval_fuel(Choice(m, n), f).distr
    a, b = eval_fuel(m, f).distr, eval_fuel(n, f).distr
    assert set(lhs.support()) == set(a.support()) | set(b.support())
    for h in lhs.support():
        assert lhs.weight(h) == (a.weight(h) + b.weight(h)) * half


@settings(max_examples=150, **SETTINGS)
@given(any_terms, st.integers(0, 3))
def test_abstraction_identity(t, f):
    lhs = eval_fuel(Lam(shift(t, 1)), f).distr
    rhs = eval_fuel(t, f).distr.map_support(lambda h: Lam(shift(h, 1)))
    assert lhs == rhs


@settings(max_examples=100, **SETTINGS)
@given(closed_terms, st.integers(0, 5))
def test_strategy_agreement(t, n):
    # the head chain against the genuine spine steps of the trace
    assert step_n(t, n, "head") == trace_table(t, n, "spine")


@settings(max_examples=100, **SETTINGS)
@given(closed_terms, st.integers(0, 6))
def test_step_rows_are_cumulative(t, n):
    assert step_n(t, n).leq(step_n(t, n + 1))


@settings(max_examples=100, **SETTINGS)
@given(closed_terms, st.integers(1, 8))
def test_step_table_below_eval_limit(t, n):
    assert step_n(t, n).leq(eval_fuel(t, n).distr)


@settings(max_examples=100, **SETTINGS)
@given(any_terms, st.integers(1, 3), st.integers(0, 4))
def test_eta_expansion_never_certified_different(t, level, fuel):
    expanded = Lam(App(shift(t, 1), Var(0)))
    a = prob_tree(t, level, fuel)
    b = prob_tree(expanded, level, fuel)
    assert not isinstance(tree_eq(a, b), Different)


@settings(max_examples=100, **SETTINGS)
@given(any_terms, st.integers(0, 4))
def test_eta_expansion_equal_when_mass_complete(t, fuel):
    a = prob_tree(t, 2, fuel)
    expanded = Lam(App(shift(t, 1), Var(0)))
    verdict = tree_eq(a, prob_tree(expanded, 2, fuel))
    if isinstance(verdict, Equal):
        # equality at level 2 implies equality at level 1
        assert isinstance(
            tree_eq(prob_tree(t, 1, fuel), prob_tree(expanded, 1, fuel)), Equal
        )


@settings(max_examples=150, **SETTINGS)
@given(
    any_terms,
    st.one_of(any_terms, any_terms.map(lambda t: Choice(t, OMEGA)), st.none()),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_tree_eq_is_symmetric(m, n, level, fm, fn):
    # no n compares two fuel bounds on m's own tree
    a = prob_tree(m, level, fm)
    b = prob_tree(m if n is None else n, level, fn)
    ab, ba = tree_eq(a, b), tree_eq(b, a)
    assert type(ab) is type(ba)
    if isinstance(ab, Unknown):
        assert ab.bound == ba.bound


@settings(max_examples=150, **SETTINGS)
@given(
    maybe_omega_terms,
    maybe_omega_terms,
    st.integers(1, 3),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_tree_eq_matches_the_reference(m, n, level, fm, fn):
    a, b = prob_tree(m, level, fm), prob_tree(n, level, fn)
    assert repr(tree_eq(a, b)) == repr(oracles.tree_eq(a, b))


@settings(max_examples=150, **SETTINGS)
@given(st.one_of(any_terms, spine_terms), st.integers(0, 3), st.integers(0, 6))
def test_stored_uncertainty_matches_reference(t, level, fuel):
    pt = prob_tree(t, level, fuel)
    assert pt.uncertainty == oracles.uncertainty(pt)
    assert pt.approx.exact == (pt.deficit == ZERO)


@settings(max_examples=150, **SETTINGS)
@given(st.one_of(maybe_omega_terms, spine_terms), st.integers(0, 4), st.integers(0, 6))
def test_stored_uncertainty_is_at_most_one(t, level, fuel):
    # a node's missing mass is counted once, however many children share it
    assert prob_tree(t, level, fuel).uncertainty <= ONE


@settings(max_examples=100, **SETTINGS)
@given(st.one_of(maybe_omega_terms, spine_terms), st.integers(1, 3), st.integers(0, 7))
def test_more_fuel_moves_no_more_mass_than_the_uncertainty(t, level, fuel):
    bound = prob_tree(t, level, fuel).uncertainty
    for more in range(fuel + 1, 9):
        assert oracles.coupling_cost(t, level, fuel, more) <= bound


@settings(max_examples=150, **SETTINGS)
@given(st.one_of(any_terms, index_open_terms), st.integers(0, 6))
def test_converge_ignores_leading_binders(t, n):
    for strategy in ("head", "spine"):
        bare = converge(t, n, strategy, cap=512)
        bound = converge(Lam(t), n, strategy, cap=512)
        assert (bound.exact, bound.mass) == (bare.exact, bare.mass)


@settings(max_examples=100, **SETTINGS)
@given(closed_terms)
def test_commute_witnesses_replay(t):
    for p, m2, witness in commute_witness(t, bound=6):
        if witness is None:
            continue
        n0, target = witness
        cur = m2
        for _ in range(n0):
            out = head_step(cur)
            assert len(out) == 1 and out[0][0] == ONE
            cur = out[0][1]
        assert cur == target
        paths = {(ONE, t)}
        for _ in range(n0 + 1):
            paths = {(q * pq, s2) for q, s in paths for pq, s2 in head_step(s)}
        assert any(s == target and q == p for q, s in paths)


@settings(max_examples=100, **SETTINGS)
@given(any_terms, st.integers(0, 3))
def test_eval_support_is_hnf(t, f):
    for h, w in eval_fuel(t, f).distr.items():
        assert is_hnf(h)
        assert ZERO < w <= ONE


# ---------------------------------------------------------------------------
# Loose-index bounds: references without the `loose` shortcut


def _ref_loose(t, binders=0):
    if isinstance(t, Var):
        return t.index - binders + 1 if t.index >= binders else 0
    if isinstance(t, Free):
        return 0
    if isinstance(t, Lam):
        return _ref_loose(t.body, binders + 1)
    if isinstance(t, App):
        return max(_ref_loose(t.fun, binders), _ref_loose(t.arg, binders))
    return max(_ref_loose(t.left, binders), _ref_loose(t.right, binders))


def _all_loose_exact(t):
    if t.loose != _ref_loose(t):
        return False
    if isinstance(t, Lam):
        return _all_loose_exact(t.body)
    if isinstance(t, App):
        return _all_loose_exact(t.fun) and _all_loose_exact(t.arg)
    if isinstance(t, Choice):
        return _all_loose_exact(t.left) and _all_loose_exact(t.right)
    return True


def _ref_shift(t, by, cutoff=0):
    if isinstance(t, Var):
        return Var(t.index + by) if t.index >= cutoff else t
    if isinstance(t, Free):
        return t
    if isinstance(t, Lam):
        return Lam(_ref_shift(t.body, by, cutoff + 1))
    if isinstance(t, App):
        return App(_ref_shift(t.fun, by, cutoff), _ref_shift(t.arg, by, cutoff))
    return Choice(_ref_shift(t.left, by, cutoff), _ref_shift(t.right, by, cutoff))


def _ref_subst(t, j, repl):
    if isinstance(t, Var):
        if t.index == j:
            return _ref_shift(repl, j)
        return Var(t.index - 1) if t.index > j else t
    if isinstance(t, Free):
        return t
    if isinstance(t, Lam):
        return Lam(_ref_subst(t.body, j + 1, repl))
    if isinstance(t, App):
        return App(_ref_subst(t.fun, j, repl), _ref_subst(t.arg, j, repl))
    return Choice(_ref_subst(t.left, j, repl), _ref_subst(t.right, j, repl))


some_terms = st.one_of(any_terms, index_open_terms)


@settings(max_examples=200, **SETTINGS)
@given(some_terms, some_terms, st.integers(0, 3), st.integers(0, 3))
def test_loose_bound_matches_reference(t, u, by, cutoff):
    assert _all_loose_exact(t)
    assert _all_loose_exact(shift(t, by, cutoff))
    assert _all_loose_exact(substitute(t, u))


@settings(max_examples=200, **SETTINGS)
@given(some_terms, some_terms, st.integers(0, 3), st.integers(0, 3))
def test_shift_and_substitute_match_reference(t, u, by, cutoff):
    assert shift(t, by, cutoff) == _ref_shift(t, by, cutoff)
    assert substitute(t, u) == _ref_subst(t, 0, u)


def test_closed_terms_are_shared_not_rebuilt():
    assert shift(THETA, 5) is THETA
    body = parse(r"\f.f (f y)").body
    out = substitute(body, THETA)
    assert out.fun is THETA and out.arg.fun is THETA


def _ref_bind_name(t, name, depth=0):
    if isinstance(t, Var):
        return t
    if isinstance(t, Free):
        return Var(depth) if t.name == name else t
    if isinstance(t, Lam):
        return Lam(_ref_bind_name(t.body, name, depth + 1))
    if isinstance(t, App):
        return App(_ref_bind_name(t.fun, name, depth), _ref_bind_name(t.arg, name, depth))
    return Choice(_ref_bind_name(t.left, name, depth), _ref_bind_name(t.right, name, depth))


def _ref_lam_close(t, names):
    # one binding pass per name, the last name innermost
    for name in sorted(names, reverse=True):
        t = Lam(_ref_bind_name(t, name))
    return t


def _ref_size(t):
    if isinstance(t, (Var, Free)):
        return 1
    if isinstance(t, Lam):
        return 1 + _ref_size(t.body)
    if isinstance(t, App):
        return 1 + _ref_size(t.fun) + _ref_size(t.arg)
    return 1 + _ref_size(t.left) + _ref_size(t.right)


def _ref_free_vars(t):
    if isinstance(t, Var):
        return frozenset()
    if isinstance(t, Free):
        return frozenset({t.name})
    if isinstance(t, Lam):
        return _ref_free_vars(t.body)
    if isinstance(t, App):
        return _ref_free_vars(t.fun) | _ref_free_vars(t.arg)
    return _ref_free_vars(t.left) | _ref_free_vars(t.right)


@settings(max_examples=200, **SETTINGS)
@given(some_terms, st.frozensets(st.sampled_from(["a", "b", "y", "q"])))
def test_lam_close_matches_one_pass_per_name(t, names):
    if t.loose:
        # the new binders would capture a dangling index
        with pytest.raises(ValueError, match="dangling binder index"):
            lam_close(t, names)
        return
    assert lam_close(t) == _ref_lam_close(t, _ref_free_vars(t))
    assert lam_close(t, names) == _ref_lam_close(t, names)


@settings(max_examples=200, **SETTINGS)
@given(some_terms)
def test_size_and_free_vars_match_recursion(t):
    assert size(t) == _ref_size(t)
    assert free_vars(t) == _ref_free_vars(t)


def test_long_spine_needs_no_recursion():
    t = Free("y")
    for _ in range(5000):
        t = App(t, Free("y"))
    assert size(t) == 10001
    assert free_vars(t) == frozenset({"y"})


# terms whose chain sits on one state, or on a fixed set of states, for good
LOOPING_TERMS = [
    parse(src)
    for src in ("Omega", "Omega (+) I", "hid", "I Omega", r"\x.Omega", "x Omega (+) Omega")
]
# two states that swap their mass and leak some of it each step: the set
# of live states repeats, but their weights do not
_LEAK = r"(\x.x x (+) I) (\x.x x (+) I)"
LOOPING_TERMS.append(parse(f"{_LEAK} (+) ({_LEAK} (+) I)"))
# a 2-cycle beside a β-step into it: from the second step on, its live
# states and their weights repeat after every step, and none is parked
_CYCLE = r"(\x. (\y. x x) I) (\x. (\y. x x) I)"
LOOPING_TERMS.append(parse(rf"{_CYCLE} (+) (\y. {_CYCLE}) I"))


def _or_cap(run):
    try:
        return run()
    except ResourceCapExceeded:
        return "cap"


def _converged(t, n, strategy, cap=512):
    res = converge(t, n, strategy, cap=cap)
    return res.distr, res.exact


def _ref_rows(t, n, strategy, cap):
    return Distr(run_every_step(t, n, oracles.STEPS[strategy], cap)[0].items())


def _assert_one_chain(t, n, strategy, cap):
    """`step_n` under `strategy` against the every-step head chain, cap
    raising included, and against the every-step spine chain wherever
    that stays within `cap`: both strategies run the head chain."""
    rows = _or_cap(lambda: step_n(t, n, strategy, cap=cap))
    ref = _or_cap(lambda: _ref_rows(t, n, "head", cap))
    assert rows == ref
    if rows != "cap":
        # the same hnfs in the same order, so outputs print the same
        assert list(rows.items()) == list(ref.items())
    spine = _or_cap(lambda: _ref_rows(t, n, "spine", cap))
    if spine != "cap":
        assert step_n(t, n, "spine") == spine


@settings(max_examples=200, **SETTINGS)
@given(
    st.one_of(some_terms, st.sampled_from(LOOPING_TERMS)),
    st.integers(0, 12),
    st.sampled_from(("head", "spine")),
    st.one_of(st.just(512), st.integers(1, 64)),
)
def test_fixed_point_stop_matches_every_step(t, n, strategy, cap):
    # a small cap: the chain must count its parked states, and raise
    # exactly when the every-step head chain outgrows the cap
    _assert_one_chain(t, n, strategy, cap)
    assert _or_cap(lambda: _converged(t, n, strategy, cap)) == _or_cap(
        lambda: _ref_converged(t, n, "head", cap)
    )


def _ref_converged(t, n, strategy, cap=512):
    res = oracles.converge_every_step(t, n, oracles.STEPS[strategy], cap)
    return res.distr, res.exact


def _reached(t, steps, limit=64):
    """`t` and the terms the reference head and spine steps reach from it."""
    seen = {t: None}
    frontier = [t]
    for _ in range(steps):
        frontier = list(dict.fromkeys(
            s2 for s in frontier for step in oracles.STEPS.values() for _, s2 in step(s)
            if s2 not in seen
        ))
        seen.update(dict.fromkeys(frontier))
        if len(seen) > limit:
            break
    return list(seen)[:limit]


@settings(max_examples=200, **SETTINGS)
@given(
    st.one_of(some_terms, index_open_terms, st.sampled_from(LOOPING_TERMS)),
    st.integers(0, 24),
    st.sampled_from(("head", "spine")),
)
def test_refocused_chain_matches_the_term_chain(t, n, strategy):
    # the one-step views on every term the chain passes through
    for s in _reached(t, 4):
        assert head_step(s) == oracles.head_step(s)
        assert spine_step(s) == oracles.spine_step(s)
    _assert_one_chain(t, n, strategy, 512)
    assert _or_cap(lambda: _converged(t, n, strategy)) == _or_cap(
        lambda: _ref_converged(t, n, "head")
    )


@settings(max_examples=200, **SETTINGS)
@given(
    st.one_of(some_terms, st.sampled_from(LOOPING_TERMS)),
    st.integers(0, 8),
    st.sampled_from(("head", "spine")),
)
def test_trace_tree_matches_the_merged_chain(t, steps, strategy):
    # the unmerged walk that `plam trace` prints against the table beside it
    nodes = trace_tree(t, steps, strategy)
    depths = [depth for depth, _, _ in nodes]
    assert depths[0] == 0
    assert all(d <= prev + 1 for prev, d in zip(depths, depths[1:]))
    assert max(depths) <= steps
    assert trace_table(t, steps, strategy) == step_n(t, steps, strategy)
    with pytest.raises(ResourceCapExceeded):
        trace_tree(t, steps, strategy, cap=len(nodes) - 1)


def test_head_and_spine_tables_agree_on_the_branching_walk():
    # the head chain against the genuine spine steps of the walk's trace,
    # 921 nodes at 32 steps
    walk = WALKS[1]
    assert len(trace_tree(walk, 32, "spine")) == 921
    for n in range(33):
        assert step_n(walk, n, "head") == trace_table(walk, n, "spine")


def _nested(inner, k):
    """(\\x1.(\\x2.…(\\xk.inner) a…) a) a: spine steps it below k frames."""
    for _ in range(k):
        inner = App(Lam(inner), Free("a"))
    return inner


@settings(max_examples=60, **SETTINGS)
@given(st.sampled_from(WALKS), st.integers(0, 8), st.integers(0, 24))
def test_framed_spine_chain_matches_the_term_chain(inner, k, n):
    # spine steps the walk below every enclosing redex, head contracts
    # the redexes first
    t = _nested(inner, k)
    _assert_one_chain(t, n, "spine", 512)
    # a small cap: the plain walk's closure grows until it hits the cap
    assert _or_cap(lambda: _converged(t, n, "spine", 64)) == _or_cap(
        lambda: _ref_converged(t, n, "head", 64)
    )


@settings(max_examples=100, **SETTINGS)
@given(any_terms, any_terms, st.integers(1, 3), st.integers(0, 3), st.integers(1, 4))
def test_tree_difference_survives_more_fuel(m, n, level, f, k):
    if isinstance(tree_eq(prob_tree(m, level, f), prob_tree(n, level, f)), Different):
        later = tree_eq(prob_tree(m, level, f + k), prob_tree(n, level, f + k))
        assert isinstance(later, Different)


GAME_POOL = (I, OMEGA)


@settings(max_examples=150, **SETTINGS)
@given(closed_terms, closed_terms, st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_game_witness_survives_more_fuel(m, n, f, k, bisim):
    game = refute_bisim if bisim else refute_sim
    # a random pair, and a pair that shares half of its mass
    for u, v in ((m, n), (m, Choice(m, n))):
        if game(u, v, depth=3, fuel=f, pool=GAME_POOL) is None:
            continue
        w = game(u, v, depth=3, fuel=f + k, pool=GAME_POOL)
        assert w is not None
        lab = Lab(fuel=f + k, pool=GAME_POOL)
        assert verify_witness(TermState(u), TermState(v), w, lab, bisim)


@st.composite
def liftings(draw):
    """A lifting check: up to 8 left and 8 right states of weight k/32, a
    random relation of which right states may lie above which left
    states, and a right side exact or not."""
    left = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    right = draw(st.lists(st.integers(1, 4), max_size=8))
    du = Approx(Distr((("L", i), Dyadic(k, 5)) for i, k in enumerate(left)), True)
    dv = Approx(Distr((("R", j), Dyadic(k, 5)) for j, k in enumerate(right)), draw(st.booleans()))
    above = {
        ("L", i): [("R", j) for j in range(len(right)) if draw(st.booleans())]
        for i in range(len(left))
    }
    return du, dv, above


@settings(max_examples=300, **SETTINGS)
@given(liftings())
def test_sim_block_agrees_with_enumeration(lifting):
    du, dv, above = lifting
    found = _sim_block(du, dv, above)
    assert (found is not None) == oracles.sim_block_exists(du, dv, above)
    if found is not None:
        block, image = found
        assert image == {s2 for s1 in block for s2 in above[s1]}
        assert du.lower(block) > dv.upper(image)


DEFAULT_POOL = tuple(parse(name) for name in DEFAULT_POOL_NAMES)
# pool terms: the default pool, random closed and open terms, and a free y
pool_terms = st.lists(
    st.one_of(closed_terms, open_terms, st.just(Free("y"))), max_size=3
).map(lambda extra: DEFAULT_POOL + tuple(extra))


def arg_seqs(pool):
    """Up to 8 sequences of length 0-3 over `pool`, duplicates and
    missing prefixes included."""
    return st.lists(st.lists(st.sampled_from(pool), max_size=3).map(tuple), max_size=8)


@settings(max_examples=200, **SETTINGS)
@given(maybe_omega_terms, maybe_omega_terms, pool_terms.flatmap(arg_seqs), st.integers(0, 2))
def test_applicative_compare_matches_the_per_sequence_oracle(m, n, seqs, fuel):
    reports = applicative_compare(m, n, seqs, fuel=fuel)
    expected = oracles.applicative_reports(m, n, seqs, fuel)
    assert len(reports) == len(expected)
    for r, (args, left, right, verdict) in zip(reports, expected):
        assert r.args == args and r.verdict == verdict
        assert (r.left.distr, r.left.exact) == (left.distr, left.exact)
        assert (r.right.distr, r.right.exact) == (right.distr, right.exact)


@settings(max_examples=300, **SETTINGS)
@given(
    st.one_of(maybe_omega_terms, st.sampled_from(LOOPING_TERMS)),
    pool_terms.flatmap(arg_seqs),
    st.integers(0, 16),
    st.integers(1, 64),
)
def test_converge_seqs_hits_the_cap_exactly_when_a_sequence_does(m, seqs, steps, cap):
    def outcome(run):
        return _or_cap(lambda: [(r.distr, r.exact) for r in run(m, seqs, steps, cap)])

    def shared(m, seqs, steps, cap):
        return _converge_seqs(m, _trie(seqs), steps, cap)

    assert outcome(shared) == outcome(oracles.converge_each)
