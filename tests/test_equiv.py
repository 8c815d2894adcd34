import hashlib

import pytest

from plam import equiv, smallstep
from plam.bigstep import eval_fuel
from plam.equiv import (
    DEFAULT_POOL_NAMES,
    Apply,
    HnfState,
    Lab,
    TAU,
    TermState,
    TreeWitness,
    Witness,
    applicative_compare,
    refute_bisim,
    refute_sim,
    transitions,
    verify_witness,
)
from plam.fixtures import M24, M48, N24, N48
from plam.prob import Distr, Dyadic, ONE, ZERO
from plam.smallstep import converge, step_n
from plam.syntax import App, Choice, DELTA, I, OMEGA, T, F, ResourceCapExceeded, Var, parse
from plam.trees import Different, prob_tree, value_tree

D = Dyadic.parse


def test_tau_transition_lands_on_peeled_hnfs():
    res = transitions(TermState(Choice(T, F)), TAU, 4)
    assert res.exact
    assert res.distr == Distr(
        [(HnfState(T), D("1/2")), (HnfState(F), D("1/2"))]
    )


def test_tau_transition_certifies_divergence():
    res = transitions(TermState(OMEGA), TAU, 4)
    assert not res.distr and res.exact
    assert res.upper(()) == Dyadic(0)


def test_tau_transition_open_interval():
    m = parse(r"\x.I (+) x x")
    res = transitions(TermState(App(m, m)), TAU, 1)
    assert not res.exact
    assert res.upper(()) == res.deficit


def test_one_approx_contract_across_producers():
    t = Choice(OMEGA, I)
    # fuel leaves Omega's half open: its deficit may still converge
    by_fuel = eval_fuel(t, 4)
    assert not by_fuel.exact and by_fuel.upper_mass == ONE
    # the step-bounded chain certifies Omega's half as divergent
    by_steps = converge(t, 8)
    assert by_steps.exact and by_steps.upper_mass == D("1/2")
    by_tau = transitions(TermState(t), TAU, 4)
    assert by_tau.exact == by_steps.exact
    assert (by_tau.mass, by_tau.upper_mass) == (by_steps.mass, by_steps.upper_mass)
    assert by_tau.upper((HnfState(I),)) == by_steps.upper((I,)) == D("1/2")


def _chain(k):
    """k nested applications of I to I: exactly k head steps to an hnf."""
    t = I
    for _ in range(k):
        t = App(I, t)
    return t


@pytest.mark.parametrize(
    "k, fuel, converged",
    ((8, 0, True), (12, 2, True), (18, 3, True), (9, 1, False), (13, 2, False), (19, 3, False)),
)
def test_step_budget_is_six_per_fuel_and_at_least_eight(k, fuel, converged):
    by_tau = transitions(TermState(_chain(k)), TAU, fuel)
    (report,) = applicative_compare(_chain(k), _chain(k), [()], fuel=fuel)
    for res in (by_tau, report.left, report.right):
        assert (res.mass, res.exact) == ((ONE, True) if converged else (ZERO, False))


def test_apply_transition_substitutes():
    hs = HnfState(M48)
    res = transitions(hs, Apply(I), 4)
    assert res.exact
    assert res.distr == Distr([(TermState(App(I, Choice(OMEGA, I))), ONE)])


def test_tau_transition_requires_closed_term():
    with pytest.raises(ValueError, match="term states must be closed terms"):
        transitions(TermState(parse("y")), TAU, 4)


@pytest.mark.parametrize(
    "u", (TermState(parse("y")), TermState(Var(0)), HnfState(parse("y")), HnfState(Var(1)))
)
def test_witness_replay_requires_closed_states(u):
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    lab = Lab(fuel=6, pool=(OMEGA, I))
    with pytest.raises(ValueError, match="states must be closed terms"):
        verify_witness(u, TermState(N24), w, lab, bisim=True)
    with pytest.raises(ValueError, match="states must be closed terms"):
        verify_witness(TermState(M24), u, w, lab, bisim=True)


def test_open_term_state_rejected_by_the_lab():
    # the lab does not walk the term, but an open hnf still shows
    with pytest.raises(ValueError, match="term states must be closed terms"):
        Lab(fuel=4).trans(TermState(parse(r"y (+) \x.x")), TAU)


def test_witness_naming_an_open_state_rejected():
    # a forged sub-witness naming an open state outside the joint support
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    sub = dict(w.sub)
    sub[(TermState(parse("y")), TermState(I))] = next(iter(w.sub.values()))
    forged = Witness(w.label, w.block, w.left, w.right, sub)
    lab = Lab(fuel=6, pool=(OMEGA, I))
    assert not verify_witness(TermState(M24), TermState(N24), forged, lab, bisim=True)


def test_equal_apply_labels_hash_alike():
    assert hash(Apply(I)) == hash(Apply(parse(r"\y.y")))
    assert len({Apply(I), Apply(parse(r"\y.y")), Apply(OMEGA)}) == 2


def test_mismatched_labels_have_no_transitions():
    assert not transitions(TermState(T), Apply(I), 4).distr
    assert not transitions(HnfState(T), TAU, 4).distr
    assert transitions(TermState(T), Apply(I), 4).exact


def test_apply_label_requires_closed_argument():
    with pytest.raises(ValueError):
        Apply(parse("y"))
    with pytest.raises(ValueError):
        Apply(Var(0))


@pytest.mark.parametrize(
    "call",
    (
        lambda: Lab(fuel=-1),
        lambda: refute_bisim(I, OMEGA, depth=2, fuel=-5),
        lambda: refute_bisim(I, OMEGA, depth=2, fuel=-5, tree_level=1),
        lambda: refute_sim(I, OMEGA, depth=2, fuel=-5),
        lambda: applicative_compare(I, OMEGA, [[I]], fuel=-1),
        lambda: transitions(TermState(I), TAU, -1),
        lambda: prob_tree(I, 0, -1),
        lambda: value_tree(parse("y"), 2, -1),
    ),
    ids=("lab", "bisim", "bisim-tree", "sim", "applicative", "transitions", "prob-tree",
         "value-tree"),
)
def test_negative_fuel_rejected(call):
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        call()


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: Lab(fuel=2.5), "fuel"),
        (lambda: Lab(tree_level=1.5), "tree level"),
        (lambda: refute_bisim(M24, N24, depth=2, fuel=8, tree_level=1.5), "tree level"),
        (lambda: refute_bisim(I, OMEGA, depth=2.5), "depth"),
        (lambda: refute_sim(I, OMEGA, depth=2.5), "depth"),
        (lambda: applicative_compare(I, OMEGA, [[I]], fuel=2.5), "fuel"),
        (lambda: transitions(TermState(I), TAU, 2.5), "fuel"),
        # a bool is an int to Python, yet no count
        (lambda: eval_fuel(parse("a (+) b"), True), "fuel"),
        (lambda: Lab(fuel=True), "fuel"),
        (lambda: Lab(tree_level=True), "tree level"),
        (lambda: refute_sim(I, OMEGA, depth=True), "depth"),
        (lambda: step_n(parse("a (+) b"), True), "steps"),
    ),
    ids=("lab-fuel", "lab-tree-level", "bisim-tree-level", "bisim-depth", "sim-depth",
         "applicative", "transitions", "eval-fuel-bool", "lab-fuel-bool",
         "lab-tree-level-bool", "sim-depth-bool", "steps-bool"),
)
def test_non_integer_bounds_rejected(call, message):
    with pytest.raises(TypeError, match=f"{message} must be an int"):
        call()


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: refute_bisim(I, OMEGA, depth=-1), "depth"),
        (lambda: refute_sim(I, OMEGA, depth=-1), "depth"),
        (lambda: Lab(tree_level=-1), "tree level"),
    ),
    ids=("bisim-depth", "sim-depth", "lab-tree-level"),
)
def test_negative_depth_and_tree_level_rejected(call, message):
    with pytest.raises(ValueError, match=f"{message} must be non-negative"):
        call()


def test_bisim_distinguishes_separation_pair():
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    assert isinstance(w, Witness)
    lab = Lab(fuel=6, pool=(OMEGA, I))
    assert verify_witness(TermState(M24), TermState(N24), w, lab, bisim=True)


def test_dangling_binder_index_rejected_not_captured():
    with pytest.raises(ValueError, match="dangling binder index"):
        refute_bisim(Var(0), I)


def test_a_raised_search_leaves_no_verdict_behind(monkeypatch):
    lab = Lab(fuel=6, pool=(OMEGA, I))
    u, v = TermState(M24), TermState(N24)

    def interrupted(*args):
        raise ResourceCapExceeded("interrupted")

    with monkeypatch.context() as m:
        m.setattr("plam.equiv._transitions", interrupted)
        with pytest.raises(ResourceCapExceeded):
            lab.diff(u, v, 8, True)
    # the same lab searches the pair afresh, as a new one would
    assert isinstance(lab.diff(u, v, 8, True), Witness)


def test_bisim_inconclusive_on_eta_pair():
    assert refute_bisim(I, parse(r"\x y.x y"), depth=8, fuel=6, pool=(OMEGA, I)) is None


def test_bisim_inconclusive_on_identical_terms():
    assert refute_bisim(M24, M24, depth=8, fuel=6, pool=(OMEGA, I)) is None


def test_bisim_with_tree_separator():
    w = refute_bisim(M24, N24, depth=2, fuel=8, pool=(), tree_level=2)
    assert w is not None
    lab = Lab(fuel=8, tree_level=2)
    assert verify_witness(TermState(M24), TermState(N24), w, lab, bisim=True)


def test_bisim_closes_open_terms():
    w = refute_bisim(parse("y (a (+) b)"), parse("y a (+) y b"), depth=6, fuel=6, pool=(I,))
    # both sides are lambda-closed the same way, so the game runs on closed terms
    assert w is None or verify_witness(
        TermState(parse(r"\a b y.y (a (+) b)")),
        TermState(parse(r"\a b y.y a (+) y b")),
        w,
        Lab(fuel=6, pool=(I,)),
        bisim=True,
    )


def test_sim_refutes_both_directions():
    w1 = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    w2 = refute_sim(N48, M48, depth=6, fuel=6, pool=(I,))
    assert w1 is not None and w2 is not None
    lab = Lab(fuel=6, pool=(I,))
    assert verify_witness(TermState(M48), TermState(N48), w1, lab, bisim=False)
    assert verify_witness(TermState(N48), TermState(M48), w2, lab, bisim=False)
    pairs = {(str(l), str(r)) for l, r in w1.mass_pairs() + w2.mass_pairs()}
    assert {("1", "1/2"), ("1/2", "0")} <= pairs


def test_sim_inconclusive_on_equal_pair():
    assert refute_sim(I, parse(r"\x y.x y"), depth=6, fuel=6, pool=(I,)) is None


def test_tampered_witness_rejected():
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    lab = Lab(fuel=6, pool=(OMEGA, I))
    bad = Witness(
        w.label,
        w.block,
        (w.left[0] + D("1/4"), w.left[1]),
        w.right,
        w.sub,
    )
    assert not verify_witness(TermState(M24), TermState(N24), bad, lab, bisim=True)


def test_tampered_sim_witness_rejected():
    w = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    lab = Lab(fuel=6, pool=(I,))
    bad = Witness(w.label, w.block, w.left, w.right, {}, image=w.image)
    if w.sub:
        assert not verify_witness(TermState(M48), TermState(N48), bad, lab, bisim=False)


def test_bisim_witness_without_sub_witnesses_rejected():
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    lab = Lab(fuel=6, pool=(OMEGA, I))
    assert w.sub
    bad = Witness(w.label, w.block, w.left, w.right, {})
    assert not verify_witness(TermState(M24), TermState(N24), bad, lab, bisim=True)


def test_witness_with_a_shrunk_block_rejected():
    u, v = TermState(parse(r"\x.(x (+) x) x")), TermState(parse(r"(\x y.y) (+) \x.x"))
    lab = Lab(fuel=3, pool=(I, OMEGA))
    w = refute_bisim(u.term, v.term, depth=3, fuel=3, pool=(I, OMEGA))
    assert len(w.block) == 2 and verify_witness(u, v, w, lab, bisim=True)
    du, dv = lab.trans(u, w.label), lab.trans(v, w.label)
    for kept in w.block:
        # the intervals are recomputed for the smaller block, so they replay
        block = (kept,)
        left, right = (du.lower(block), du.upper(block)), (dv.lower(block), dv.upper(block))
        bad = Witness(w.label, block, left, right, w.sub)
        assert not verify_witness(u, v, bad, lab, bisim=True)


def test_witness_with_swapped_sides_rejected():
    lab = Lab(fuel=6, pool=(OMEGA, I))
    w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    assert verify_witness(TermState(M24), TermState(N24), w, lab, bisim=True)
    assert not verify_witness(TermState(N24), TermState(M24), w, lab, bisim=True)
    lab = Lab(fuel=6, pool=(I,))
    w = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    assert verify_witness(TermState(M48), TermState(N48), w, lab, bisim=False)
    assert not verify_witness(TermState(N48), TermState(M48), w, lab, bisim=False)


def test_forged_bisim_witness_with_open_block_rejected():
    # the two hnfs are bisimilar, so no sub-witness can separate them; a
    # block holding one of them is not closed, though its intervals replay
    u, v = parse(r"\x.x (I I)"), parse(r"\x.x I")
    forged = Witness(TAU, (HnfState(u),), (ONE, ONE), (ZERO, ZERO), {})
    assert not verify_witness(TermState(u), TermState(v), forged, Lab(fuel=6), bisim=True)


def test_states_and_labels_over_one_term_are_unequal():
    assert len({TermState(I), HnfState(I), Apply(I)}) == 3


@pytest.mark.parametrize("kind", (TermState, HnfState, Apply))
def test_equal_terms_built_apart_give_equal_states(kind):
    m, n = parse(r"\x y.x"), parse(r"\a b.a")
    assert m is not n
    a, b = kind(m), kind(n)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.term is m and b.term is n


@pytest.mark.parametrize(
    "call",
    (
        lambda lab, u, v, w: verify_witness(tuple(u), v, w, lab, bisim=True),
        lambda lab, u, v, w: lab.diff(tuple(u), v, 2, True),
        lambda lab, u, v, w: lab.trans(HnfState(I), tuple(Apply(I))),
        lambda lab, u, v, w: transitions(tuple(u), TAU, 4),
    ),
    ids=("verify-root", "diff", "trans-label", "transitions"),
)
def test_plain_tuple_state_or_label_rejected(call):
    # a plain tuple would leave empty transitions in the lab's memo under
    # its state's key, and a forged certificate would then replay
    u, v = TermState(I), TermState(App(I, I))
    forged = Witness(TAU, (HnfState(I),), (ZERO, ZERO), (ONE, ONE), {})
    lab = Lab(fuel=4, pool=(I,))
    with pytest.raises(TypeError, match="not a tuple"):
        call(lab, u, v, forged)
    assert not verify_witness(u, v, forged, lab, bisim=True)


@pytest.mark.parametrize("field", ("block", "image", "sub"))
def test_plain_tuple_in_a_witness_rejected(field):
    # a plain (kind, term) tuple equals its state and hashes like it, so
    # only its type tells it apart
    lab = Lab(fuel=6, pool=(I,))
    u, v = TermState(M48), TermState(N48)
    w = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    assert w.sub and verify_witness(u, v, w, lab, bisim=False)
    fields = {"block": w.block, "image": w.image, "sub": w.sub}
    if field == "sub":
        fields["sub"] = {(tuple(s1), s2): x for (s1, s2), x in w.sub.items()}
    else:
        fields[field] = tuple(tuple(s) for s in fields[field])
    assert fields[field] == getattr(w, field)
    bad = Witness(w.label, fields["block"], w.left, w.right, fields["sub"], image=fields["image"])
    assert not verify_witness(u, v, bad, lab, bisim=False)


def test_forged_sim_witness_dropping_the_block_itself_rejected():
    forged = Witness(TAU, (HnfState(I),), (ONE, ONE), (ZERO, ZERO), {}, image=())
    assert not verify_witness(TermState(I), TermState(I), forged, Lab(fuel=6), bisim=False)


def test_forged_bisim_witness_with_overlapping_intervals_rejected():
    # I and I I both converge to I: the block intervals replay but overlap
    u, v = TermState(I), TermState(App(I, I))
    lab = Lab(fuel=6)
    block = (HnfState(I),)
    du, dv = lab.trans(u, TAU), lab.trans(v, TAU)
    left, right = (du.lower(block), du.upper(block)), (dv.lower(block), dv.upper(block))
    assert left == right == (ONE, ONE)
    forged = Witness(TAU, block, left, right, {})
    assert not verify_witness(u, v, forged, lab, bisim=True)


def test_sim_witness_with_an_edited_right_upper_bound_rejected():
    lab = Lab(fuel=6, pool=(I,))
    w = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    assert verify_witness(TermState(M48), TermState(N48), w, lab, bisim=False)
    # a lower right bound still separates, so only the replay rejects it
    assert w.right[1] > ZERO and w.left[0] > ZERO
    bad = Witness(w.label, w.block, w.left, (w.right[0], ZERO), w.sub, image=w.image)
    assert not verify_witness(TermState(M48), TermState(N48), bad, lab, bisim=False)


@pytest.mark.parametrize(
    "path, left, right",
    [((7, 3), Dyadic(1, 5), "nonsense"), ((1,), ONE, ZERO), ((), D("1/2"), ZERO), ((), ONE, D("1/4"))],
    ids=["all", "path", "left", "right"],
)
def test_tree_witness_with_a_forged_difference_rejected(path, left, right):
    # M24 and N24 differ at level 2, at the root with masses 1 and 0,
    # not as the forged detail states
    lab = Lab(fuel=8, tree_level=2)
    w = refute_bisim(M24, N24, depth=2, fuel=8, tree_level=2)
    assert isinstance(w, TreeWitness) and repr(w.detail) == "Different(path=[], left=1, right=0)"
    assert verify_witness(TermState(M24), TermState(N24), w, lab, bisim=True)
    forged = TreeWitness(2, Different(path, left, right))
    assert not verify_witness(TermState(M24), TermState(N24), forged, lab, bisim=True)


@pytest.mark.parametrize("level", [-1, 2.5])
def test_tree_witness_at_a_level_that_is_no_tree_level_rejected(level):
    # no tree exists at these levels, so the stated difference is not one
    forged = TreeWitness(level, Different((), ONE, ZERO))
    assert not verify_witness(TermState(M24), TermState(N24), forged, Lab(fuel=8), bisim=True)


def test_tree_witness_refutes_bisimilarity_only():
    # a tree difference does not refute similarity: I (+) Omega is
    # simulated by I, though its limit tree differs from I's
    lab = Lab(fuel=8, tree_level=2)
    w = refute_bisim(M24, N24, depth=2, fuel=8, tree_level=2)
    assert verify_witness(TermState(M24), TermState(N24), w, lab, bisim=True)
    assert not verify_witness(TermState(M24), TermState(N24), w, lab, bisim=False)


@pytest.mark.parametrize("end", ["left upper", "right lower"])
def test_sim_witness_with_an_edited_displayed_end_rejected(end):
    # the true intervals are 1..1 and 1/2..1/2; the edited ends still
    # leave left lower above right upper, so only a full replay rejects them
    lab = Lab(fuel=6, pool=(I,))
    w = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    assert (w.left, w.right) == ((ONE, ONE), (D("1/2"), D("1/2")))
    left, right = w.left, w.right
    if end == "left upper":
        left = (ONE, D("7/8"))
    else:
        right = (D("5/8"), D("1/2"))
    bad = Witness(w.label, w.block, left, right, w.sub, image=w.image)
    assert not verify_witness(TermState(M48), TermState(N48), bad, lab, bisim=False)


def test_forged_sim_witness_whose_true_claims_do_not_separate_rejected():
    u = TermState(I)
    lab = Lab(fuel=6)
    block = (HnfState(I),)
    d = lab.trans(u, TAU)
    forged = Witness(
        TAU, block, (d.lower(block), d.upper(block)), (d.lower(block), d.upper(block)), {},
        image=block,
    )
    assert not verify_witness(u, u, forged, lab, bisim=False)


def test_sim_over_nine_left_states_finds_the_whole_support():
    hnfs = [r"\x.x", r"\x y.x", r"\x y.y", r"\x y z.x", r"\x y z.y", r"\x y z.z",
            r"\x y z u.x", r"\x y z u.y", r"\x y z u.z"]
    m = parse(" (+) ".join(f"({h})" for h in hnfs))
    n = parse(" (+) ".join(f"({h})" for h in hnfs[:8] + [r"\x y z u.Omega"]))
    w = refute_sim(m, n, depth=3, fuel=8)
    assert len(w.block) == 9
    assert (w.left[0], w.right[1]) == (ONE, D("255/256"))
    assert verify_witness(TermState(m), TermState(n), w, Lab(fuel=8), bisim=False)


def _balanced(leaves):
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return Choice(_balanced(leaves[:half]), _balanced(leaves[half:]))


@pytest.mark.parametrize("n", (9, 12))
def test_sim_finds_the_two_state_block_among_many_left_states(n):
    # n hnfs of weight 1/16 a side, the rest Omega; R_j = \x.x M_j, where
    # M_j reaches I with mass 2^(1-j). Only R_1 = I lies above the left
    # states I and T, and R_2 lies above every other left state, as does
    # its own copy, so only the block {I, T} separates: no singleton does,
    # nor the whole support
    right = [I] + [parse(r"\x.x (" + "Omega (+) " * (j - 2) + "I (+) Omega)")
                   for j in range(2, n + 1)]
    pad = [OMEGA] * (16 - n)
    m, v = _balanced([I, T] + right[2:] + pad), _balanced(right + pad)
    w = refute_sim(m, v, depth=3, fuel=8, pool=(I,))
    assert w.block == (HnfState(I), HnfState(T)) and w.image == (HnfState(I),)
    assert (w.left, w.right) == ((D("1/8"), D("1/8")), (D("1/16"), D("1/16")))
    assert verify_witness(TermState(m), TermState(v), w, Lab(fuel=8, pool=(I,)), bisim=False)


def test_applicative_compare_separation():
    reports = applicative_compare(M24, N24, [(OMEGA, I, DELTA)], fuel=8)
    r = reports[0]
    assert r.left.mass == D("1/4") and r.right.mass == D("1/2")
    assert r.verdict == "RightExceeds"


def test_applicative_compare_inconclusive_on_equals():
    reports = applicative_compare(I, parse(r"\x y.x y"), [(), (I,), (I, I)], fuel=6)
    assert all(r.verdict == "Inconclusive" for r in reports)


def test_applicative_compare_left_exceeds():
    reports = applicative_compare(I, OMEGA, [()], fuel=6)
    assert reports[0].verdict == "LeftExceeds"
    assert reports[0].right.exact


@pytest.mark.parametrize(
    "seqs, error, match",
    (
        ([[1]], TypeError, "argument must be a Term, not int"),
        (["ab"], TypeError, "argument must be a Term, not str"),
        ([[I], [I, None]], TypeError, "argument must be a Term, not NoneType"),
        ([[Var(0)]], ValueError, "dangling binder index"),
        ([[I, App(I, Var(1))]], ValueError, "dangling binder index"),
    ),
    ids=("int", "string", "none", "index", "nested-index"),
)
def test_applicative_compare_rejects_bad_arguments(seqs, error, match):
    # unchecked, an int would pass for an hnf of mass 1, a string would fail
    # inside the chain, and ?0 would get a mass although it means nothing
    with pytest.raises(error, match=match):
        applicative_compare(I, OMEGA, seqs)


def _default_pool_seqs(maxlen):
    """Every sequence of length 0..maxlen over the default pool, as `plam
    appcmp --maxlen` builds them."""
    pool = [parse(name) for name in DEFAULT_POOL_NAMES]
    seqs, frontier = [()], [()]
    for _ in range(maxlen):
        frontier = [s + (p,) for s in frontier for p in pool]
        seqs.extend(frontier)
    return seqs


@pytest.mark.parametrize(
    "m, n, maxlen, most",
    (
        # the README pair: 2 297 calls with one chain per sequence and side
        (r"\x y z.z (x (+) y)", r"\x y z.(z x) (+) (z y)", 3, 1600),
        # 5 540 calls with one chain per sequence and side
        ("I", "I", 4, 1000),
    ),
    ids=("readme-pair", "identity"),
)
def test_applicative_compare_shares_steps_across_sequences(monkeypatch, m, n, maxlen, most):
    calls = [0]
    successor = smallstep._successor

    def counting(*args):
        calls[0] += 1
        return successor(*args)

    monkeypatch.setattr(smallstep, "_successor", counting)
    reports = applicative_compare(parse(m), parse(n), _default_pool_seqs(maxlen))
    assert len(reports) == sum(5**k for k in range(maxlen + 1))
    assert calls[0] <= most


def _fixture_certificate(bisim):
    if bisim:
        lab = Lab(fuel=6, pool=(OMEGA, I))
        w = refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
        return TermState(M24), TermState(N24), w, lab
    lab = Lab(fuel=6, pool=(I,))
    w = refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    return TermState(M48), TermState(N48), w, lab


@pytest.mark.parametrize("junk", [None, "not a witness"], ids=("none", "string"))
@pytest.mark.parametrize("bisim", [True, False], ids=("bisim", "sim"))
def test_witness_with_a_sub_witness_of_another_type_rejected(bisim, junk):
    u, v, w, lab = _fixture_certificate(bisim)
    assert w.sub and verify_witness(u, v, w, lab, bisim=bisim)
    for pair in w.sub:
        sub = {**w.sub, pair: junk}
        bad = Witness(w.label, w.block, w.left, w.right, sub, image=w.image)
        assert verify_witness(u, v, bad, lab, bisim=bisim) is False


@pytest.mark.parametrize("bisim", [True, False], ids=("bisim", "sim"))
def test_missing_root_witness_rejected(bisim):
    u, v, _, lab = _fixture_certificate(bisim)
    assert verify_witness(u, v, None, lab, bisim=bisim) is False


# a closed term that needs 14 head steps, more than fuels 1 and 2 give
SLOW = "(\\f x." + "f (" * 12 + "x" + ")" * 12 + ") I I"


@pytest.mark.parametrize("fuel", [1, 2])
def test_bisim_separates_by_a_union_of_blocks(fuel):
    # T and F are separated, so each is its own block, and neither alone
    # separates: 3/8..5/8 against 0..1/2; together they do
    pool = tuple(parse(name) for name in DEFAULT_POOL_NAMES)
    m = parse(f"(T (+) F) (+) ((T (+) F) (+) {SLOW})")
    n = parse(f"(I (+) \\x y z.z) (+) ({SLOW} (+) {SLOW})")
    w = refute_bisim(m, n, depth=6, fuel=fuel, pool=pool)
    assert set(w.block) == {HnfState(T), HnfState(F)}
    assert (w.left, w.right) == ((D("3/4"), ONE), (ZERO, D("1/2")))
    lab = Lab(fuel=fuel, pool=pool)
    assert verify_witness(TermState(m), TermState(n), w, lab, bisim=True)


_MALFORMED = {
    "block-holding-a-list": lambda w: dict(block=(list(w.block),)),
    "block-int": lambda w: dict(block=5),
    "label-list": lambda w: dict(label=[w.label]),
    "sub-none": lambda w: dict(sub=None),
    "sub-key-single-state": lambda w: dict(sub={**w.sub, w.block[0]: next(iter(w.sub.values()))}),
    "image-holding-a-list": lambda w: dict(image=(list(w.image),)),
    "image-int": lambda w: dict(image=5),
    "hnf-without-abstraction": lambda w: dict(
        sub={**w.sub, (w.block[0], HnfState(App(I, I))): next(iter(w.sub.values()))}
    ),
}


@pytest.mark.parametrize(
    "bisim, case",
    # a bisimulation witness has no image
    [(True, c) for c in _MALFORMED if not c.startswith("image")] + [(False, c) for c in _MALFORMED],
)
def test_witness_with_malformed_fields_rejected(bisim, case):
    u, v, w, lab = _fixture_certificate(bisim)
    fields = dict(label=w.label, block=w.block, left=w.left, right=w.right, sub=w.sub,
                  image=w.image)
    fields.update(_MALFORMED[case](w))
    assert verify_witness(u, v, Witness(**fields), lab, bisim=bisim) is False


def test_hnf_state_holding_no_abstraction_refused():
    with pytest.raises(ValueError, match="hnf states must be closed terms that are abstractions"):
        verify_witness(HnfState(App(I, I)), TermState(I), None, Lab(fuel=4), bisim=True)
    with pytest.raises(ValueError, match="hnf states must be closed terms that are abstractions"):
        transitions(HnfState(App(I, I)), Apply(I), 4)


GAME_POOL = tuple(parse(name) for name in DEFAULT_POOL_NAMES)


def _corpus_games(small_corpus):
    """The first 40 pairs of the small corpus with refute_bisim, refute_sim
    and refute_sim reversed at depth 4, fuel 8, over the default pool."""
    for m, n in list(zip(small_corpus[::2], small_corpus[1::2]))[:40]:
        yield (
            refute_bisim(m, n, depth=4, fuel=8, pool=GAME_POOL),
            refute_sim(m, n, depth=4, fuel=8, pool=GAME_POOL),
            refute_sim(n, m, depth=4, fuel=8, pool=GAME_POOL),
        )


def _fingerprint(w):
    """`repr` plus the sorted sub-witness fingerprints, as the refute-corpus
    benchmark digests a witness."""
    if w is None:
        return "none"
    subs = getattr(w, "sub", {}) or {}
    return repr(w) + "{" + ",".join(sorted(_fingerprint(s) for s in subs.values())) + "}"


# sha256 prefixes of the three fingerprints of each pair, joined by "|"
CORPUS_WITNESS_PINS = [
    "d20a2b0809f6", "c12997aef06e", "d20a2b0809f6", "634a105185fb", "8bca24324ba1",
    "e29cf452d168", "4768c4371e22", "77dd4e59efec", "e02993339c69", "e29cf452d168",
    "c12997aef06e", "620460495715", "c12997aef06e", "c12997aef06e", "c12997aef06e",
    "e29cf452d168", "e29cf452d168", "9b33da89e316", "8bca24324ba1", "4768c4371e22",
    "c12997aef06e", "540d1e351656", "f323407a76b2", "e29cf452d168", "8c6267bc46cc",
    "c12997aef06e", "c593442e3886", "3703c571f353", "38d6f4dc4050", "c12997aef06e",
    "c8acd7ea4b88", "7aea40c24fd2", "dfe153c1ee38", "c12997aef06e", "9b33da89e316",
    "8bca24324ba1", "8bca24324ba1", "620460495715", "d20a2b0809f6", "ab03d21b32b0",
]


def test_corpus_witnesses_are_pinned(small_corpus):
    # a changed label order, block rule or interval shows here, not as a
    # silent change in what the games print
    found = [
        hashlib.sha256("|".join(map(_fingerprint, ws)).encode()).hexdigest()[:12]
        for ws in _corpus_games(small_corpus)
    ]
    assert found == CORPUS_WITNESS_PINS


def test_games_probe_only_the_labels_a_state_moves_by(monkeypatch, small_corpus):
    # every pair a game reaches from two term states is of one kind: a term
    # state moves by τ alone, an hnf state by Apply alone
    probes = {}
    transitions_ = equiv._transitions

    def counting(state, label, fuel):
        key = (type(state).__name__, "tau" if label is TAU else "apply")
        probes[key] = probes.get(key, 0) + 1
        return transitions_(state, label, fuel)

    monkeypatch.setattr(equiv, "_transitions", counting)
    for _ in _corpus_games(small_corpus):
        pass
    refute_bisim(M24, N24, depth=8, fuel=6, pool=(OMEGA, I))
    refute_sim(M48, N48, depth=6, fuel=6, pool=(I,))
    assert set(probes) == {("TermState", "tau"), ("HnfState", "apply")}
