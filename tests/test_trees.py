import pytest

from plam import trees
from plam.equiv import refute_bisim
from plam.fixtures import M24, MM, N24, THETA_Y
from plam.prob import Dyadic, ONE, ZERO
from plam.syntax import App, lam_close, parse
from plam.trees import (
    Different,
    Equal,
    Unknown,
    binder_ref,
    bottom,
    eta_tree,
    prob_tree,
    tree_eq,
    value_tree,
)

D = Dyadic.parse


def test_bottom_tree():
    bt = bottom()
    assert bt.entries == () and bt.deficit == ONE
    assert sum((w for _, w in bt.entries), ZERO) == ZERO


def test_level_zero_is_bottom():
    assert prob_tree(parse("I"), 0, 8) == bottom()
    assert prob_tree(parse("Omega"), 0, 8) == bottom()


def test_negative_level_rejected_before_evaluation(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr("plam.trees._approx", no_evaluation)
    for src in ("Omega", "I"):
        with pytest.raises(ValueError, match="tree level must be non-negative"):
            prob_tree(parse(src), -1, 4)


def test_divergent_term_is_bottom_at_every_level():
    for lvl in (1, 2, 3):
        pt = prob_tree(parse("Omega"), lvl, 8)
        assert pt.entries == () and pt.deficit == ONE


def test_eta_tree_rejects_negative_level():
    with pytest.raises(ValueError, match="tree level must be non-negative"):
        eta_tree("y", -1)


def test_non_integer_level_rejected():
    for build in (
        lambda: prob_tree(parse("Omega"), 1.5, 3),
        lambda: eta_tree("y", 1.5),
        lambda: value_tree(parse("y"), 1.5, 4),
    ):
        with pytest.raises(TypeError, match="tree level must be an int"):
            build()


def test_eta_tree_shape():
    et = eta_tree("y", 2)
    assert et.deficit == ZERO and len(et.entries) == 1
    vt, w = et.entries[0]
    assert w == ONE and vt.head == "y" and vt.offset == 0 and vt.args == ()


def test_value_tree_requires_hnf():
    with pytest.raises(ValueError):
        value_tree(parse("Omega"), 2, 4)
    with pytest.raises(ValueError):
        value_tree(parse("I"), 0, 4)


def test_level_one_normalizes_offset():
    # at level 1 only the head survives, so application cannot be observed
    a = value_tree(parse("y"), 1, 4)
    b = value_tree(parse("y I"), 1, 4)
    assert a == b


def test_level_two_sees_arguments():
    a = value_tree(parse("y"), 2, 4)
    b = value_tree(parse("y I"), 2, 4)
    assert a != b
    assert b.offset == -1 and len(b.args) == 1


def test_bound_head_uses_positional_reference():
    vt = value_tree(parse(r"\x y.x"), 2, 4)
    assert vt.head == binder_ref(0, 1)


def test_trimming_eta_tail():
    # \x.y x has the same tree as y: the explicit arg is the first eta child
    a = value_tree(parse(r"\x.y x"), 3, 6)
    b = value_tree(parse("y"), 3, 6)
    assert a == b
    assert a.args == () and a.offset == 0


def test_eta_pairs_equal():
    for lvl in range(1, 5):
        v = tree_eq(prob_tree(parse("y"), lvl, 4), prob_tree(parse(r"\z.y z"), lvl, 4))
        assert isinstance(v, Equal)
        v = tree_eq(prob_tree(parse("I"), lvl, 4), prob_tree(parse(r"\x y.x y"), lvl, 4))
        assert isinstance(v, Equal)


def test_theta_fixture_levels():
    pt1 = prob_tree(THETA_Y, 1, 8)
    assert pt1.deficit == ZERO and len(pt1.entries) == 1
    vt, w = pt1.entries[0]
    assert w == ONE and vt.head == "y"

    pt2 = prob_tree(THETA_Y, 2, 8)
    assert pt2.deficit == ZERO and len(pt2.entries) == 2
    assert all(w == D("1/2") for _, w in pt2.entries)
    assert all(vt.head == "y" for vt, _ in pt2.entries)


def test_separation_is_certified():
    v = tree_eq(prob_tree(M24, 2, 8), prob_tree(N24, 2, 8))
    assert isinstance(v, Different)
    # a certified difference cannot flip to Equal with more fuel
    v2 = tree_eq(prob_tree(M24, 2, 12), prob_tree(N24, 2, 12))
    assert not isinstance(v2, Equal)


def test_unknown_carries_deficit_bound():
    m = parse(r"\x.y (+) x x")
    v = tree_eq(prob_tree(App(m, m), 2, 6), prob_tree(parse("y"), 2, 6))
    assert isinstance(v, Unknown)
    assert v.bound == Dyadic(1, 6)


def test_unknown_with_nested_deficit():
    # roots have full mass, but a child distribution is short
    a = prob_tree(parse(r"\x.y Omega"), 2, 6)
    b = prob_tree(parse(r"\x.y (I Omega)"), 2, 6)
    v = tree_eq(a, b)
    # both children are bottom; structurally equal but hidden mass remains
    assert isinstance(v, Unknown)
    assert v.bound > ZERO


def test_level_mismatch_rejected():
    with pytest.raises(ValueError):
        tree_eq(prob_tree(parse("I"), 1, 2), prob_tree(parse("I"), 2, 2))


def test_equal_requires_no_hidden_mass():
    a = prob_tree(parse(r"\x.y Omega"), 2, 6)
    v = tree_eq(a, a)
    assert not isinstance(v, Equal)


@pytest.mark.parametrize(
    "term, level, fuel, expected",
    (
        (parse(r"\x.y Omega"), 2, 6, "Unknown(bound=2)"),
        (MM, 2, 6, "Unknown(bound=1/32)"),
        (parse("y (z (+) Omega)"), 3, 4, "Unknown(bound=1)"),
        (parse("I"), 3, 4, "Equal"),
        (parse(r"Theta (\f x.x (+) (f (a x) (+) f (b x))) z"), 6, 14, "Unknown(bound=1/64)"),
    ),
)
def test_equal_trees_built_apart_keep_their_verdict(term, level, fuel, expected):
    a, b = prob_tree(term, level, fuel), prob_tree(term, level, fuel)
    assert a is not b and a == b
    assert repr(tree_eq(a, b)) == expected


def test_monotonicity_example():
    # equality at a level propagates down to every smaller level
    a, b = parse(r"\x y.x y"), parse("I")
    for lvl in (4, 3, 2, 1):
        assert isinstance(
            tree_eq(prob_tree(a, lvl, 4), prob_tree(b, lvl, 4)), Equal
        )


def test_missing_mass_blocks_single_pair_shortcut():
    # y (+) I (I z) and z (+) I (I y) are equal once both I-steps are paid for
    a, b = parse("y (+) I (I z)"), parse("z (+) I (I y)")
    assert not isinstance(tree_eq(prob_tree(a, 1, 1), prob_tree(b, 1, 1)), Different)
    assert isinstance(tree_eq(prob_tree(a, 1, 2), prob_tree(b, 1, 2)), Equal)
    assert refute_bisim(lam_close(a), lam_close(b), fuel=1, tree_level=1) is None


def _verdict(a, b, level, fuel):
    return repr(tree_eq(prob_tree(parse(a), level, fuel), prob_tree(parse(b), level, fuel)))


def test_possible_mass_sums_keys_not_certainly_different():
    # the child of \x.y Omega is bottom, so y may still equal it: its weight
    # counts towards what the right side could place on y
    assert _verdict("y", r"\x.y Omega", 2, 2) == "Unknown(bound=1)"


@pytest.mark.parametrize(
    "a, b, expected",
    (
        ("y Omega (+) y I", "y (+) Omega", "Different(path=[], left=0, right=1/2)"),
        ("y (z (+) y)", "y (Omega (+) I)", "Different(path=[1], left=0, right=1/2)"),
    ),
)
def test_second_tree_outweighing_the_first_is_certified(a, b, expected):
    assert _verdict(a, b, 2, 8) == expected


def _spine(n, tail):
    body = tail
    for _ in range(n):
        body = f"x ({body})"
    return parse(r"\x." + body)


def test_tree_eq_compares_each_pair_of_value_trees_once(monkeypatch):
    calls = []
    separate_vt = trees._separate_vt

    def counting(*args):
        calls.append(args)
        return separate_vt(*args)

    monkeypatch.setattr(trees, "_separate_vt", counting)
    # a unique pair at every level is descended once, not compared again
    n = 7
    a, b = (prob_tree(_spine(n, tail), 8, 8) for tail in ("Omega", "y"))
    assert repr(tree_eq(a, b)) == "Unknown(bound=1)"
    assert len(calls) <= n
    # b's keys read the rows a's keys built
    calls.clear()
    walk = parse(r"Theta (\f x.x (+) (f (a x) (+) f (b x))) z")
    tree_eq(prob_tree(walk, 6, 14), prob_tree(walk, 6, 12))
    assert len(calls) <= 14_718
