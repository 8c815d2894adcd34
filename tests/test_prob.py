from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plam.prob import ONE, Approx, Distr, Dyadic, _Scaled, point
from plam.syntax import parse

from oracles import frac


def test_canonical_form():
    assert Dyadic(2, 1) == Dyadic(1, 0)
    assert Dyadic(4, 3) == Dyadic(1, 1)
    assert Dyadic(0, 7) == Dyadic(0)
    d = Dyadic(6, 4)
    assert d.num == 3 and d.exp == 3


def test_rejects_negative():
    with pytest.raises(ValueError):
        Dyadic(-1)
    with pytest.raises(ValueError):
        Dyadic(1, -2)


def test_immutable():
    d = Dyadic(1, 1)
    with pytest.raises(AttributeError):
        d.num = 5


def test_parse_and_str():
    assert Dyadic.parse("3/8") == Dyadic(3, 3)
    assert Dyadic.parse("1") == Dyadic(1)
    assert Dyadic.parse("0/4") == Dyadic(0)
    assert str(Dyadic(3, 3)) == "3/8"
    assert str(Dyadic(2)) == "2"
    with pytest.raises(ValueError):
        Dyadic.parse("1/3")


def test_arithmetic_matches_fractions():
    a, b = Dyadic(3, 3), Dyadic(5, 4)
    assert frac(a + b) == frac(a) + frac(b)
    assert frac(a - b) == frac(a) - frac(b)
    assert frac(a * b) == frac(a) * frac(b)


def test_comparisons():
    assert Dyadic(1, 2) < Dyadic(1, 1) <= Dyadic(1, 1) < Dyadic(1)
    assert Dyadic(3, 2) > Dyadic(1, 1)
    assert not Dyadic(0)
    assert Dyadic(1, 5)


def test_subtraction_below_zero_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, 2) - Dyadic(1, 1)


def test_distr_merges_duplicate_keys():
    t = parse("I")
    d = Distr([(t, Dyadic(1, 2)), (t, Dyadic(1, 2))])
    assert d.weight(t) == Dyadic(1, 1)
    assert len(d) == 1


def test_distr_drops_zero_weights():
    t = parse("I")
    d = Distr([(t, Dyadic(0))])
    assert not d and t not in d


def test_distr_mass_cap():
    t, u = parse("I"), parse("T")
    with pytest.raises(ValueError):
        Distr([(t, Dyadic(3, 2)), (u, Dyadic(1, 1))])


def test_distr_scale_add_leq():
    t, u = parse("I"), parse("T")
    d = Distr([(t, Dyadic(1, 1)), (u, Dyadic(1, 2))])
    half = Distr((k, w * Dyadic(1, 1)) for k, w in d.items())
    assert half.weight(t) == Dyadic(1, 2)
    total = Distr(list(half.items()) + list(half.items()))
    assert total == d
    assert half.leq(d) and not d.leq(half)
    assert Distr().leq(d)


def test_distr_map_and_restrict():
    t, u = parse("I"), parse("T")
    d = Distr([(t, Dyadic(1, 1)), (u, Dyadic(1, 2))])
    swapped = d.map_support(lambda x: u if x == t else t)
    assert swapped.weight(u) == Dyadic(1, 1)
    assert d.weight(t) == Dyadic(1, 1)
    assert d.mass == Dyadic(3, 2)
    assert d.deficit == Dyadic(1, 2)


def test_point_and_hash():
    t = parse("I")
    assert point(t).weight(t) == Dyadic(1)
    assert point(t) == point(parse(r"\z.z"))
    # nothing keys a table by a distribution, so Distr is unhashable
    with pytest.raises(TypeError):
        hash(point(t))


def test_distr_immutable():
    d = point(parse("I"))
    with pytest.raises(AttributeError):
        d._mass = Dyadic(0)


# integer weights over 2^exp: up to six keys, zeros and repeats included
# in the pairs, with the mass allowed to pass 1
scaled_weights = st.integers(0, 6).flatmap(
    lambda exp: st.tuples(
        st.lists(st.tuples(st.sampled_from("abcdef"), st.integers(0, 1 << exp)), max_size=6),
        st.just(exp),
    )
)


@settings(max_examples=300, deadline=None)
@given(scaled_weights, st.lists(st.sampled_from("abcdef"), max_size=4), st.booleans())
# a key whose first weight is zero comes after one first weighed later
@example(([("b", 0), ("a", 1), ("b", 1)], 1), [], False)
def test_distr_from_integers_equals_distr_from_dyadics(weights, keys, exact):
    pairs, exp = weights
    # keys in the order of their first positive weight, as the pairs put
    # them, then the keys that only ever weigh zero
    nums: dict = {}
    for k, n in pairs:
        if n:
            nums[k] = nums.get(k, 0) + n
    for k, _ in pairs:
        nums.setdefault(k, 0)
    total = Fraction(sum(nums.values()), 1 << exp)
    if total > 1:
        with pytest.raises(ValueError, match="exceeds 1"):
            Distr(_Scaled(nums, exp))
        with pytest.raises(ValueError, match="exceeds 1"):
            Distr((k, Dyadic(n, exp)) for k, n in pairs)
        return
    d = Distr(_Scaled(dict(nums), exp))
    e = Distr((k, Dyadic(n, exp)) for k, n in pairs)
    assert d == e and repr(d) == repr(e)
    assert list(d.items()) == list(e.items())
    # zero weights are dropped, and the order is that of the first positive weight
    assert list(d.support()) == [k for k in dict.fromkeys(k for k, n in pairs if n) if nums[k]]
    assert (d.mass, d.deficit) == (e.mass, e.deficit)
    assert frac(d.mass) == total and frac(d.deficit) == 1 - total
    for k in "abcdefg":
        assert d.weight(k) == e.weight(k)
        assert frac(d.weight(k)) == Fraction(nums.get(k, 0), 1 << exp)
    # lowest common form: the exponent is the largest canonical one
    num, top = d.numerators()
    assert top == max((w.exp for _, w in d.items()), default=0)
    assert all(Dyadic(n, top) == d.weight(k) for k, n in num.items())
    # everything merged onto one key: {a: 1/2, b: 1/2} becomes {k: 1} at exponent 0
    merged = d.map_support(lambda k: "k")
    assert merged == Distr([("k", d.mass)]) if d else not merged
    assert merged.numerators()[1] == (d.mass.exp if d else 0)
    half = Distr((k, w * Dyadic(1, 1)) for k, w in d.items())
    assert half.leq(d) and d.leq(e) and (d.leq(half) == (not d))
    a = Approx(d, exact)
    lower = sum((Fraction(nums.get(k, 0), 1 << exp) for k in keys), Fraction(0))
    assert frac(a.lower(keys)) == lower
    assert frac(a.upper(keys)) == lower + (0 if exact else 1 - total)
    assert a.interval(keys) == (a.lower(keys), a.upper(keys))
    assert a.upper_mass == (d.mass if exact else ONE)
    assert frac(a.upper_mass) == total + (0 if exact else 1 - total)


def test_map_support_merges_to_a_lower_exponent():
    d = Distr(_Scaled({"a": 1, "b": 1}, 1))
    merged = d.map_support(lambda k: "k")
    assert merged.numerators() == ({"k": 1}, 0)
    assert merged == Distr([("k", Dyadic(1))])
