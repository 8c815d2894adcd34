import pytest

from plam.prob import Distr, Dyadic, point
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
