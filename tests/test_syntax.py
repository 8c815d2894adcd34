import pytest

from plam import syntax
from plam.syntax import (
    App,
    Choice,
    CONSTANTS,
    Free,
    Lam,
    MAX_NESTING,
    ParseError,
    Var,
    classify,
    free_vars,
    is_closed,
    is_hnf,
    lam_close,
    parse,
    pretty,
    size,
    substitute,
)


def test_parse_basics():
    assert parse("x") == Free("x")
    assert parse(r"\x.x") == Lam(Var(0))
    assert parse(r"\x y.x") == Lam(Lam(Var(1)))
    assert parse("a b c") == App(App(Free("a"), Free("b")), Free("c"))


def test_choice_binds_loosest_and_right_assoc():
    t = parse("a (+) b (+) c")
    assert t == Choice(Free("a"), Choice(Free("b"), Free("c")))
    assert parse(r"\x.x (+) y") == Lam(Choice(Var(0), Free("y")))
    assert parse("a b (+) c") == Choice(App(Free("a"), Free("b")), Free("c"))


def test_lambda_body_extends_right():
    assert parse(r"\x.x x") == Lam(App(Var(0), Var(0)))
    assert parse(r"(\x.x) y") == App(Lam(Var(0)), Free("y"))


def test_unicode_syntax():
    assert parse("λx.x ⊕ y") == parse(r"\x.x (+) y")


def test_constants_and_shadowing():
    assert parse("I") == Lam(Var(0))
    assert parse("Omega") == CONSTANTS["Omega"]
    # a binder named like a constant shadows it
    assert parse(r"\I.I") == Lam(Var(0))
    assert parse(r"\x.Delta") == Lam(Lam(App(Var(0), Var(0))))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("a $ b")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse("(a b")
    with pytest.raises(ParseError):
        parse(r"\.x")
    with pytest.raises(ParseError):
        parse("")


def test_bad_character_is_reported_before_the_nesting_cap():
    # the whole input is tokenized before the parser recurses into it
    text = "(" * (MAX_NESTING + 10) + "x $"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == len(text) - 1


def test_alpha_equivalence_is_structural():
    assert parse(r"\x.x") == parse(r"\y.y")
    assert parse(r"\x y.x") != parse(r"\x y.y")


def test_size():
    assert size(parse("x")) == 1
    assert size(parse(r"\x.x x")) == 4
    assert size(parse("a (+) b")) == 3


def test_free_vars_and_closed():
    t = parse(r"\x.x y (+) z")
    assert free_vars(t) == frozenset({"y", "z"})
    assert not is_closed(t)
    assert is_closed(parse("Omega"))
    # a dangling binder index is not closed either
    assert not is_closed(Var(0))
    assert not is_closed(Lam(Var(1)))


def test_substitute_is_capture_free():
    # ((\x y.x) y) contracts to \z.y, never \y.y
    t = parse(r"(\x y.x) y")
    form = classify(t)
    assert isinstance(form.head, Lam)
    assert form.plug(substitute(form.head.body, form.args[0]), form.args[1:]) == Lam(Free("y"))


def test_substitute_adjusts_indices():
    # (\x.\y.x y) (\z.z)  ->  \y.(\z.z) y
    body = parse(r"\x y.x y").body
    assert substitute(body, parse("I")) == parse(r"\y.I y")


def _counting_reindex(monkeypatch):
    calls = []
    reindex = syntax.reindex

    def counted(*args):
        calls.append(args)
        return reindex(*args)

    monkeypatch.setattr(syntax, "reindex", counted)
    return calls


@pytest.mark.parametrize("src", [r"\x y.x (x y)", r"\x.I"], ids=("open", "closed"))
def test_substitution_table_answers_a_repeated_pair_without_reindex(monkeypatch, src):
    body, arg = parse(src).body, parse("T")
    calls = _counting_reindex(monkeypatch)
    table = {}
    first = substitute(body, arg, table)
    assert calls and list(table) == [arg]
    calls.clear()
    assert substitute(body, arg, table) is first
    assert not calls


def test_substitution_without_a_table_stores_nothing(monkeypatch):
    body, arg = parse(r"\x y.x (x y)").body, parse("T")
    calls = _counting_reindex(monkeypatch)
    first = substitute(body, arg)
    count = len(calls)
    second = substitute(body, arg)
    assert count and len(calls) == 2 * count
    assert second == first and second is not first


def test_lam_close_order():
    t = App(Free("b"), Free("a"))
    closed = lam_close(t)
    # "a" is bound first (outermost), so the body references it as index 1
    assert closed == Lam(Lam(App(Var(0), Var(1))))
    assert is_closed(closed)


@pytest.mark.parametrize("text", ("Omega", r"\x.x (a (+) b)", "I"))
def test_lam_close_binding_nothing_returns_the_term(text):
    t = parse(text)
    assert lam_close(t, frozenset()) is t
    if is_closed(t):
        assert lam_close(t) is t


def test_lam_close_rejects_dangling_index():
    # binding y would capture the dangling index: \x.x x
    with pytest.raises(ValueError, match="dangling binder index"):
        lam_close(App(Var(0), Free("y")))


def test_classify_hnf_view():
    v = classify(parse(r"\x y.x a b"))
    assert v.binders == 2
    assert v.head == Var(1)
    assert v.args == (Free("a"), Free("b"))
    assert v.plug(v.head, v.args) == parse(r"\x y.x a b")


def test_classify_neutral():
    v = classify(parse("y a"))
    assert v.binders == 0 and v.head == Free("y") and v.args == (Free("a"),)


def test_classify_beta_redex():
    t = parse(r"\x.(\y.y) a b")
    form = classify(t)
    assert isinstance(form.head, Lam)
    assert form.binders == 1 and form.args == (Free("a"), Free("b"))
    assert form.plug(form.head, form.args) == t


def test_classify_choice_redex():
    t = parse(r"\x.(a (+) b) c")
    form = classify(t)
    assert isinstance(form.head, Choice)
    assert form.head.left == Free("a") and form.head.right == Free("b")
    assert form.binders == 1 and form.args == (Free("c"),)
    assert form.plug(form.head, form.args) == t


def test_is_hnf():
    assert is_hnf(parse(r"\x.x Omega"))
    assert is_hnf(parse("y"))
    assert not is_hnf(parse("Omega"))
    assert not is_hnf(parse("a (+) b"))


def test_pretty_round_trip_on_samples():
    samples = [
        r"\x.x",
        r"\x y.x (y (+) x)",
        "a b c (+) d",
        r"(\x.x x) (\x.x x)",
        r"\x.(x (+) \y.y) x",
        "a (b c)",
    ]
    for src in samples:
        t = parse(src)
        assert parse(pretty(t)) == t


def test_pretty_avoids_free_name_capture():
    # the bound variable must not print as the free name y
    t = Lam(App(Var(0), Free("x")))
    s = pretty(t)
    assert parse(s) == t
    assert not s.startswith("\\x")
