"""Term syntax for the probabilistic λ-calculus: parsing, printing,
substitution, and head-form analysis.

Bound variables are nameless binder indices; free variables carry global
names. Structural equality on this representation is exactly
alpha-equivalence, and substitution is capture-free by construction.
"""

from __future__ import annotations

import re
from typing import List, Tuple


class Term:
    """Base class; subclasses are Var, Free, Lam, App, Choice.

    Every node carries `loose`, set once by its constructor: one more than
    the largest binder index that occurs free in the node, or 0 when none
    does (`Var` gives index+1, `Free` 0, `Lam` max(body.loose-1, 0), and
    `App`/`Choice` the max of their children). `reindex`, the one
    traversal that rewrites the free indices at or above a cutoff (for
    `shift`, substitution and opening binders), leaves a node with
    `loose <= cutoff` unchanged, so it returns that node itself: closed
    replacements such as each copy of `Theta` are shared, not rebuilt.
    """

    __slots__ = ("_hash", "loose")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{pretty(self)}>"


class Var(Term):
    """A bound variable, counting enclosing binders inside-out from 0."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("binder index must be non-negative")
        self.index = index
        self.loose = index + 1
        self._hash = hash((1, index))

    def __eq__(self, other):
        return type(other) is Var and other.index == self.index

    __hash__ = Term.__hash__


class Free(Term):
    """A free variable identified by a global name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.loose = 0
        self._hash = hash((2, name))

    def __eq__(self, other):
        return type(other) is Free and other.name == self.name

    __hash__ = Term.__hash__


class Lam(Term):
    __slots__ = ("body",)

    def __init__(self, body: Term):
        self.body = body
        self.loose = body.loose - 1 if body.loose else 0
        self._hash = hash((3, body._hash))

    def __eq__(self, other):
        # reduction shares closed subterms, so identity is the common case
        return self is other or (
            type(other) is Lam and self._hash == other._hash and other.body == self.body
        )

    __hash__ = Term.__hash__


class App(Term):
    __slots__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        # a conditional, not max(): node construction is the hot path
        self.loose = fun.loose if fun.loose >= arg.loose else arg.loose
        self._hash = hash((4, fun._hash, arg._hash))

    def __eq__(self, other):
        return self is other or (
            type(other) is App
            and self._hash == other._hash
            and other.fun == self.fun
            and other.arg == self.arg
        )

    __hash__ = Term.__hash__


class Choice(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self.loose = left.loose if left.loose >= right.loose else right.loose
        self._hash = hash((5, left._hash, right._hash))

    def __eq__(self, other):
        return self is other or (
            type(other) is Choice
            and self._hash == other._hash
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Term.__hash__


def reindex(
    t: Term, repls: Tuple[Term, ...], by: int, cutoff: int = 0, memo: dict | None = None
) -> Term:
    """Rewrite the binder indices at or above `cutoff` in one pass.

    Index `cutoff + i` with `i < len(repls)` becomes `repls[i]`, shifted
    past the `cutoff` binders; every higher index moves by `by`. This is
    the simultaneous substitution (repls · ↑by) of explicit-substitution
    calculi, so shifting, β-contraction and binder opening all use it.

    `memo`, when given, maps (subterm, cutoff) to its rewrite and is read
    and extended on the way; it must only ever serve one `repls` and `by`.
    A subterm met again, in this call or a later one sharing the memo, is
    then the stored node, not a rebuilt copy.
    """
    if t.loose <= cutoff:
        return t
    if memo is not None:
        out = memo.get((t, cutoff))
        if out is not None:
            return out
    if isinstance(t, Var):
        i = t.index - cutoff
        if i < len(repls):
            out = reindex(repls[i], (), cutoff) if cutoff else repls[i]
        else:
            out = Var(t.index + by)
    elif isinstance(t, Lam):
        out = Lam(reindex(t.body, repls, by, cutoff + 1, memo))
    elif isinstance(t, App):
        out = App(reindex(t.fun, repls, by, cutoff, memo), reindex(t.arg, repls, by, cutoff, memo))
    else:
        out = Choice(
            reindex(t.left, repls, by, cutoff, memo), reindex(t.right, repls, by, cutoff, memo)
        )
    if memo is not None:
        memo[(t, cutoff)] = out
    return out


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every binder index at or above `cutoff`."""
    return reindex(t, (), by, cutoff)


def substitute(body: Term, arg: Term, _table: dict | None = None) -> Term:
    """Capture-free substitution of a binder's body: (λ.body) arg ↦ body[arg].

    `_table` is for evaluators, which pass one per call: it maps each
    argument to the `reindex` memo of its substitutions, so a subterm that
    bodies share with earlier ones is rewritten once per argument, and a
    repeated (body, arg) is answered from that memo without a traversal.
    """
    if _table is None:
        return reindex(body, (arg,), -1)
    memo = _table.get(arg)
    if memo is None:
        memo = _table[arg] = {}
    out = memo.get((body, 0))
    if out is None:
        # stored here too, as `reindex` keeps no body free of index 0
        out = memo[(body, 0)] = reindex(body, (arg,), -1, 0, memo)
    return out


def subterms(t: Term) -> List[Term]:
    """Every subterm occurrence of `t`, `t` first, collected without recursion."""
    out = [t]
    # the loop runs over the list it extends, so it reaches every node
    for s in out:
        if isinstance(s, Lam):
            out.append(s.body)
        elif isinstance(s, App):
            out.append(s.fun)
            out.append(s.arg)
        elif isinstance(s, Choice):
            out.append(s.left)
            out.append(s.right)
    return out


def size(t: Term) -> int:
    return len(subterms(t))


def free_vars(t: Term) -> frozenset:
    return frozenset(s.name for s in subterms(t) if isinstance(s, Free))


def is_closed(t: Term) -> bool:
    """No free name and no dangling binder index."""
    return t.loose == 0 and not free_vars(t)


def lam_close(t: Term, names: frozenset | None = None) -> Term:
    """λ-close a term over `names` (default: its free names), binding them
    in lexicographic order (first name becomes the outermost binder)."""
    if t.loose:
        raise ValueError("dangling binder index in λ-closing")
    order = sorted(free_vars(t) if names is None else names)
    if not order:
        return t
    # the distance of each name's binder from the top of the term
    rank = {name: len(order) - 1 - i for i, name in enumerate(order)}

    def bind(t: Term, depth: int) -> Term:
        if isinstance(t, Free):
            return Var(depth + rank[t.name]) if t.name in rank else t
        if isinstance(t, Lam):
            return Lam(bind(t.body, depth + 1))
        if isinstance(t, App):
            return App(bind(t.fun, depth), bind(t.arg, depth))
        if isinstance(t, Choice):
            return Choice(bind(t.left, depth), bind(t.right, depth))
        return t

    t = bind(t, 0)
    for _ in order:
        t = Lam(t)
    return t


# ---------------------------------------------------------------------------
# Head-form analysis


class HeadForm:
    """The head decomposition λx₁…xₙ.h M₁…Mₘ that every term has.

    `binders` is n, `head` is h as seen under the n stripped binders and
    `args` is M₁…Mₘ. The head decides the term's kind: a `Var` or `Free`
    head makes an hnf, a `Choice` head a choice redex, and a `Lam` head a
    β-redex with `args[0]` its argument (then `args` is non-empty, since
    binder stripping was maximal).

    `up` links the form into enclosing frames, each a `HeadForm` whose
    head is the hole λ.[ ] (stored as None): the form sits in the body of
    the frame's β-redex λᵏ.(λ.[ ]) N⃗. Forms compare and hash by all four
    parts, so two forms are equal exactly when the terms they decompose
    are, and frames are shared between the forms that reduction derives.
    """

    __slots__ = ("binders", "head", "args", "up", "_hash")

    def __init__(self, binders: int, head: Term | None, args: Tuple[Term, ...], up=None):
        self.binders = binders
        self.head = head
        self.args = args
        self.up = up
        self._hash = hash((binders, head, args, up))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        return self is other or (
            type(other) is HeadForm
            and self._hash == other._hash
            and (self.binders, self.head, self.args, self.up)
            == (other.binders, other.head, other.args, other.up)
        )

    def plug(self, h: Term, args: Tuple[Term, ...]) -> Term:
        """λx₁…xₙ.h args, under this form's n binders."""
        for a in args:
            h = App(h, a)
        for _ in range(self.binders):
            h = Lam(h)
        return h


def classify(t: Term) -> HeadForm:
    """The head form λx₁…xₙ.h M₁…Mₘ of `t`; `plug(head, args)` rebuilds `t`."""
    binders = 0
    while isinstance(t, Lam):
        binders += 1
        t = t.body
    rev_args: List[Term] = []
    while isinstance(t, App):
        rev_args.append(t.arg)
        t = t.fun
    rev_args.reverse()
    return HeadForm(binders, t, tuple(rev_args))


def is_hnf(t: Term) -> bool:
    """Whether the head of `t` is a variable; builds nothing."""
    while isinstance(t, Lam):
        t = t.body
    while isinstance(t, App):
        t = t.fun
    return isinstance(t, (Var, Free))


# ---------------------------------------------------------------------------
# Parsing

# Greatest height, in Lam, App and Choice nodes on one path from the
# root, of a term that `parse` returns, and the deepest nesting of
# binders, parentheses and choices that the parser recurses through while
# it reads. A long application spine costs the parser no recursion, but
# it is one level higher per argument. The evaluator and printer recurse
# once or more per level, so the cap keeps every term that parses well
# inside Python's default stack.
MAX_NESTING = 200

# one group per token kind, tried in order, so "(+)" is read before "(";
# whitespace matches no group, and any other character is `bad`
_TOKEN = re.compile(
    r"(?P<oplus>\(\+\)|⊕)|(?P<lambda>[\\λ])|(?P<dot>\.)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<bad>\S)"
)


class ResourceCapExceeded(RuntimeError):
    """A fixed resource cap (nesting, reduction states, trace nodes) was hit."""


def _check_count(value: int, what: str) -> None:
    """Reject a count bound (fuel, steps, cap, level, depth) that is not a
    non-negative int, a `bool` included; every evaluator and game checks
    its bounds here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        tokens.append((kind, m[0], m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def check_depth(self, depth: int) -> None:
        if depth > MAX_NESTING:
            raise ResourceCapExceeded(
                f"input nests deeper than {MAX_NESTING} levels (at position {self.peek()[2]})"
            )

    def parse_term(self, env: List[str], depth: int) -> Term:
        self.check_depth(depth)
        if self.peek()[0] == "lambda":
            # the body extends maximally to the right, taking any choice
            self.next()
            names = []
            while self.peek()[0] == "name":
                names.append(self.next()[1])
            if not names:
                tok = self.peek()
                raise ParseError("expected binder name after lambda", tok[2])
            self.expect("dot")
            body = self.parse_term(list(reversed(names)) + env, depth + len(names))
            for _ in names:
                body = Lam(body)
            return body
        left = self.parse_app(env, depth)
        if self.peek()[0] == "oplus":
            self.next()
            right = self.parse_term(env, depth + 1)
            return Choice(left, right)
        return left

    def parse_app(self, env: List[str], depth: int) -> Term:
        t = self.parse_atom(env, depth)
        while self.peek()[0] in ("name", "lparen"):
            t = App(t, self.parse_atom(env, depth))
        return t

    def parse_atom(self, env: List[str], depth: int) -> Term:
        kind, value, pos = self.next()
        if kind == "name":
            if value in env:
                return Var(env.index(value))
            if value in CONSTANTS:
                return shift(CONSTANTS[value], len(env))
            return Free(value)
        if kind == "lparen":
            t = self.parse_term(env, depth + 1)
            self.expect("rparen")
            return t
        raise ParseError(f"unexpected token {value!r}", pos)


def _check_height(t: Term) -> None:
    """Refuse a term higher than MAX_NESTING, one level at a time."""
    level = [t]
    for _ in range(MAX_NESTING + 1):
        below = []
        for s in level:
            if isinstance(s, Lam):
                below.append(s.body)
            elif isinstance(s, App):
                below.append(s.fun)
                below.append(s.arg)
            elif isinstance(s, Choice):
                below.append(s.left)
                below.append(s.right)
        if not below:
            return
        level = below
    raise ResourceCapExceeded(f"term nests deeper than {MAX_NESTING} levels")


def parse(text: str) -> Term:
    """Parse surface syntax into a nameless Term.

    Choice binds loosest and associates right; application is left
    associative; λ-bodies extend maximally to the right. Unbound names are
    free variables unless they match a named constant. Input nested deeper
    than MAX_NESTING, or a term higher than it, raises
    ResourceCapExceeded.
    """
    parser = _Parser(text)
    t = parser.parse_term([], 0)
    parser.expect("eof")
    _check_height(t)
    return t


# ---------------------------------------------------------------------------
# Printing

_NAME_POOL = ["x", "y", "z", "u", "v", "w", "s", "t", "p", "q", "r"]

_TOP, _CHOICE_L, _APP_F, _APP_A = range(4)


def _fresh_name(used) -> str:
    for name in _NAME_POOL:
        if name not in used:
            return name
    k = 1
    while True:
        for base in _NAME_POOL:
            cand = f"{base}{k}"
            if cand not in used:
                return cand
        k += 1


def pretty(t: Term) -> str:
    """Print with minimal parentheses; re-parsing yields an α-equal term."""
    taken = set(free_vars(t))

    def go(t: Term, env: List[str], pos: int) -> str:
        if isinstance(t, Var):
            if t.index < len(env):
                return env[t.index]
            return f"?{t.index - len(env)}"
        if isinstance(t, Free):
            return t.name
        if isinstance(t, Lam):
            names = []
            body = t
            while isinstance(body, Lam):
                name = _fresh_name(taken.union(env, names))
                names.append(name)
                body = body.body
            inner = go(body, list(reversed(names)) + env, _TOP)
            text = "\\" + " ".join(names) + "." + inner
            return f"({text})" if pos in (_CHOICE_L, _APP_F, _APP_A) else text
        if isinstance(t, App):
            text = go(t.fun, env, _APP_F) + " " + go(t.arg, env, _APP_A)
            return f"({text})" if pos == _APP_A else text
        text = go(t.left, env, _CHOICE_L) + " (+) " + go(t.right, env, _TOP)
        return f"({text})" if pos != _TOP else text

    return go(t, [], _TOP)


# ---------------------------------------------------------------------------
# Named constants

_BASE_CONSTANTS = {
    "I": r"\x.x",
    "T": r"\x y.x",
    "F": r"\x y.y",
    "Delta": r"\x.x x",
    "Theta": r"(\x y.y (x x y)) (\x y.y (x x y))",
}

# the base sources name no constant, so each parses against the table
# while it is being filled
CONSTANTS = {}
for _name, _src in _BASE_CONSTANTS.items():
    CONSTANTS[_name] = parse(_src)
CONSTANTS["Omega"] = App(CONSTANTS["Delta"], CONSTANTS["Delta"])
CONSTANTS["hid"] = Choice(CONSTANTS["Omega"], CONSTANTS["I"])

I = CONSTANTS["I"]
T = CONSTANTS["T"]
F = CONSTANTS["F"]
DELTA = CONSTANTS["Delta"]
OMEGA = CONSTANTS["Omega"]
THETA = CONSTANTS["Theta"]
HID = CONSTANTS["hid"]
