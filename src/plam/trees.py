"""Level-indexed probabilistic trees of head normal forms with infinite
η-expansion, in a finite canonical representation.

A probabilistic tree is a level plus a `prob.Approx` over value trees: a
lower bound on the tree of the limit distribution, and whether that bound
is exact. Its deficit is the mass the bound leaves out, zero when exact;
its uncertainty adds, for each entry, the weight times the largest
uncertainty among the entry's children. It bounds the mass that may
still move anywhere in the tree, counting a node's missing mass once, so
it is at most 1. A value tree of level
ℓ ≥ 1 abstracts an hnf λx₁…xₙ.y M₁…Mₘ as a head reference plus level-(ℓ−1)
child trees. The infinite binder sequence and the infinite tail of
η-children are never materialized: a node stores the offset n−m together
with a maximally trimmed explicit child list, and comparison pads the
shorter list with the η-trees of the binder positions the implicit tail
denotes. Binder references are positional, rendered as "@depth.position"
free names so that corresponding nodes of two trees use identical
references.

Each node builds one canonical `key` from its children's keys; equality,
hashing and the order of a tree's entries all read it.

`tree_eq` searches only for a certified difference, a discrepancy beyond
every deficit allowance, comparing each pair of value trees once; `Equal`
and `Unknown` are formed once, at the root.

At level 1 every child is the bottom tree, so the offset carries no
information and is normalized away; only the head survives.
"""

from __future__ import annotations

from typing import Tuple

from .bigstep import _approx, _tables
from .prob import Approx, Distr, Dyadic, ONE, point
from .syntax import Free, Term, Var, _check_count, classify, reindex


def binder_ref(depth: int, pos: int) -> str:
    return f"@{depth}.{pos}"


class _Keyed:
    """Equality and hashing by the canonical `key` built at construction."""

    __slots__ = ("key", "_hash")

    def _set_key(self, key) -> None:
        self.key = key
        self._hash = hash(key)

    def __eq__(self, other):
        return type(other) is type(self) and other._hash == self._hash and other.key == self.key

    def __hash__(self):
        return self._hash


class ValueTree(_Keyed):
    """One hnf node: head reference, offset and trimmed child trees; its
    level is that of the `ProbTree` holding it."""

    __slots__ = ("depth", "head", "offset", "args")

    def __init__(self, depth: int, head: str, offset: int, args: Tuple["ProbTree", ...]):
        self.depth = depth
        self.head = head
        self.offset = offset
        self.args = args
        self._set_key((depth, head, offset, tuple(a.key for a in args)))

    @property
    def binders(self) -> int:
        """Binder count of the maximally trimmed representative."""
        return max(self.offset + len(self.args), 0)

    def __repr__(self):
        return f"VT({self.head} d{self.offset} args{len(self.args)})"


class ProbTree(_Keyed):
    """A level plus a `prob.Approx` over value trees; `entries` lists its
    bound in key order. `uncertainty` is computed once, from the children's."""

    __slots__ = ("level", "approx", "entries", "uncertainty")

    def __init__(self, level: int, approx: Approx):
        self.level = level
        self.approx = approx
        self.entries = tuple(sorted(approx.distr.items(), key=lambda kv: kv[0].key))
        self._set_key((level, tuple((vt.key, (w.num, w.exp)) for vt, w in self.entries)))
        # zero terms are skipped, so an exact subtree costs no arithmetic
        u = self.deficit
        for vt, w in self.entries:
            if vt.args:
                worst = max(child.uncertainty for child in vt.args)
                if worst:
                    u = u + w * worst
        self.uncertainty = u

    @property
    def deficit(self) -> Dyadic:
        return self.approx.deficit

    def __repr__(self):
        return f"PT(l{self.level} {len(self.entries)} keys deficit={self.deficit})"


def bottom() -> ProbTree:
    return ProbTree(0, Approx(Distr(), False))


def eta_tree(name: str, level: int, depth: int = 0) -> ProbTree:
    """The level-ℓ tree of the bare variable `name` at a given node depth."""
    _check_count(level, "tree level")
    if level == 0:
        return bottom()
    return ProbTree(level, Approx(point(ValueTree(depth, name, 0, ())), True))


def _open_binders(t: Term, n: int, depth: int) -> Term:
    """Replace references to the n stripped binders by positional names."""
    if t.loose > n:
        raise ValueError("dangling binder index in tree construction")
    return reindex(t, tuple(Free(binder_ref(depth, n - rel)) for rel in range(n)), -n)


def value_tree(h: Term, level: int, fuel: int) -> ValueTree:
    """Canonical value tree of a head normal form."""
    _check_count(level, "tree level")
    _check_count(fuel, "fuel")
    if level < 1:
        raise ValueError("value trees exist at level >= 1 only")
    return _value_tree(h, level, fuel, 0, _tables())


def _value_tree(h: Term, level: int, fuel: int, depth: int, tables: tuple) -> ValueTree:
    view = classify(h)
    if not isinstance(view.head, (Var, Free)):
        raise ValueError("value_tree requires a head normal form")
    n = view.binders
    head = view.head
    if isinstance(head, Var):
        if head.index >= n:
            raise ValueError("dangling head index in tree construction")
        head_name = binder_ref(depth, n - head.index)
    else:
        head_name = head.name
    if level == 1:
        return ValueTree(depth, head_name, 0, ())
    child_level = level - 1
    args = [
        _prob_tree(_open_binders(a, n, depth), child_level, fuel, depth + 1, tables)
        for a in view.args
    ]
    offset = n - len(view.args)
    while args and len(args) + offset >= 1:
        if args[-1] != eta_tree(binder_ref(depth, len(args) + offset), child_level, depth + 1):
            break
        args.pop()
    return ValueTree(depth, head_name, offset, tuple(args))


def prob_tree(m: Term, level: int, fuel: int) -> ProbTree:
    """Group the fuel approximant of m by value tree at the given level;
    every child is evaluated at the same fuel, through one set of
    evaluation tables (`plam.bigstep`) that live for this call only."""
    _check_count(level, "tree level")
    _check_count(fuel, "fuel")
    return _prob_tree(m, level, fuel, 0, _tables())


def _prob_tree(m: Term, level: int, fuel: int, depth: int, tables: tuple) -> ProbTree:
    if level == 0:
        return bottom()
    res = _approx(m, fuel, tables)
    trees = res.distr.map_support(lambda h: _value_tree(h, level, fuel, depth, tables))
    return ProbTree(level, Approx(trees, res.exact))


# ---------------------------------------------------------------------------
# Equality verdicts


class Equal:
    def __repr__(self):
        return "Equal"


class Different:
    __slots__ = ("path", "left", "right")

    def __init__(self, path: Tuple[int, ...], left, right):
        self.path = path
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Different(path={list(self.path)}, left={self.left}, right={self.right})"


class Unknown:
    __slots__ = ("bound",)

    def __init__(self, bound: Dyadic):
        self.bound = bound

    def __repr__(self):
        return f"Unknown(bound={self.bound})"


def _child(vt: ValueTree, j: int, level: int) -> ProbTree:
    """The j-th child of vt, an η-tree past its explicit child list."""
    if j <= len(vt.args):
        return vt.args[j - 1]
    return eta_tree(binder_ref(vt.depth, j + vt.offset), level - 1, vt.depth + 1)


def _separate_vt(a: ValueTree, b: ValueTree, level: int, path: Tuple[int, ...]):
    if a.head != b.head or a.depth != b.depth:
        return Different(path, a.head, b.head)
    if a.offset != b.offset:
        return Different(path, f"offset {a.offset}", f"offset {b.offset}")
    for j in range(1, max(len(a.args), len(b.args)) + 1):
        d = _separate(_child(a, j, level), _child(b, j, level), path + (j,))
        if d is not None:
            return d
    return None


def _separate(a: ProbTree, b: ProbTree, path: Tuple[int, ...]):
    """A certified difference between two trees, or None."""
    if a == b:  # every weight is matched by itself
        return None
    # descend through a unique pair of weight 1 (else missing mass may reach
    # either key); if that finds nothing, each weight of 1 is matched
    if len(a.entries) == 1 == len(b.entries) and a.entries[0][1] == b.entries[0][1] == ONE:
        return _separate_vt(a.entries[0][0], b.entries[0][0], a.level, path)
    # certified weight difference: mass on a key exceeds everything the
    # other side could possibly place on trees equal to it
    rows = []  # per key of a, the keys of b not certainly apart from it
    for k, w in a.entries:
        rows.append({k2 for k2, _ in b.entries if k2 == k or _separate_vt(k, k2, a.level, path) is None})
        if w > b.approx.upper(rows[-1]):
            return Different(path, w, b.approx.lower((k,)))
    # a None from `_separate_vt` is symmetric, so a's rows serve b's keys
    for k2, w in b.entries:
        near = [k for (k, _), row in zip(a.entries, rows) if k2 in row]
        if w > a.approx.upper(near):
            return Different(path, a.approx.lower((k2,)), w)
    return None


def tree_eq(a: ProbTree, b: ProbTree):
    """Three-valued equality on probabilistic trees: a certified `Different`
    if the search finds one, else Equal when the keys coincide with no mass
    deficit anywhere, else Unknown with an error bound: the two trees'
    uncertainties added."""
    if a.level != b.level:
        raise ValueError("tree level mismatch")
    d = _separate(a, b, ())
    if d is not None:
        return d
    # every weight is positive, so a zero bound means no hidden mass
    bound = a.uncertainty + b.uncertainty
    return Equal() if a == b and not bound else Unknown(bound)
