"""Level-indexed probabilistic trees of head normal forms with infinite
η-expansion, in a finite canonical representation.

A value tree of level ℓ ≥ 1 abstracts an hnf λx₁…xₙ.y M₁…Mₘ as a head
reference plus level-(ℓ−1) child trees. The infinite binder sequence and
the infinite tail of η-children are never materialized: a node stores the
offset n−m together with a maximally trimmed explicit child list, and
equality pads the shorter list with the η-trees of the binder positions
the implicit tail denotes. Binder references are positional, rendered as
"@depth.position" free names so that corresponding nodes of two trees use
identical references.

At level 1 every child is the bottom tree, so the offset carries no
information and is normalized away; only the head survives.
"""

from __future__ import annotations

from typing import Tuple

from .bigstep import eval_fuel
from .prob import Dyadic, ONE, ZERO
from .syntax import Free, Term, Var, classify, reindex


def binder_ref(depth: int, pos: int) -> str:
    return f"@{depth}.{pos}"


class ValueTree:
    __slots__ = ("level", "depth", "head", "offset", "args", "_hash")

    def __init__(self, level: int, depth: int, head: str, offset: int, args: Tuple["ProbTree", ...]):
        self.level = level
        self.depth = depth
        self.head = head
        self.offset = offset
        self.args = args
        self._hash = hash((level, depth, head, offset, args))

    def __eq__(self, other):
        return (
            isinstance(other, ValueTree)
            and other._hash == self._hash
            and other.level == self.level
            and other.depth == self.depth
            and other.head == self.head
            and other.offset == self.offset
            and other.args == self.args
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.head, self.offset, tuple(a.sort_key() for a in self.args))

    @property
    def binders(self) -> int:
        """Binder count of the maximally trimmed representative."""
        return max(self.offset + len(self.args), 0)

    def __repr__(self):
        return f"VT(l{self.level} {self.head} d{self.offset} args{len(self.args)})"


class ProbTree:
    __slots__ = ("level", "entries", "deficit", "_hash")

    def __init__(self, level: int, entries: Tuple[Tuple[ValueTree, Dyadic], ...], deficit: Dyadic):
        self.level = level
        self.entries = tuple(sorted(entries, key=lambda kv: kv[0].sort_key()))
        self.deficit = deficit
        self._hash = hash((level, self.entries, deficit))

    def __eq__(self, other):
        return (
            isinstance(other, ProbTree)
            and other._hash == self._hash
            and other.level == self.level
            and other.entries == self.entries
            and other.deficit == self.deficit
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (
            tuple((vt.sort_key(), (w.num, w.exp)) for vt, w in self.entries),
            (self.deficit.num, self.deficit.exp),
        )

    def weight(self, vt: ValueTree) -> Dyadic:
        for k, w in self.entries:
            if k == vt:
                return w
        return ZERO

    def __repr__(self):
        return f"PT(l{self.level} {len(self.entries)} keys deficit={self.deficit})"


def bottom(level: int = 0) -> ProbTree:
    return ProbTree(level, (), ONE)


def eta_tree(name: str, level: int, depth: int = 0) -> ProbTree:
    """The level-ℓ tree of the bare variable `name` at a given node depth."""
    if level == 0:
        return bottom()
    return ProbTree(level, ((ValueTree(level, depth, name, 0, ()), ONE),), ZERO)


def _open_binders(t: Term, n: int, depth: int) -> Term:
    """Replace references to the n stripped binders by positional names."""
    if t.loose > n:
        raise ValueError("dangling binder index in tree construction")
    return reindex(t, tuple(Free(binder_ref(depth, n - rel)) for rel in range(n)), -n)


def value_tree(h: Term, level: int, fuel: int, depth: int = 0) -> ValueTree:
    """Canonical value tree of a head normal form."""
    if level < 1:
        raise ValueError("value trees exist at level >= 1 only")
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
        return ValueTree(1, depth, head_name, 0, ())
    child_level = level - 1
    args = [
        prob_tree(_open_binders(a, n, depth), child_level, fuel, depth + 1)
        for a in view.args
    ]
    offset = n - len(view.args)
    while args:
        pos = len(args) + offset
        if pos < 1:
            break
        if args[-1] != eta_tree(binder_ref(depth, pos), child_level, depth + 1):
            break
        args.pop()
    return ValueTree(level, depth, head_name, offset, tuple(args))


def prob_tree(m: Term, level: int, fuel: int, depth: int = 0) -> ProbTree:
    """Group the fuel approximant of m by value tree at the given level."""
    if level == 0:
        return bottom()
    res = eval_fuel(m, fuel)
    acc = {}
    for h, w in res.distr.items():
        vt = value_tree(h, level, fuel, depth)
        prev = acc.get(vt)
        acc[vt] = prev + w if prev is not None else w
    return ProbTree(level, tuple(acc.items()), res.deficit)


# ---------------------------------------------------------------------------
# Equality verdicts


class Equal:
    def __repr__(self):
        return "Equal"

    def __eq__(self, other):
        return isinstance(other, Equal)

    def __hash__(self):
        return hash(Equal)


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


def _has_hidden(pt: ProbTree) -> bool:
    if pt.deficit > ZERO:
        return True
    return any(_has_hidden(child) for vt, _ in pt.entries for child in vt.args)


def _uncertainty(pt: ProbTree) -> Dyadic:
    total = pt.deficit
    for vt, w in pt.entries:
        for child in vt.args:
            total = total + w * _uncertainty(child)
    return total


def _cmp_vt(a: ValueTree, b: ValueTree, path: Tuple[int, ...]):
    if a.head != b.head or a.depth != b.depth:
        return Different(path, a.head, b.head)
    if a.level == 1:
        return Equal()
    if a.offset != b.offset:
        return Different(path, f"offset {a.offset}", f"offset {b.offset}")
    child_level = a.level - 1
    child_depth = a.depth + 1
    width = max(len(a.args), len(b.args))
    unknown_bound = ZERO
    saw_unknown = False
    for j in range(1, width + 1):
        ca = (
            a.args[j - 1]
            if j <= len(a.args)
            else eta_tree(binder_ref(a.depth, j + a.offset), child_level, child_depth)
        )
        cb = (
            b.args[j - 1]
            if j <= len(b.args)
            else eta_tree(binder_ref(b.depth, j + b.offset), child_level, child_depth)
        )
        v = _cmp_pt(ca, cb, path + (j,))
        if isinstance(v, Different):
            return v
        if isinstance(v, Unknown):
            saw_unknown = True
            unknown_bound = unknown_bound + v.bound
    if saw_unknown:
        return Unknown(unknown_bound)
    return Equal()


def _cmp_pt(a: ProbTree, b: ProbTree, path: Tuple[int, ...]):
    if a.level != b.level:
        raise ValueError("tree level mismatch")
    # descend through a unique equally weighted pair for a precise path;
    # only without deficits, since missing mass may still reach either key
    if len(a.entries) == 1 and len(b.entries) == 1 and not (a.deficit or b.deficit):
        (ka, wa), (kb, wb) = a.entries[0], b.entries[0]
        if wa == wb:
            v = _cmp_vt(ka, kb, path)
            if isinstance(v, Different):
                return v
    # certified weight difference: mass on a key exceeds everything the
    # other side could possibly place on trees equal to it
    for first, second in ((a, b), (b, a)):
        for k, w in first.entries:
            possible = second.weight(k) + second.deficit
            for k2, w2 in second.entries:
                if k2 == k:
                    continue
                if not isinstance(_cmp_vt(k, k2, path), Different):
                    possible = possible + w2
            if w > possible:
                if first is a:
                    return Different(path, w, second.weight(k))
                return Different(path, second.weight(k), w)
    if a.entries == b.entries and not (_has_hidden(a) or _has_hidden(b)):
        return Equal()
    bound = a.deficit + b.deficit
    if not bound:
        bound = _uncertainty(a) + _uncertainty(b)
    return Unknown(bound)


def tree_eq(a: ProbTree, b: ProbTree):
    """Three-valued equality on probabilistic trees.

    Equal only when the canonical forms coincide with no mass deficit
    anywhere; Different only when the discrepancy exceeds every deficit
    allowance (a certified separation); Unknown otherwise, with an error
    bound.
    """
    if a.level != b.level:
        raise ValueError("tree level mismatch")
    return _cmp_pt(a, b, ())
