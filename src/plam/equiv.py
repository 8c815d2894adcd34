"""The Markov chain of closed terms and distinguished head normal forms,
with bounded game-style refutation of probabilistic (bi)similarity and
applicative mass comparison. Every state, and every Apply label, holds
its closed term as `term`.

Everything here refutes only: a returned witness is a replayable
certificate of non-(bi)similarity, while None means "inconclusive at
these bounds", never an equivalence certificate. All mass comparisons are
interval comparisons: evaluation yields lower bounds, and the upper end
of an interval closes only when the residual was certified divergent.

Applicative comparison runs the head chain of each side once over the
trie of its argument sequences (`smallstep._converge_seqs`), not once per
sequence, and gives each sequence what `converge` gives its application.

A simulation block is chosen by one max flow: the lifting check poses an
assignment problem, a demand per left state and a supply per set of left
states that right states may still lie above, to `plam.assign`, and takes
the block from the minimum cut of the flow it runs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .assign import AssignmentProblem, Infeasible, assignment_solve
from .prob import Approx, Dyadic, Distr, ONE
from .smallstep import _converge_seqs, converge
from .syntax import Lam, Term, _check_count, free_vars, is_closed, lam_close, pretty, substitute
from .trees import Different, prob_tree, tree_eq

DEFAULT_POOL_NAMES = ("I", "Omega", "Delta", "T", "F")
STEP_FACTOR = 6


class _State(tuple):
    """A closed term held as `term`: the pair (kind, term), compared and
    hashed as a tuple, so equal to one of its own class holding an equal
    term; shown as `Name(term)`."""

    __slots__ = ()

    def __new__(cls, term: Term):
        return super().__new__(cls, (cls, term))

    term = property(itemgetter(1))

    def __repr__(self):
        return f"{type(self).__name__}({pretty(self.term)})"


class TermState(_State):
    """A closed term M, which moves by τ."""

    __slots__ = ()


class HnfState(_State):
    """A distinguished hnf ν·λx.H, held as the closed abstraction λx.H."""

    __slots__ = ()


class Tau:
    def __repr__(self):
        return "tau"


class Apply(_State):
    __slots__ = ()

    def __new__(cls, term: Term):
        if not is_closed(term):
            raise ValueError("apply labels must be closed terms")
        return super().__new__(cls, term)


TAU = Tau()


_EMPTY_EXACT = Approx(Distr(), True)


def _step_budget(fuel: int) -> int:
    """The head steps `converge` gets for a game or comparison at `fuel`."""
    return max(STEP_FACTOR * fuel, 8)


def transitions(state, label, fuel: int) -> Approx:
    """Transition probabilities of the chain, as a certified lower bound.

    A term state evaluates under τ, landing on distinguished hnf states;
    a distinguished hnf λx.H consumes an Apply label by substituting its
    term for x in H. All other pairs have no transitions at all (exactly).
    Every state must be closed, and an hnf state must hold an abstraction.
    """
    _check_count(fuel, "fuel")
    _check_closed(state)
    return _transitions(state, label, fuel)


def _check_closed(state) -> None:
    """Refuse a state whose term is open, or an hnf state holding no abstraction."""
    if not _closed(state):
        if isinstance(state, TermState):
            raise ValueError("term states must be closed terms")
        raise ValueError("hnf states must be closed terms that are abstractions")


def _closed(state) -> bool:
    return not isinstance(state, _State) or is_closed(state.term) and (
        type(state.term) is Lam or not isinstance(state, HnfState))


def _transitions(state, label, fuel: int) -> Approx:
    """`transitions` without the closedness check. The chain keeps states
    closed, a closed term reducing to closed hnfs and a closed hnf applied
    to a closed label argument being closed, so only the states that enter
    it from outside need the walk that `is_closed` takes."""
    # a plain (kind, term) tuple equals its state: keep it out of `Lab` memos
    for x in (state, label):
        if x is not TAU and not isinstance(x, _State):
            raise TypeError(f"a state or label must be built by its class, not a {type(x).__name__}")
    if isinstance(state, TermState) and label is TAU:
        res = converge(state.term, _step_budget(fuel))
        if not all(isinstance(h, Lam) for h in res.distr.support()):
            # a closed hnf starts with a binder
            raise ValueError("term states must be closed terms")
        return Approx(res.distr.map_support(HnfState), res.exact)
    if isinstance(state, HnfState) and isinstance(label, Apply):
        succ = TermState(substitute(state.term.body, label.term))
        return Approx(Distr([(succ, ONE)]), True)
    return _EMPTY_EXACT


# ---------------------------------------------------------------------------
# Refutation witnesses


class Witness:
    """A checkable separation certificate for a state pair.

    `block` is a tuple of successor states such that every block member was
    itself certifiably separated from every non-member (the sub-witnesses
    justify this); the probability intervals of entering the block then
    fail to intersect.
    """

    __slots__ = ("label", "block", "left", "right", "sub", "image")

    def __init__(
        self,
        label,
        block: Tuple,
        left: Tuple[Dyadic, Dyadic],
        right: Tuple[Dyadic, Dyadic],
        sub: Dict[Tuple, "Witness"],
        image: Optional[Tuple] = None,
    ):
        self.label = label
        self.block = block
        self.left = left  # (lower, upper) interval of block mass
        self.right = right
        self.sub = sub
        # for one-sided witnesses: the right-side states not yet refuted
        self.image = image

    def mass_pairs(self) -> List[Tuple[Dyadic, Dyadic]]:
        pairs = [(self.left[0], self.right[0])]
        for w in self.sub.values():
            if isinstance(w, Witness):
                pairs.extend(w.mass_pairs())
        return pairs

    def __repr__(self):
        return (
            f"Witness({self.label!r}, block={len(self.block)} states, "
            f"left={self.left[0]}..{self.left[1]}, right={self.right[0]}..{self.right[1]})"
        )


class TreeWitness:
    """Separation by canonical tree difference at a fixed level."""

    __slots__ = ("level", "detail")

    def __init__(self, level: int, detail: Different):
        self.level = level
        self.detail = detail

    def __repr__(self):
        return f"TreeWitness(level={self.level}, {self.detail!r})"


def _disjoint(left: Tuple[Dyadic, Dyadic], right: Tuple[Dyadic, Dyadic]) -> bool:
    return left[0] > right[1] or right[0] > left[1]


def _tree_witness(u, v, level: int, fuel: int) -> Optional[TreeWitness]:
    """Separation of two states by their level-`level` trees, or None."""
    a = prob_tree(u.term, level, fuel)
    b = prob_tree(v.term, level, fuel)
    verdict = tree_eq(a, b)
    return TreeWitness(level, verdict) if isinstance(verdict, Different) else None


class Lab:
    """Shared configuration and memo tables for the refutation games."""

    def __init__(self, fuel: int = 8, pool: Sequence[Term] = (), tree_level: int = 0):
        _check_count(fuel, "fuel")
        _check_count(tree_level, "tree level")
        self.fuel = fuel
        # built once: an open pool term fails here, not mid-game
        self.labels = (TAU,) + tuple(Apply(p) for p in pool)
        self.tree_level = tree_level
        self._trans_memo: Dict[Tuple, Approx] = {}
        self._diff_memo: Dict[Tuple, Optional[object]] = {}

    def trans(self, state, label) -> Approx:
        """`transitions` at this lab's fuel, memoised, for a state whose
        term is closed, which is not checked here: the games λ-close their
        roots and `verify_witness` checks its own, so states enter closed
        and stay closed."""
        key = (state, label)
        out = self._trans_memo.get(key)
        if out is None:
            out = self._trans_memo[key] = _transitions(state, label, self.fuel)
        return out

    def diff(self, u, v, depth: int, bisim: bool) -> Optional[object]:
        """A witness that u and v are not bisimilar (`bisim`) or that u is
        not simulated by v (otherwise), or None."""
        if u == v or depth <= 0:
            return None
        key = (u, v, depth, bisim)
        if key in self._diff_memo:
            return self._diff_memo[key]
        result = None
        if bisim and self.tree_level > 0:
            result = _tree_witness(u, v, self.tree_level, self.fuel)
        label_diff = self._bisim_label_diff if bisim else self._sim_label_diff
        for label in self.labels:
            if result is not None:
                break
            result = label_diff(u, v, label, depth)
        self._diff_memo[key] = result
        return result

    def _bisim_label_diff(self, u, v, label, depth: int) -> Optional[Witness]:
        du, dv = self.trans(u, label), self.trans(v, label)
        support = list(du.distr.support()) + [
            s for s in dv.distr.support() if s not in du.distr
        ]
        if not support:
            return None
        # pairwise separation certificates at reduced depth
        sub: Dict[Tuple, object] = {}
        for i, s1 in enumerate(support):
            for s2 in support[i + 1:]:
                w = self.diff(s1, s2, depth - 1, True)
                if w is not None:
                    sub[(s1, s2)] = w
        # blocks are components of the not-provably-separated graph, so
        # cross-block pairs are all certified distinct
        for block in _blocks(_components(support, sub), du, dv):
            left = (du.lower(block), du.upper(block))
            right = (dv.lower(block), dv.upper(block))
            if _disjoint(left, right):
                used = {
                    pair: w
                    for pair, w in sub.items()
                    if (pair[0] in block) != (pair[1] in block)
                }
                return Witness(label, tuple(block), left, right, used)
        return None

    def _sim_label_diff(self, u, v, label, depth: int) -> Optional[Witness]:
        du, dv = self.trans(u, label), self.trans(v, label)
        left_support = list(du.distr.support())
        if not left_support:
            return None
        right_support = list(dv.distr.support())
        # for each left state, which right states might still be above it
        sub: Dict[Tuple, object] = {}
        above: Dict[object, List[object]] = {}
        for s1 in left_support:
            above[s1] = []
            for s2 in right_support:
                w = self.diff(s1, s2, depth - 1, False)
                if w is None:
                    above[s1].append(s2)
                else:
                    sub[(s1, s2)] = w
        found = _sim_block(du, dv, above)
        if found is None:
            return None
        block, image = found
        used = {
            pair: w for pair, w in sub.items() if pair[0] in block and pair[1] not in image
        }
        return Witness(
            label,
            tuple(block),
            (du.lower(block), du.upper(block)),
            (dv.lower(image), dv.upper(image)),
            used,
            image=tuple(image),
        )


def _sim_block(
    du: Approx, dv: Approx, above: Dict[object, List[object]]
) -> Optional[Tuple[List, set]]:
    """A block of left states whose lower mass under `du` beats the upper
    mass under `dv` of its image, the right states that `above` may still
    put above a member, as `(block, image)`; None when no block does.

    `upper` adds `dv`'s deficit once, whatever the keys, so a block
    separates just when its shortfall, its lower mass minus its image's,
    beats that deficit. With one demand per left state and one supply per
    set of left states that right states may lie above, the assignment
    problem is infeasible just when some block has a positive shortfall,
    and its witness has the largest (Strassen; Baier, Engelen &
    Majster-Cieslak, 2000): that block separates if any does. A lone left
    state is its own only candidate, checked without the flow.
    """
    left = list(above)
    if len(left) == 1:
        block = left
    else:
        below: Dict[object, List[int]] = {}
        for k, s1 in enumerate(left, 1):
            for s2 in above[s1]:
                below.setdefault(s2, []).append(k)
        supply: Dict[frozenset, Fraction] = {}
        for s2, ks in below.items():
            w = dv.distr.weight(s2)
            key = frozenset(ks)
            supply[key] = supply.get(key, 0) + Fraction(w.num, 1 << w.exp)
        demand = [Fraction(w.num, 1 << w.exp) for w in map(du.distr.weight, left)]
        verdict = assignment_solve(AssignmentProblem(demand, supply))
        if not isinstance(verdict, Infeasible):
            return None
        block = [left[k - 1] for k in sorted(verdict.witness)]
    image = {s2 for s1 in block for s2 in above[s1]}
    return (block, image) if du.lower(block) > dv.upper(image) else None


def _components(items, sub) -> List[List]:
    """Components of the graph joining each pair `sub` holds in neither order."""
    remaining = list(items)
    out = []
    while remaining:
        seed = remaining.pop(0)
        comp = [seed]
        changed = True
        while changed:
            changed = False
            for other in list(remaining):
                if any((other, member) not in sub and (member, other) not in sub
                       for member in comp):
                    comp.append(other)
                    remaining.remove(other)
                    changed = True
        out.append(comp)
    return out


def _blocks(components: List[List], du: Approx, dv: Approx):
    """The components, then, if there are several, the union of those where
    u's lower mass is larger and that of those where v's is: closed too,
    each separates in its direction whenever any union does."""
    yield from components
    if len(components) > 1:
        for a, b in ((du, dv), (dv, du)):
            yield [s for c in components if a.lower(c) > b.lower(c) for s in c]


def _closed_pair(m: Term, n: Term) -> Tuple[Term, Term]:
    names = free_vars(m) | free_vars(n)
    return lam_close(m, names), lam_close(n, names)


def refute_bisim(
    m: Term,
    n: Term,
    depth: int = 8,
    fuel: int = 8,
    pool: Sequence[Term] = (),
    tree_level: int = 0,
) -> Optional[object]:
    """Search for a certificate that m and n are not bisimilar.

    Open terms are λ-closed first (free names bound in lexicographic
    order). None is always inconclusive.
    """
    _check_count(depth, "depth")
    m, n = _closed_pair(m, n)
    lab = Lab(fuel=fuel, pool=pool, tree_level=tree_level)
    return lab.diff(TermState(m), TermState(n), depth, bisim=True)


def refute_sim(
    m: Term,
    n: Term,
    depth: int = 6,
    fuel: int = 8,
    pool: Sequence[Term] = (),
) -> Optional[object]:
    """Search for a certificate that m is not simulated by n."""
    _check_count(depth, "depth")
    m, n = _closed_pair(m, n)
    lab = Lab(fuel=fuel, pool=pool)
    return lab.diff(TermState(m), TermState(n), depth, bisim=False)


def _stated(d: Different) -> Tuple:
    return tuple(d.path), d.left, d.right


def verify_witness(u, v, witness, lab: Lab, bisim: bool) -> bool:
    """Replay a certificate: recompute every value it states exactly.

    A tree difference refutes bisimilarity only: similarity is strictly
    contained in the contextual preorder, so `I (+) Omega`, simulated by
    `I`, may still differ from it in its tree. An open state raises
    `ValueError`; a certificate holding anything but a `Witness` or a
    `TreeWitness`, at its root or below, is rejected, as is a `Witness`
    whose label is no label, whose block or image is no tuple of states,
    or whose `sub` is no dict keyed by pairs of states.
    """
    _check_closed(u)
    _check_closed(v)
    return _verify(u, v, witness, lab, bisim)


def _states(states) -> bool:
    return isinstance(states, tuple) and all(isinstance(s, (TermState, HnfState)) for s in states)


def _verify(u, v, witness, lab: Lab, bisim: bool) -> bool:
    if isinstance(witness, TreeWitness):
        level = witness.level
        if not bisim or not isinstance(level, int) or level < 0:
            return False
        found = _tree_witness(u, v, level, lab.fuel)
        return (
            found is not None
            and isinstance(witness.detail, Different)
            and _stated(found.detail) == _stated(witness.detail)
        )
    if not isinstance(witness, Witness):
        return False
    image = witness.block if bisim else witness.image
    if not (
        (witness.label is TAU or isinstance(witness.label, Apply))
        and _states(witness.block) and _states(image) and isinstance(witness.sub, dict)
        and all(_states(pair) and len(pair) == 2 for pair in witness.sub)
    ):
        return False
    du, dv = lab.trans(u, witness.label), lab.trans(v, witness.label)
    left = (du.lower(witness.block), du.upper(witness.block))
    right = (dv.lower(image), dv.upper(image))
    if left != witness.left or right != witness.right:
        return False
    support = du.distr.support() | dv.distr.support()
    if bisim:
        if not _disjoint(left, right):
            return False
        # the block is closed: every joint-support state outside it is
        # separated from every block member, by a sub-witness in either order
        outside = support - set(witness.block)
        keys = set(witness.sub) | {(s2, s1) for s1, s2 in witness.sub}
    else:
        if left[0] <= right[1]:
            return False
        # every dropped right-side state must be refuted against the whole
        # block; one equal to a block state never is, so it cannot be dropped
        outside = dv.distr.support() - set(image)
        keys = witness.sub
    if any((s1, s2) not in keys for s1 in witness.block for s2 in outside):
        return False
    # the chain reached the support from closed states; any other state a
    # sub-witness names enters here, and an open one forges the certificate
    if not all(_closed(s) for s in {s for pair in witness.sub for s in pair} - support):
        return False
    return all(_verify(s1, s2, w, lab, bisim) for (s1, s2), w in witness.sub.items())


# ---------------------------------------------------------------------------
# Applicative comparison


class SeqReport:
    __slots__ = ("args", "left", "right", "verdict")

    def __init__(self, args, left: Approx, right: Approx, verdict: str):
        self.args = args
        self.left = left
        self.right = right
        self.verdict = verdict

    def __repr__(self):
        return (
            f"SeqReport({[pretty(a) for a in self.args]}, "
            f"left={self.left.mass}, right={self.right.mass}, {self.verdict})"
        )


def applicative_compare(
    m: Term,
    n: Term,
    arg_seqs: Sequence[Sequence[Term]],
    fuel: int = 8,
) -> List[SeqReport]:
    """Compare total convergence mass under applicative contexts.

    LeftExceeds certifies that m's mass beats anything n could still
    reach (refuting m below n); symmetrically for RightExceeds.
    """
    _check_count(fuel, "fuel")
    m, n = _closed_pair(m, n)
    steps = _step_budget(fuel)
    seqs = [tuple(seq) for seq in arg_seqs]
    lefts, rights = _converge_seqs(m, seqs, steps), _converge_seqs(n, seqs, steps)
    reports = []
    for seq, left, right in zip(seqs, lefts, rights):
        if left.mass > right.upper_mass:
            verdict = "LeftExceeds"
        elif right.mass > left.upper_mass:
            verdict = "RightExceeds"
        else:
            verdict = "Inconclusive"
        reports.append(SeqReport(seq, left, right, verdict))
    return reports
