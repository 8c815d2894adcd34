"""Head and head spine reduction as probabilistic transition relations.

The reduction chain steps refocused states, not terms: a live state is
the head form λⁿ.h M⃗ of a term that is not an hnf, its head the next
redex. A step contracts the redex and decomposes only the contracted
part (Danvy & Nielsen, "Refocusing in reduction semantics", 2004). A
spine state is also linked to the shared stack of the enclosing frames
λᵏ.(λ.[ ]) N⃗ whose bodies are not hnfs: a spine step pushes a frame when
a λ-head's body is not an hnf and pops one when it becomes one; head
reduction is the frameless case. An hnf leaves the chain as a plain
term. Equal states decompose equal terms, so the exact n-step tables
merge alpha-equivalent states. `trace_tree` is the term view of the one
successor function, the reduction tree as a pre-order list of its nodes;
`head_step` and `spine_step` read its depth-1 nodes. Only the spine
trace builds frames.

One chain serves both strategies: on each path of choice outcomes, the
two reach the same hnf after the same number of steps (see `step_n`), so
`step_n` and `converge` run the head chain under either.

One loop, `_chain`, runs the chains of m a⃗ for argument sequences a⃗
at once, over the trie of their prefixes: for `_converge_seqs`, and with
the one empty sequence for `step_n` and `converge`. Each round has two
phases: it steps every live state into a list of arrivals, then places
the arrivals by one rule, which keeps a state live at its trie node,
absorbs an hnf at a leaf or pops a state to the node's children as more
arrivals. The starting state is the first round's only arrival. Weights
are integers over one shared 2^e, where e rises only on a step with a
choice head, and pass to the returned `Distr` as integers; a state whose
one successor is itself is parked, never stepped again. Parking is the
only early stop. `converge` is `_converge_seqs` on the one empty
sequence, so the certification closure, `_diverges`, has one caller.

Each public call owns one contraction table, from a β-redex (λ.b, a) to
b[a], keyed by alpha-equivalence and dropped when the call returns, so a
redex that the chain meets again (every round of a recursion through
`Theta`) is substituted once; the certification closure shares it.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Sequence, Tuple, Union

from .prob import Approx, Dyadic, Distr, HALF, ONE, _Scaled
from .syntax import (
    App,
    Choice,
    HeadForm,
    Lam,
    ResourceCapExceeded,
    Term,
    _check_count,
    is_hnf,
    substitute,
)

DEFAULT_LEAF_CAP = 1 << 16

StepOutcome = Tuple[Tuple[Dyadic, Term], ...]
State = Union[HeadForm, Term]  # a live state, or the hnf a step absorbs into


def _spine(strategy: str) -> bool:
    if strategy not in ("head", "spine"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return strategy == "spine"


def _refocus(n: int, t: Term, args: Tuple[Term, ...], up: HeadForm | None, spine: bool) -> State:
    """The state of λⁿ.t args in the frames `up`, or the term once it is an
    hnf outside every frame."""
    while True:
        if not args:
            while type(t) is Lam:
                n += 1
                t = t.body
        rev = []
        while type(t) is App:
            rev.append(t.arg)
            t = t.fun
        if rev:
            args = (*reversed(rev), *args)
        if type(t) is Lam and spine and not is_hnf(t.body):
            up = HeadForm(n, None, args, up)
            n, t, args = 0, t.body, ()
            continue
        form = HeadForm(n, t, args, up)
        if type(t) is Lam or type(t) is Choice:
            return form
        hnf = form.plug(t, args)
        if up is None:
            return hnf
        # the frame's body became an hnf, so the frame is the next redex
        return HeadForm(up.binders, Lam(hnf), up.args, up.up)


def _decompose(t: Term, spine: bool) -> State:
    if not isinstance(t, Term):
        raise TypeError(f"term must be a Term, not {type(t).__name__}")
    return t if is_hnf(t) else _refocus(0, t, (), None, spine)


def _successor(s: HeadForm, spine: bool, beta: dict) -> Tuple[State, ...]:
    """One step from a live state: contract its redex, then refocus.

    Returns the next state, reached with probability 1, or the two branches
    of a choice, each reached with probability 1/2. `beta` is the caller's
    contraction table, from a β-redex (λ.b, a) to b[a].
    """
    n, head, args, up = s.binders, s.head, s.args, s.up
    if type(head) is Lam:
        redex = (head, args[0])
        body = beta.get(redex)
        if body is None:
            body = beta[redex] = substitute(head.body, args[0])
        return (_refocus(n, body, args[1:], up, spine),)
    # branches equal modulo alpha collapse with probability 1
    if head.left == head.right:
        return (_refocus(n, head.left, args, up, spine),)
    return (
        _refocus(n, head.left, args, up, spine),
        _refocus(n, head.right, args, up, spine),
    )


def _as_term(s: State) -> Term:
    if type(s) is not HeadForm:
        return s
    t = s.plug(s.head, s.args)
    while s.up is not None:
        s = s.up
        t = s.plug(Lam(t), s.args)
    return t


def _step_view(t: Term, strategy: str) -> StepOutcome:
    # the depth-1 nodes of the one-step trace; an hnf has none
    return tuple((p, u) for depth, p, u in trace_tree(t, 1, strategy) if depth) or ((ONE, t),)


def head_step(t: Term) -> StepOutcome:
    """One step of head reduction; an hnf yields its self-loop."""
    return _step_view(t, "head")


def spine_step(t: Term) -> StepOutcome:
    """One step of head spine reduction (body-first for stacked redexes)."""
    return _step_view(t, "spine")


def _trie(seqs: Sequence[Sequence[Term]]) -> Tuple[List[dict], list, List[int]]:
    """The trie of the argument prefixes of `seqs`, keyed by
    alpha-equivalence: each node's children by argument, its parent with
    the argument that leads to it, and each sequence's terminal node. A
    node where a sequence ends while others go on gets a terminal twin, a
    child under the key None. Each argument is checked as it enters."""
    kids: List[dict] = [{}]
    up: list = [(0, None)]
    ends = []
    for seq in seqs:
        node = 0
        for a in seq:
            child = kids[node].get(a)
            if child is None:
                if not isinstance(a, Term):
                    raise TypeError(f"argument must be a Term, not {type(a).__name__}")
                if a.loose:
                    raise ValueError("dangling binder index in an argument")
                child = kids[node][a] = len(kids)
                kids.append({})
                up.append((node, a))
            node = child
        ends.append(node)
    for i, node in enumerate(ends):
        if kids[node]:
            ends[i] = kids[node].setdefault(None, len(kids))
            if ends[i] == len(kids):
                kids.append({})
                up.append((node, None))
    return kids, up, ends


# the trie of the one empty sequence, which `step_n` and `converge` run
_NO_ARGS = _trie(((),))


def _residuals(trie, live: dict, parked: list):
    """Each terminal node with the distinct states of its sequence's chain,
    pending arguments appended, and whether one is live, not parked."""
    _, up, ends = trie
    for t in dict.fromkeys(ends):
        states: dict = {}
        open_ = False
        node, rest = t, ()
        while True:
            here = live.get(node)
            open_ = open_ or bool(here)
            for s in (*(here or ()), *parked[node]):
                states[HeadForm(0, s.head, s.args + rest) if rest else s] = None
            if not node:
                break
            node, a = up[node]
            if a is not None:
                rest = (a, *rest)
        yield t, states, open_


def _check_cap(trie, live: dict, parked: list, absorbed: dict, cap: int) -> None:
    """Raise if some sequence's distinct states and absorbed hnfs exceed `cap`."""
    for t, states, _ in _residuals(trie, live, parked):
        if len(states) + len(absorbed[t]) > cap:
            raise ResourceCapExceeded(f"reduction state count exceeded cap {cap}")


def _chain(m: Term, trie, steps: int, cap: int, beta: dict):
    """Run the absorbing head chains of m a⃗ for the sequences a⃗ of
    `trie` together, merging equal states. Returns the absorbed hnfs of each
    terminal node, with numerator and exponent, the live entries by node,
    empty once nothing is live, and the parked ones.

    Head reduction leaves a⃗ untouched until the head is an abstraction
    with no argument left to take (Krivine's argument stack), so a state at
    a node, which then has no leading binder, stands for every sequence
    below it. Each round has two phases. The first steps every live state
    into a list of arrivals (state, node, weight), parking a state whose
    one successor is itself. The second places each arrival by one rule:
    at a leaf, a live state joins the node's live entries and an hnf is
    absorbed; at a node with children, a live state without a leading
    binder joins them, and any other state pops, appending an arrival at
    each child: the β-redex (λ-term) a at the child a, the state itself at
    the twin. A state parked at its node never joins its entries again.
    The starting state is the first round's only arrival.

    A round where some placed head is a choice raises the shared exponent
    e by one for the next step, which doubles the numerator of each state
    with one successor and keeps it on each branch; any other step keeps
    every numerator. Parking is the only early stop: the run ends when
    nothing is live or at the step budget. The cap bounds each sequence's
    distinct states, parked ones included, plus its absorbed hnfs, counted
    per sequence only when all entries and hnfs together exceed it.
    """
    _check_count(steps, "steps")
    _check_count(cap, "cap")
    kids = trie[0]
    absorbed: Dict[int, Dict[Term, Tuple[int, int]]] = {}
    for t in trie[2]:
        absorbed[t] = {}
    parked: List[Collection[HeadForm]] = [()] * len(kids)
    # equal states at different nodes step once
    table = {} if len(kids) > 1 else None
    arrivals = [(_decompose(m, False), 0, 1)]
    append = arrivals.append
    e = k = n_parked = n_hnfs = 0
    while True:
        nxt: Dict[int, Dict[HeadForm, int]] = {}
        n_nxt = 0
        split = False
        node = None
        # a pop appends to the list it walks
        for s, at, w in arrivals:
            if at != node:
                node = at
                below = kids[node]
                holds = parked[node]
                here = nxt.setdefault(node, {})
            if type(s) is HeadForm and not (below and s.binders):
                v = here.get(s)
                if v is not None:
                    here[s] = v + w
                elif s not in holds:
                    here[s] = w
                    n_nxt += 1
                    split = split or type(s.head) is Choice
            elif not below:
                hnfs = absorbed[node]
                prev = hnfs.get(s)
                if prev is None:
                    hnfs[s] = (w, e)
                    n_hnfs += 1
                else:
                    hnfs[s] = ((prev[0] << (e - prev[1])) + w, e)
            else:
                # an hnf with no leading binder stays one under arguments
                lam = _as_term(s) if type(s) is HeadForm or type(s) is Lam else None
                for a, child in below.items():
                    if a is None:
                        append((s, child, w))
                    else:
                        append((App(s, a) if lam is None else HeadForm(0, lam, (a,)), child, w))
        if n_nxt + n_parked + n_hnfs > cap:
            _check_cap(trie, nxt, parked, absorbed, cap)
        if not n_nxt:
            return absorbed, {}, parked
        if k == steps:
            return absorbed, nxt, parked
        k += 1
        rise = 1 if split else 0
        e += rise
        arrivals.clear()
        for node, states in nxt.items():
            for s, w in states.items():
                if table is None:
                    out = _successor(s, False, beta)
                else:
                    out = table.get(s)
                    if out is None:
                        out = table[s] = _successor(s, False, beta)
                if len(out) == 2:
                    append((out[0], node, w))
                    append((out[1], node, w))
                elif out[0]._hash == s._hash and out[0] == s:
                    # parked: mass that reaches it is not kept
                    holds = parked[node]
                    if not holds:
                        parked[node] = holds = set()
                    holds.add(s)
                    n_parked += 1
                else:
                    append((out[0], node, w << rise))


def _lower(hnfs: Dict[Term, Tuple[int, int]]) -> Distr:
    """The absorbed hnfs, each a numerator at the exponent where it last
    grew, as a `Distr` over their largest exponent."""
    top = 0
    for _, x in hnfs.values():
        if x > top:
            top = x
    return Distr(_Scaled({h: n << (top - x) for h, (n, x) in hnfs.items()}, top))


def step_n(t: Term, n: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP) -> Distr:
    """Cumulative probability of having reached each hnf within n steps.

    On each path of choice outcomes, spine reduction contracts a redex of
    the body M of a head redex (λy.M) N before that β-step and head
    reduction its image in M[N/y] after it, so both reach the same hnf
    after the same number of steps and their n-step tables are equal: both
    strategies run the head chain, and `cap` bounds its distinct states.
    """
    _spine(strategy)
    return _lower(_chain(t, _NO_ARGS, n, cap, {})[0][0])


def _core(s: HeadForm) -> HeadForm:
    """`s` with its leading binders stripped."""
    return HeadForm(0, s.head, s.args) if s.binders else s


def _diverges(live: Collection[HeadForm], cap: int, beta: dict) -> bool:
    """Whether the head successor closure of the live states stays
    finite, within `cap` states, and never touches an hnf: then no
    residual mass can ever converge."""
    # the closure is over cores, states with their leading binders
    # stripped: head reduction commutes with λ, and λx.W is an hnf iff W
    # is, so a residual that only grows a λ-prefix closes too. Cores may
    # hold dangling indices, which head reduction handles.
    # Breadth first, over the list it extends: a depth-first search could
    # dive into an infinite branch before it meets a nearby hnf.
    work = list(dict.fromkeys(_core(s) for s in live))
    seen = set(work)
    for s in work:
        for s2 in _successor(s, False, beta):
            if type(s2) is not HeadForm:
                return False
            s2 = _core(s2)
            if s2 not in seen:
                seen.add(s2)
                if len(seen) > cap:
                    return False
                work.append(s2)
    return True


def converge(t: Term, steps: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP) -> Approx:
    """Run the absorbing chain and try to certify the residual as divergent.

    Certification explores the successor closure of the residual; if it
    stays finite (within the cap) and never touches an hnf, no residual
    mass can ever converge and the lower bound is exact. Parking is the
    chain's only early stop, and a chain left with only parked states is
    its own closure. It certifies by `_converge_seqs` on the empty sequence.
    Both strategies run the head chain and its closure, since their n-step
    tables are equal (see `step_n`); `cap` counts head states.
    """
    _spine(strategy)
    return _converge_seqs(t, _NO_ARGS, steps, cap)[0]


def _converge_seqs(m: Term, trie, steps: int, cap: int = DEFAULT_LEAF_CAP) -> List[Approx]:
    """`converge(m a⃗, steps, cap=cap)` for each sequence a⃗ of `trie`, as
    `_trie` builds it, with the steps that sequences sharing a prefix
    share taken once."""
    if not trie[2]:
        return []
    # the closure re-steps states that the chain just stepped, so both
    # share one contraction table
    beta: dict = {}
    absorbed, live, parked = _chain(m, trie, steps, cap, beta)
    exact = {
        t: not open_ or _diverges(states, cap, beta)
        for t, states, open_ in _residuals(trie, live, parked)
    } if live else {}
    # a loop: before Python 3.12, a comprehension costs `converge` a frame
    out = []
    for t in trie[2]:
        out.append(Approx(_lower(absorbed[t]), exact.get(t, True)))
    return out


def trace_tree(
    t: Term, steps: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP
) -> List[Tuple[int, Dyadic, Term]]:
    """The reduction tree to the given depth, for display: its nodes in
    pre-order as (depth, probability of the step into the node, term).

    Hnfs are leaves (absorbing). Raises once the tree has more than `cap`
    nodes.
    """
    _check_count(steps, "steps")
    _check_count(cap, "cap")
    spine = _spine(strategy)
    beta: dict = {}
    nodes: List[Tuple[int, Dyadic, Term]] = []
    # an explicit stack, so depth costs no frames; successors are pushed
    # in reverse so that branches keep their order
    stack = [(0, ONE, _decompose(t, spine))]
    while stack:
        if len(nodes) == cap:
            raise ResourceCapExceeded(f"trace node count exceeded cap {cap}")
        depth, p, s = stack.pop()
        nodes.append((depth, p, _as_term(s)))
        if depth < steps and type(s) is HeadForm:
            out = _successor(s, spine, beta)
            q = ONE if len(out) == 1 else HALF
            stack.extend((depth + 1, q, s2) for s2 in reversed(out))
    return nodes
