"""Head and head spine reduction as probabilistic transition relations.

The reduction chain steps refocused states, not terms: a live state is
the head form λⁿ.h M⃗ of a term that is not an hnf, its head the next
redex, linked (for the spine strategy only) to the shared stack of the
enclosing frames λᵏ.(λ.[ ]) N⃗ whose bodies are not hnfs. A step
contracts the redex and decomposes only the contracted part (Danvy &
Nielsen, "Refocusing in reduction semantics", 2004), pushing a frame
when a λ-head's body is not an hnf and popping one when it becomes one;
head reduction is the frameless case. An hnf leaves the chain as a
plain term. Equal states decompose equal terms, so the exact n-step
tables merge alpha-equivalent states. `head_step`, `spine_step` and
`trace_tree` are term views of the one successor function.

One loop, `_chain`, runs the chains of m a⃗ for argument sequences a⃗
at once, over the trie of their prefixes: for `_converge_seqs`, and with
the one empty sequence for `step_n` and `converge`. Its weights are
integers over one shared 2^e, where e rises only on a step with a choice
head, and a state whose one successor is itself is parked, never stepped
again. `converge` and `_converge_seqs` certify by one closure, `_diverges`.

Each public call owns one contraction table, from a β-redex (λ.b, a) to
b[a], keyed by alpha-equivalence and dropped when the call returns, so a
redex that the chain meets again (every round of a recursion through
`Theta`) is substituted once; the certification closure shares it.
`step_n`, `converge` and `trace_tree` also own a focus table: a framed
state steps the same whatever its frames are, as long as its focus
λⁿ.h M⃗ is the same, so the table maps a focus to its successors in a
placeholder frame `_TOP`, and a framed state takes them with `_TOP`
replaced by its own frames. Frameless states are stepped directly.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Sequence, Tuple, Union

from .prob import Approx, Dyadic, Distr, HALF, ONE
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


# the frame a focus is stepped in for the focus table: a focus that pops
# into it yields a form with no frames, every other successor's frames
# end in it
_TOP = HeadForm(0, None, ())


def _attach(r: HeadForm, up: HeadForm) -> HeadForm:
    """`r`, a successor of a focus in the frame `_TOP`, in the frames `up`."""
    if r.up is _TOP:
        return HeadForm(r.binders, r.head, r.args, up)
    if r.up is None:
        # the focus became an hnf: the innermost frame is the next redex
        return HeadForm(up.binders, r.head, up.args, up.up)
    # the step pushed frames above `_TOP`
    pushed = []
    while r is not _TOP:
        pushed.append(r)
        r = r.up
    for f in reversed(pushed):
        up = HeadForm(f.binders, f.head, f.args, up)
    return up


def _framed(s: HeadForm, spine: bool, beta: dict, foci: dict) -> Tuple[HeadForm, ...]:
    """`_successor` of a state with frames, its focus stepped once per
    `foci`, the caller's focus table."""
    focus = (s.binders, s.head, s.args)
    out = foci.get(focus)
    if out is None:
        out = foci[focus] = _successor(HeadForm(*focus, _TOP), spine, beta)
    if len(out) == 1:
        return (_attach(out[0], s.up),)
    return (_attach(out[0], s.up), _attach(out[1], s.up))


def _as_term(s: State) -> Term:
    if type(s) is not HeadForm:
        return s
    t = s.plug(s.head, s.args)
    while s.up is not None:
        s = s.up
        t = s.plug(Lam(t), s.args)
    return t


def _step_view(t: Term, spine: bool) -> StepOutcome:
    s = _decompose(t, spine)
    if type(s) is not HeadForm:
        return ((ONE, t),)
    out = _successor(s, spine, {})
    p = ONE if len(out) == 1 else HALF
    return tuple((p, _as_term(s2)) for s2 in out)


def head_step(t: Term) -> StepOutcome:
    """One step of head reduction; an hnf yields its self-loop."""
    return _step_view(t, False)


def spine_step(t: Term) -> StepOutcome:
    """One step of head spine reduction (body-first for stacked redexes)."""
    return _step_view(t, True)


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


def _enter(s: State, node: int, w: int, e: int, kids, nxt, parked, absorbed):
    """Enter `s`, reached at `node` with the weight w/2^e, into the live
    entries `nxt` or the absorbed hnfs; whether it added a live state with
    a choice head, and how many live states and hnfs it added. A leading
    binder or an hnf at a node with children pops: each child a takes the
    β-redex (λ-term) a and the twin the state itself."""
    split, n_live, n_hnfs = False, 0, 0
    todo = []
    while True:
        below = kids[node]
        is_live = type(s) is HeadForm
        if below and not (is_live and s.binders == 0):
            lam = _as_term(s) if is_live or type(s) is Lam else None
            for a, child in below.items():
                if a is None:
                    todo.append((s, child))
                else:
                    # an hnf with no leading binder stays one under arguments
                    todo.append((App(s, a) if lam is None else HeadForm(0, lam, (a,)), child))
        elif is_live:
            here = nxt.setdefault(node, {})
            v = here.get(s)
            if v is not None:
                here[s] = v + w
            elif s not in parked[node]:
                here[s] = w
                n_live += 1
                split = split or type(s.head) is Choice
        else:
            hnfs = absorbed[node]
            prev = hnfs.get(s)
            if prev is None:
                hnfs[s] = (w, e)
                n_hnfs += 1
            else:
                hnfs[s] = ((prev[0] << (e - prev[1])) + w, e)
        if not todo:
            return split, n_live, n_hnfs
        s, node = todo.pop()


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


def _repeats(live: dict, nxt: dict, rise: int) -> bool:
    """Whether a step from `live` to as many entries `nxt` kept every
    weight: it absorbed nothing then, and every later step repeats it."""
    for node, states in live.items():
        after = nxt[node]
        for s, w in states.items():
            if after.get(s) != w << rise:
                return False
    return True


def _chain(m: Term, trie, steps: int, spine: bool, cap: int, beta: dict, foci: dict):
    """Run the absorbing chains of m a⃗ for the sequences a⃗ of `trie`
    together, merging equal states. Returns the absorbed hnfs of each
    terminal node, with numerator and exponent, the live entries by node,
    empty once nothing more can be absorbed, and the parked ones.

    Head reduction leaves a⃗ untouched until the head is an abstraction
    with no argument left to take (Krivine's argument stack), so a state at
    a node, which then has no leading binder, stands for every sequence
    below it. A step where some live head is a choice raises the shared
    exponent e by one, doubles the numerator of each state with one
    successor and keeps it on each branch; any other step keeps every
    numerator. The run stops at the step budget, when nothing is live, or
    at a fixed point (`_repeats`). The cap bounds each sequence's distinct
    states, parked ones included, plus its absorbed hnfs, counted per
    sequence only when all entries and hnfs together exceed it. The spine
    strategy takes the one empty sequence only.
    """
    _check_count(steps, "steps")
    _check_count(cap, "cap")
    kids = trie[0]
    if spine and len(kids) > 1:
        raise ValueError("the spine strategy takes no arguments")
    absorbed: Dict[int, Dict[Term, Tuple[int, int]]] = {}
    for t in trie[2]:
        absorbed[t] = {}
    parked: List[Collection[HeadForm]] = [()] * len(kids)
    live: Dict[int, Dict[HeadForm, int]] = {}
    split, n_live, n_hnfs = _enter(_decompose(m, spine), 0, 1, 0, kids, live, parked, absorbed)
    if n_live + n_hnfs > cap:
        _check_cap(trie, live, parked, absorbed, cap)
    e = k = n_parked = 0
    # equal states at different nodes step once
    table = {} if len(kids) > 1 else None
    while n_live and k < steps:
        k += 1
        rise = 1 if split else 0
        e += rise
        split = False
        nxt: Dict[int, Dict[HeadForm, int]] = {}
        n_nxt = 0
        for node, states in live.items():
            below = kids[node]
            holds = parked[node]
            here = nxt.setdefault(node, {})
            for s, w in states.items():
                if s.up is not None:
                    out = _framed(s, spine, beta, foci)
                elif table is None:
                    out = _successor(s, spine, beta)
                else:
                    out = table.get(s)
                    if out is None:
                        out = table[s] = _successor(s, spine, beta)
                if len(out) == 1:
                    if out[0]._hash == s._hash and out[0] == s:
                        # parked: mass that reaches it is not kept
                        if not holds:
                            parked[node] = holds = set()
                        holds.add(s)
                        n_parked += 1
                        if here.pop(s, None) is not None:
                            n_nxt -= 1
                        continue
                    w <<= rise
                for s2 in out:
                    if type(s2) is HeadForm:
                        if not below or not s2.binders:
                            # the common case, a state that stays at its node
                            v = here.get(s2)
                            if v is not None:
                                here[s2] = v + w
                            elif s2 not in holds:
                                here[s2] = w
                                n_nxt += 1
                                split = split or type(s2.head) is Choice
                            continue
                    elif not below:
                        hnfs = absorbed[node]
                        prev = hnfs.get(s2)
                        if prev is None:
                            hnfs[s2] = (w, e)
                            n_hnfs += 1
                        else:
                            hnfs[s2] = ((prev[0] << (e - prev[1])) + w, e)
                        continue
                    more, dl, dh = _enter(s2, node, w, e, kids, nxt, parked, absorbed)
                    split = split or more
                    n_nxt += dl
                    n_hnfs += dh
        if n_nxt + n_parked + n_hnfs > cap:
            _check_cap(trie, nxt, parked, absorbed, cap)
        if n_nxt == n_live and _repeats(live, nxt, rise):
            return absorbed, {}, parked
        n_live = n_nxt
        live = nxt
    return absorbed, live if n_live else {}, parked


def _lower(hnfs: Dict[Term, Tuple[int, int]]) -> Distr:
    return Distr((h, Dyadic(n, x)) for h, (n, x) in hnfs.items())


def step_n(t: Term, n: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP) -> Distr:
    """Cumulative probability of having reached each hnf within n steps."""
    return _lower(_chain(t, _NO_ARGS, n, _spine(strategy), cap, {}, {})[0][0])


def _core(s: HeadForm) -> HeadForm:
    """`s` with the binders of its outermost level stripped."""
    frames = [s]
    while frames[-1].up is not None:
        frames.append(frames[-1].up)
    if not frames[-1].binders:
        return s
    core = None
    for f in reversed(frames):
        core = HeadForm(0 if core is None else f.binders, f.head, f.args, core)
    return core


def _diverges(live: Collection[HeadForm], spine: bool, cap: int, beta: dict, foci: dict) -> bool:
    """Whether the successor closure of the live states stays finite,
    within `cap` states, and never touches an hnf: then no residual mass
    can ever converge."""
    if not live:
        return True
    # the closure is over cores, states with their leading binders
    # stripped: both strategies commute with λ, and λx.W is an hnf iff W
    # is, so a residual that only grows a λ-prefix closes too. Cores may
    # hold dangling indices, which both strategies handle.
    # Breadth first, over the list it extends: a depth-first search could
    # dive into an infinite branch before it meets a nearby hnf.
    work = list(dict.fromkeys(_core(s) for s in live))
    seen = set(work)
    for s in work:
        out = _successor(s, spine, beta) if s.up is None else _framed(s, spine, beta, foci)
        for s2 in out:
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
    mass can ever converge and the lower bound is exact. A chain stopped at
    a fixed point, or with only parked states left, is its own closure.
    """
    spine = _spine(strategy)
    # the closure re-steps states that the chain just stepped, so both
    # share one contraction table and one focus table
    beta, foci = {}, {}
    absorbed, live, parked = _chain(t, _NO_ARGS, steps, spine, cap, beta, foci)
    rest = [*live[0], *parked[0]] if live else ()
    return Approx(_lower(absorbed[0]), _diverges(rest, spine, cap, beta, foci))


def _converge_seqs(
    m: Term, seqs: Sequence[Sequence[Term]], steps: int, cap: int = DEFAULT_LEAF_CAP
) -> List[Approx]:
    """`converge(m a⃗, steps, cap=cap)` for each sequence a⃗ of `seqs`,
    with the steps that sequences sharing a prefix share taken once."""
    if not seqs:
        return []
    beta: dict = {}
    trie = _trie(seqs)
    absorbed, live, parked = _chain(m, trie, steps, False, cap, beta, {})
    exact = {
        t: not open_ or _diverges(states, False, cap, beta, {})
        for t, states, open_ in _residuals(trie, live, parked)
    } if live else {}
    return [Approx(_lower(absorbed[t]), exact.get(t, True)) for t in trie[2]]


def trace_tree(
    t: Term, steps: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP
) -> dict:
    """Expand the reduction tree to the given depth for display.

    Hnfs are leaves (absorbing). Returns nested {prob, term, children}
    dictionaries with Dyadic probabilities.
    """
    _check_count(steps, "steps")
    _check_count(cap, "cap")
    spine = _spine(strategy)
    beta: dict = {}
    foci: dict = {}
    count = 0

    def node(s: State, p: Dyadic, depth: int) -> dict:
        nonlocal count
        count += 1
        if count > cap:
            raise ResourceCapExceeded(f"trace node count exceeded cap {cap}")
        entry = {"prob": p, "term": _as_term(s), "children": []}
        if depth < steps and type(s) is HeadForm:
            out = _successor(s, spine, beta) if s.up is None else _framed(s, spine, beta, foci)
            q = ONE if len(out) == 1 else HALF
            entry["children"] = [node(s2, q, depth + 1) for s2 in out]
        return entry

    return node(_decompose(t, spine), ONE, 0)
