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

Each public call owns one contraction table, from a β-redex (λ.b, a) to
b[a], keyed by alpha-equivalence and dropped when the call returns, so a
redex that the chain meets again (every round of a recursion through
`Theta`) is substituted once; `converge` shares its table between the
chain and the certification closure, which re-steps the chain's states.

`step_n`, `converge` and `trace_tree` also own a focus table, dropped with
the call. A framed state steps the same whatever its frames are, as long
as its focus λⁿ.h M⃗ is the same: the frames are read only when the focus
becomes an hnf and pops into the innermost one. So the table maps a
focus, keyed by alpha-equivalence, to its successors in a placeholder
frame `_TOP`, and a framed state takes them with `_TOP` replaced by its
own frames; under the spine strategy a body below many enclosing redexes
is stepped once per call, not once per redex. Frameless states, every
head-strategy state among them, are stepped directly.

The chain's weights are integers over one shared power of two 2^e: e
grows by one on each step where a live state's head is a choice, so a
chain of β-steps keeps its numerators as they are. An absorbed hnf keeps
its numerator with the exponent at which it last grew. The `Dyadic`s are
built once, into the returned `Distr`.

`_converge_seqs` runs the head chains of m a⃗ for many argument sequences
a⃗ at once, over the trie of their prefixes: head reduction leaves the
arguments untouched until the head is an abstraction that needs the next
one, so sequences that share a prefix share those steps. `converge` and
`_converge_seqs` certify a residual by one closure, `_diverges`.
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


def _run(
    t: Term, steps: int, spine: bool, cap: int, beta: dict, foci: dict
) -> Tuple[Distr, Dict[HeadForm, int], bool]:
    """Iterate the absorbing chain, merging equal states.

    Returns the absorbed hnf mass, the live states with their numerators,
    and whether the chain stopped at a fixed point. A live weight is its
    numerator over 2^e, the exponent e shared: a step where some live head
    is a choice raises e by one, doubles the numerator of each state with
    one successor and keeps it on each branch of a split; any other step
    keeps every numerator. Whether the next step raises e is read off each
    state as it enters `nxt`. An absorbed hnf keeps its numerator with the
    exponent at which it last grew, so the `Dyadic`s are built once, at the
    end.
    A step that leaves every live weight as it was absorbed nothing, since
    every weight is positive and outcomes sum to one, so every later step
    repeats it: the loop stops there with the result the remaining steps
    would give.
    """
    _check_count(steps, "steps")
    _check_count(cap, "cap")
    absorbed: Dict[Term, Tuple[int, int]] = {}
    live: Dict[HeadForm, int] = {}
    s = _decompose(t, spine)
    if type(s) is HeadForm:
        live[s] = 1
        split = type(s.head) is Choice
    else:
        absorbed[s] = (1, 0)
    if len(live) + len(absorbed) > cap:
        raise ResourceCapExceeded(f"reduction state count exceeded cap {cap}")
    e = k = 0
    fixed = False
    while live and k < steps:
        k += 1
        rise = 1 if split else 0
        e += rise
        split = False
        nxt: Dict[HeadForm, int] = {}
        for s, w in live.items():
            out = _successor(s, spine, beta) if s.up is None else _framed(s, spine, beta, foci)
            if len(out) == 1:
                w <<= rise
            for s2 in out:
                if type(s2) is HeadForm:
                    v = nxt.get(s2)
                    if v is None:
                        nxt[s2] = w
                        split = split or type(s2.head) is Choice
                    else:
                        nxt[s2] = v + w
                else:
                    prev = absorbed.get(s2)
                    absorbed[s2] = (w, e) if prev is None else ((prev[0] << (e - prev[1])) + w, e)
        if len(nxt) + len(absorbed) > cap:
            raise ResourceCapExceeded(f"reduction state count exceeded cap {cap}")
        if len(nxt) == len(live):
            for s, w in live.items():
                if nxt.get(s) != w << rise:
                    break
            else:
                fixed = True
        live = nxt
        if fixed:
            break
    return Distr((h, Dyadic(n, x)) for h, (n, x) in absorbed.items()), live, fixed


def step_n(t: Term, n: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP) -> Distr:
    """Cumulative probability of having reached each hnf within n steps."""
    return _run(t, n, _spine(strategy), cap, {}, {})[0]


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


def converge(
    t: Term, steps: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP
) -> Approx:
    """Run the absorbing chain and try to certify the residual as divergent.

    Certification explores the successor closure of the live states; if it
    stays finite (within the cap) and never touches an hnf, no residual
    mass can ever converge and the lower bound is exact. A chain that
    stopped at a fixed point needs no closure: its last step absorbed
    nothing and kept every live state live, so the live states are their
    own closure.
    """
    spine = _spine(strategy)
    # the closure re-steps states that the chain just stepped, so both
    # share one contraction table and one focus table
    beta: dict = {}
    foci: dict = {}
    lower, live, fixed = _run(t, steps, spine, cap, beta, foci)
    return Approx(lower, fixed or _diverges(live, spine, cap, beta, foci))


def _converge_seqs(
    m: Term, seqs: Sequence[Sequence[Term]], steps: int, cap: int = DEFAULT_LEAF_CAP
) -> List[Approx]:
    """`converge(m a⃗, steps, cap=cap)` under head reduction for each
    sequence a⃗ of `seqs`, with the steps that sequences sharing a prefix
    share taken once.

    Head reduction of m a⃗ leaves a⃗ untouched until the head is an
    abstraction with no argument left to take, the argument stack of
    Krivine's machine. So the sequences run over the trie of their
    argument prefixes, one node per prefix (keyed by alpha-equivalence),
    and a node where a sequence ends while others go on gets a terminal
    twin, followed by the ending sequences only. An entry (state, node)
    stands for every sequence below the node, the arguments still pending
    appended to the state's; its state has no leading binder unless its
    node is terminal. A step that yields a leading binder or an hnf at a
    node with children pops it: the twin keeps it, and each child a takes
    the β-redex (λ-term) a in that same step, so every sequence sees the
    steps of its own chain.

    Weights are numerators over one shared 2^e, as in `_run`. An entry
    whose one successor is itself (Ω) is parked: it is not stepped again,
    and its weight, which no result reads, is not kept. The run stops at
    the step budget, when nothing unparked is live, or at a step that
    leaves every entry and weight as it was; each sequence's chain is
    then at a fixed point too, or would repeat its last step. The cap
    bounds each sequence's distinct states plus absorbed hnfs, as in
    `converge`; the count is made per sequence only when the entries and
    absorbed hnfs of all sequences together exceed it, since entries at
    different nodes can stand for one state of a sequence.
    """
    _check_count(steps, "steps")
    _check_count(cap, "cap")
    if not seqs:
        return []
    # the trie: each node's children by argument and its depth, each
    # sequence's path of nodes from the root, and for each node where a
    # sequence ends its terminal node (a twin when the node has children),
    # with the sequence and the path to it
    kids: List[Dict[Term, int]] = [{}]
    depth = [0]
    walks = []
    for seq in seqs:
        path = [0]
        for a in seq:
            node = path[-1]
            child = kids[node].get(a)
            if child is None:
                child = kids[node][a] = len(kids)
                kids.append({})
                depth.append(depth[node] + 1)
            path.append(child)
        walks.append(path)
    terminal: Dict[int, int] = {}
    paths: Dict[int, Tuple[Tuple[Term, ...], List[int]]] = {}
    for seq, path in zip(seqs, walks):
        end = path[-1]
        if end not in terminal:
            t = terminal[end] = end
            if kids[end]:
                t = terminal[end] = len(kids)
                kids.append({})
                depth.append(depth[end])
                path = path + [t]
            paths[t] = (tuple(seq), path)

    beta: dict = {}
    absorbed: Dict[int, Dict[Term, Tuple[int, int]]] = {t: {} for t in paths}
    parked: set = set()
    e = hnf_count = 0

    def place(s: State, node: int, w: int, nxt: dict) -> bool:
        """Enter `s`, reached at `node` with numerator `w`; whether it is a
        live state with a choice head."""
        nonlocal hnf_count
        split = False
        todo = [(s, node)]
        while todo:
            s, node = todo.pop()
            below = kids[node]
            is_live = type(s) is HeadForm
            if below and not (is_live and s.binders == 0):
                if is_live or type(s) is Lam:
                    # pop: each child takes the abstraction as a β-redex
                    lam = _as_term(s)
                    for a, child in below.items():
                        key = (HeadForm(0, lam, (a,)), child)
                        if key not in parked:
                            v = nxt.get(key)
                            nxt[key] = w if v is None else v + w
                else:
                    # an hnf with no leading binder stays one under arguments
                    todo.extend((App(s, a), child) for a, child in below.items())
                node = terminal.get(node)
                if node is None:
                    continue
            if is_live:
                key = (s, node)
                if key not in parked:
                    v = nxt.get(key)
                    if v is None:
                        nxt[key] = w
                        split = split or type(s.head) is Choice
                    else:
                        nxt[key] = v + w
            else:
                hnfs = absorbed[node]
                prev = hnfs.get(s)
                if prev is None:
                    hnfs[s] = (w, e)
                    hnf_count += 1
                else:
                    hnfs[s] = ((prev[0] << (e - prev[1])) + w, e)
        return split

    def residuals(live: dict):
        """Each terminal node with the distinct states of its sequence's
        chain, and whether one of them is unparked."""
        at: Dict[int, list] = {}
        for entries, unparked in ((live, True), (parked, False)):
            for s, node in entries:
                at.setdefault(node, []).append((s, unparked))
        for t, (seq, path) in paths.items():
            # a dict, so that the closure's order, which decides where it
            # stops, does not depend on hashing
            states = {}
            open_ = False
            for node in path:
                rest = seq[depth[node]:]
                for s, unparked in at.get(node, ()):
                    # a state at a node with children has no leading binder
                    states[HeadForm(0, s.head, s.args + rest) if rest else s] = None
                    open_ = open_ or unparked
            yield t, states, open_

    def check_cap(live: dict) -> None:
        if len(live) + len(parked) + hnf_count <= cap:
            return
        for t, states, _ in residuals(live):
            if len(states) + len(absorbed[t]) > cap:
                raise ResourceCapExceeded(f"reduction state count exceeded cap {cap}")

    live: Dict[Tuple[HeadForm, int], int] = {}
    split = place(_decompose(m, False), 0, 1, live)
    check_cap(live)
    k = 0
    fixed = False
    while live and k < steps:
        k += 1
        rise = 1 if split else 0
        e += rise
        split = False
        table: Dict[HeadForm, Tuple[State, ...]] = {}
        loops = []
        nxt: Dict[Tuple[HeadForm, int], int] = {}
        for entry, w in live.items():
            s, node = entry
            out = table.get(s)
            if out is None:
                out = table[s] = _successor(s, False, beta)
            if len(out) == 1:
                w <<= rise
                if out[0] == s:
                    loops.append(entry)
            for s2 in out:
                if type(s2) is HeadForm and (not s2.binders or not kids[node]):
                    # the common case, a state that stays at its node
                    key = (s2, node)
                    v = nxt.get(key)
                    if v is not None:
                        nxt[key] = v + w
                    elif key not in parked:
                        nxt[key] = w
                        split = split or type(s2.head) is Choice
                else:
                    split = place(s2, node, w, nxt) or split
        check_cap(nxt)
        if len(nxt) == len(live):
            for entry, w in live.items():
                if nxt.get(entry) != w << rise:
                    break
            else:
                fixed = True
        for entry in loops:
            parked.add(entry)
            del nxt[entry]
        live = nxt
        if fixed:
            break

    # every sequence's residual is closed once the run stopped short of
    # the budget: at a fixed point, or with only parked states left, which
    # step onto themselves
    if fixed or not live:
        exact = dict.fromkeys(paths, True)
    else:
        exact = {
            t: not open_ or _diverges(states, False, cap, beta, {})
            for t, states, open_ in residuals(live)
        }
    results = {
        t: Approx(Distr((h, Dyadic(n, x)) for h, (n, x) in hnfs.items()), exact[t])
        for t, hnfs in absorbed.items()
    }
    return [results[terminal[path[-1]]] for path in walks]


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
