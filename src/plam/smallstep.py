"""Head and head spine reduction as probabilistic transition relations.

Both strategies are exposed as one-step stochastic outcomes (head normal
forms self-loop, so iterated rows are cumulative), plus exact n-step
convergence tables computed by exhaustive enumeration with merging of
alpha-equivalent intermediate states.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .prob import Approx, Dyadic, Distr, HALF, ONE
from .syntax import (
    Choice,
    HeadForm,
    Lam,
    ResourceCapExceeded,
    Term,
    classify,
    is_hnf,
    size,
    substitute,
)

DEFAULT_LEAF_CAP = 1 << 16

StepOutcome = Tuple[Tuple[Dyadic, Term], ...]


def _choice_outcome(form: HeadForm) -> StepOutcome:
    choice, args = form.head, form.args
    # branches equal modulo alpha collapse with probability 1
    if choice.left == choice.right:
        return ((ONE, form.plug(choice.left, args)),)
    return ((HALF, form.plug(choice.left, args)), (HALF, form.plug(choice.right, args)))


def head_step(t: Term) -> StepOutcome:
    """One step of head reduction; an hnf yields its self-loop."""
    form = classify(t)
    head, args = form.head, form.args
    kind = type(head)
    if kind is Lam:
        return ((ONE, form.plug(substitute(head.body, args[0]), args[1:])),)
    if kind is Choice:
        return _choice_outcome(form)
    return ((ONE, t),)


def spine_step(t: Term) -> StepOutcome:
    """One step of head spine reduction (body-first for stacked redexes)."""
    form = classify(t)
    head, args = form.head, form.args
    kind = type(head)
    if kind is Choice:
        return _choice_outcome(form)
    if kind is not Lam:
        return ((ONE, t),)
    body = head.body
    if is_hnf(body):
        return ((ONE, form.plug(substitute(body, args[0]), args[1:])),)
    return tuple((p, form.plug(Lam(body2), args)) for p, body2 in spine_step(body))


_STRATEGIES = {"head": head_step, "spine": spine_step}


def _step_fn(strategy: str) -> Callable[[Term], StepOutcome]:
    try:
        return _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None


def _run(
    t: Term, steps: int, step: Callable[[Term], StepOutcome], cap: int
) -> Tuple[Dict[Term, Dyadic], Dict[Term, Dyadic]]:
    """Iterate the absorbing chain, merging equal states.

    Returns (absorbed hnf mass, live non-hnf mass) after `steps` steps.
    """
    absorbed: Dict[Term, Dyadic] = {}
    live: Dict[Term, Dyadic] = {}
    (absorbed if is_hnf(t) else live)[t] = ONE
    for _ in range(steps):
        if not live:
            break
        nxt: Dict[Term, Dyadic] = {}
        for s, w in live.items():
            for p, s2 in step(s):
                target = absorbed if is_hnf(s2) else nxt
                prev = target.get(s2)
                target[s2] = prev + w * p if prev is not None else w * p
        live = nxt
        if len(live) + len(absorbed) > cap:
            raise ResourceCapExceeded(
                f"reduction state count exceeded cap {cap}"
            )
    return absorbed, live


def step_n(t: Term, n: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP) -> Distr:
    """Cumulative probability of having reached each hnf within n steps."""
    absorbed, _ = _run(t, n, _step_fn(strategy), cap)
    return Distr(absorbed.items())


def converge(
    t: Term, steps: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP
) -> Approx:
    """Run the absorbing chain and try to certify the residual as divergent.

    Certification explores the successor closure of the live states; if it
    stays finite (within the cap) and never touches an hnf, no residual
    mass can ever converge and the lower bound is exact.
    """
    step = _step_fn(strategy)
    absorbed, live = _run(t, steps, step, cap)
    lower = Distr(absorbed.items())
    seen = set(live)
    # breadth first, over the list it extends: a depth-first search could
    # dive into an infinite branch before it meets a nearby hnf
    work = list(live)
    for s in work:
        for _, s2 in step(s):
            if is_hnf(s2):
                return Approx(lower, False)
            if s2 not in seen:
                seen.add(s2)
                if len(seen) > cap:
                    return Approx(lower, False)
                work.append(s2)
    return Approx(lower, True)


def trace_tree(
    t: Term, steps: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP
) -> dict:
    """Expand the reduction tree to the given depth for display.

    Hnfs are leaves (absorbing). Returns nested {prob, term, children}
    dictionaries with Dyadic probabilities.
    """
    step = _step_fn(strategy)
    count = 0

    def node(s: Term, p: Dyadic, depth: int) -> dict:
        nonlocal count
        count += 1
        if count > cap:
            raise ResourceCapExceeded(f"trace node count exceeded cap {cap}")
        entry = {"prob": p, "term": s, "children": []}
        if depth < steps and not is_hnf(s):
            entry["children"] = [node(s2, q, depth + 1) for q, s2 in step(s)]
        return entry

    return node(t, ONE, 0)


def commute_witness(
    m: Term, bound: Optional[int] = None
) -> List[Tuple[Dyadic, Term, Optional[Tuple[int, Term]]]]:
    """For each spine successor m ⇢ₚ m′, search for a joining term.

    A witness is (n₀, M₀) with m reaching M₀ in n₀+1 head steps of total
    probability p, and m′ reaching M₀ in n₀ probability-1 head steps.
    Returns None in place of a witness when the bound is exhausted.
    """
    results = []
    for p, m2 in spine_step(m):
        limit = bound if bound is not None else max(size(m2), 4)
        # deterministic head chain from m2
        chain2 = [m2]
        cur = m2
        for _ in range(limit):
            if is_hnf(cur):
                break
            out = head_step(cur)
            if len(out) != 1:
                break
            cur = out[0][1]
            chain2.append(cur)
        # probability-weighted head paths from m, matched against the chain
        witness = None
        paths = {(ONE, m)}
        for depth in range(1, limit + 2):
            nxt = set()
            for q, s in paths:
                for pq, s2 in head_step(s):
                    nxt.add((q * pq, s2))
            paths = nxt
            n0 = depth - 1
            if n0 < len(chain2):
                target = chain2[n0]
                for q, s in paths:
                    if s == target and q == p:
                        witness = (n0, target)
                        break
            if witness:
                break
        results.append((p, m2, witness))
    return results
