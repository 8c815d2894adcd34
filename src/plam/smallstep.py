"""Head and head spine reduction as probabilistic transition relations.

Both strategies are exposed as one-step stochastic outcomes (head normal
forms self-loop, so iterated rows are cumulative), plus exact n-step
convergence tables computed by exhaustive enumeration with merging of
alpha-equivalent intermediate states.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .prob import Approx, Dyadic, Distr, HALF, ONE
from .syntax import (
    Choice,
    HeadForm,
    Lam,
    ResourceCapExceeded,
    Term,
    classify,
    is_hnf,
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
    A step that leaves `live` unchanged absorbed nothing (every weight is
    positive and outcomes sum to one), so every later step repeats it:
    the loop stops there with the result the remaining steps would give.
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
        if len(nxt) + len(absorbed) > cap:
            raise ResourceCapExceeded(
                f"reduction state count exceeded cap {cap}"
            )
        if nxt == live:
            break
        live = nxt
    return absorbed, live


def step_n(t: Term, n: int, strategy: str = "head", cap: int = DEFAULT_LEAF_CAP) -> Distr:
    """Cumulative probability of having reached each hnf within n steps."""
    absorbed, _ = _run(t, n, _step_fn(strategy), cap)
    return Distr(absorbed.items())


def _core(t: Term) -> Term:
    while type(t) is Lam:
        t = t.body
    return t


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
    # the closure is over cores, states with their leading binders
    # stripped: both strategies commute with λ, and λx.W is an hnf iff W
    # is, so a residual that only grows a λ-prefix closes too. Cores may
    # hold dangling indices, which both strategies handle.
    # Breadth first, over the list it extends: a depth-first search could
    # dive into an infinite branch before it meets a nearby hnf.
    work = list(dict.fromkeys(_core(s) for s in live))
    seen = set(work)
    for s in work:
        for _, s2 in step(s):
            if is_hnf(s2):
                return Approx(lower, False)
            s2 = _core(s2)
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
