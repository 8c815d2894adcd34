"""Reference helpers that the tests check the library against; they are
not part of the library."""

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from plam.prob import Dyadic, ONE
from plam.smallstep import StepOutcome, head_step, spine_step
from plam.syntax import ResourceCapExceeded, Term, is_hnf, size


def frac(d: Dyadic) -> Fraction:
    """The value of `d` as a `Fraction`."""
    return Fraction(d.num, 1 << d.exp)


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


def run_every_step(
    t: Term, steps: int, step: Callable[[Term], StepOutcome], cap: int
) -> Tuple[Dict[Term, Dyadic], Dict[Term, Dyadic]]:
    """The absorbing chain of `smallstep._run`, iterated for all `steps`
    steps with no stop at a fixed point."""
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
            raise ResourceCapExceeded(f"reduction state count exceeded cap {cap}")
    return absorbed, live
