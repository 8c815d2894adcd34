"""Fuel-bounded big-step evaluation to subprobability distributions of
head normal forms.

The fuel budget is spent only on the recursive continuations of the
application rule (evaluating H[N/x] after the function part settles);
variables, abstraction bodies, and choice branches are free. Budget 0
forces the give-up rule, contributing missing mass instead of an error.
The result is the largest distribution derivable under that policy, and
is monotone in the fuel. As fuel is read only there, a derivation in
which the give-up rule never fired is the same at every larger fuel:
`_eval` returns its `need`, the least such fuel, or ∞ (`math.inf`) if
it gave up, so needs combine by `max` alone.

An evaluation keeps two tables, keyed by α-equivalence (equality of
nameless terms) and dropped when its caller returns: a memo, holding a
result under (term, fuel) when its `need` exceeds that fuel, which is
exactly when it gave up, and otherwise under the term alone, for every
fuel at or above its `need`; and a contraction table from a β-redex
(λ.b, a) to b[a], so each redex is substituted once.
"""

from __future__ import annotations

import math

from .prob import Approx, Distr, HALF, point
from .syntax import App, Choice, Free, Lam, Term, Var, substitute


def _eval(term: Term, fuel: int, memo: dict, beta: dict) -> tuple[Distr, float]:
    # the memo lookups stay inline: one Python frame per term level
    out = memo.get(term)
    if out is None or out[1] > fuel:
        out = memo.get((term, fuel))
    if out is not None:
        return out
    if isinstance(term, (Var, Free)):
        out = (point(term), 0)
    elif isinstance(term, Lam):
        body, need = _eval(term.body, fuel, memo, beta)
        out = (body.map_support(Lam), need)
    elif isinstance(term, Choice):
        # both halves' halved pairs go into one Distr, for the same reason
        # as in the application rule below
        left, need = _eval(term.left, fuel, memo, beta)
        right, right_need = _eval(term.right, fuel, memo, beta)
        pairs = [(h, w * HALF) for side in (left, right) for h, w in side.items()]
        out = (Distr(pairs), max(need, right_need))
    else:
        # application: evaluate the function part, then dispatch on its
        # support; collect every branch's pairs and build the result once:
        # summing Distrs branch by branch re-merges the whole support on
        # every branch
        pairs = []
        fun, need = _eval(term.fun, fuel, memo, beta)
        for h, w in fun.items():
            if not isinstance(h, Lam):
                pairs.append((App(h, term.arg), w))
            elif fuel == 0:
                need = math.inf
            else:
                redex = (h, term.arg)
                body = beta.get(redex)
                if body is None:
                    body = beta[redex] = substitute(h.body, term.arg)
                res, body_need = _eval(body, fuel - 1, memo, beta)
                pairs.extend((h2, v * w) for h2, v in res.items())
                need = max(need, body_need + 1)
        out = (Distr(pairs), need)
    memo[(term, fuel) if out[1] > fuel else term] = out
    return out


def _approx(term: Term, fuel: int, memo: dict, beta: dict) -> Approx:
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    distr = _eval(term, fuel, memo, beta)[0]
    return Approx(distr, not distr.deficit)


def eval_fuel(term: Term, fuel: int) -> Approx:
    """Evaluate `term` with the given fuel budget.

    Subterm results and β-contractions are shared through tables that
    live for this call only; a subterm result that did not give up is
    reused at every fuel at or above the fuel it needed. The bound is
    exact when its deficit is zero: a lower bound of mass 1 is the limit.
    """
    return _approx(term, fuel, {}, {})
