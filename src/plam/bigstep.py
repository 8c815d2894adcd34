"""Fuel-bounded big-step evaluation to subprobability distributions of
head normal forms.

The fuel budget is spent only on the recursive continuations of the
application rule (evaluating H[N/x] after the function part settles);
variables, abstraction bodies, and choice branches are free. Budget 0
forces the give-up rule, contributing missing mass instead of an error.
The result is the largest distribution derivable under that policy, and
is monotone in the fuel.

Each call keeps two tables, both keyed by α-equivalence (equality of
nameless terms) and dropped when it returns: a memo from (term, fuel) to
its distribution, and a contraction table from a β-redex (λ.b, a) to
b[a]. Recursion through a fixed point combinator contracts the same
redexes at every fuel it reaches them with; each is substituted once.
"""

from __future__ import annotations

from .prob import Approx, Distr, HALF, point
from .syntax import App, Choice, Free, Lam, Term, Var, substitute


def _eval(term: Term, fuel: int, memo: dict, beta: dict) -> Distr:
    # the memo lookup stays inline: one Python frame per term level
    key = (term, fuel)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(term, (Var, Free)):
        out = point(term)
    elif isinstance(term, Lam):
        out = _eval(term.body, fuel, memo, beta).map_support(Lam)
    elif isinstance(term, Choice):
        # both halves' halved pairs go into one Distr, for the same reason
        # as in the application rule below
        pairs = [(h, w * HALF) for h, w in _eval(term.left, fuel, memo, beta).items()]
        pairs.extend((h, w * HALF) for h, w in _eval(term.right, fuel, memo, beta).items())
        out = Distr(pairs)
    else:
        # application: evaluate the function part, then dispatch on its
        # support; collect every branch's pairs and build the result once:
        # summing Distrs branch by branch re-merges the whole support on
        # every branch
        pairs = []
        for h, w in _eval(term.fun, fuel, memo, beta).items():
            if isinstance(h, Lam):
                if fuel > 0:
                    redex = (h, term.arg)
                    body = beta.get(redex)
                    if body is None:
                        body = beta[redex] = substitute(h.body, term.arg)
                    pairs.extend((h2, v * w) for h2, v in _eval(body, fuel - 1, memo, beta).items())
            else:
                pairs.append((App(h, term.arg), w))
        out = Distr(pairs)
    memo[key] = out
    return out


def eval_fuel(term: Term, fuel: int) -> Approx:
    """Evaluate `term` with the given fuel budget.

    Subterm results and β-contractions are shared through tables that
    live for this call only. The bound is exact when its deficit is zero:
    a lower bound of mass 1 is the limit.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    distr = _eval(term, fuel, {}, {})
    return Approx(distr, not distr.deficit)
