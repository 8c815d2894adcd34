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

Inside an evaluation a result is a dict from hnf to a positive integer
numerator plus one exponent e shared by all of them: a weight is n/2^e,
exact, with no `Dyadic` per weight. A choice shifts its sides to their
larger exponent, merges them and adds 1 to it; an application multiplies
the function part's numerators into its bodies' and shifts them to one
exponent. A sum with a single part of coefficient 1, such as a choice
with one empty side or the body of a function part that is one
abstraction of numerator 1, returns that part's dict unchanged with its
exponent raised, in O(1) time. Dicts are therefore shared between
results, and no stored dict is ever mutated. `_approx` builds the public
`Distr` of canonical `Dyadic`s once per distinct result and keeps it with
the result, so later lookups of that result reuse it.

An evaluation keeps two tables, keyed by α-equivalence (equality of
nameless terms) and dropped when its caller returns: a memo, holding a
result under (term, fuel) when its `need` exceeds that fuel, which is
exactly when it gave up, and otherwise under the term alone, for every
fuel at or above its `need`; and a contraction table from a β-redex
(λ.b, a) to b[a], so each redex is substituted once.
"""

from __future__ import annotations

import math

from .prob import Approx, Distr, Dyadic
from .syntax import App, Choice, Free, Lam, Term, Var, _check_count, substitute


def _mix(parts: list, scale: int) -> tuple[dict, int]:
    """Sum the parts (c, numerators, e), an entry n of which weighs
    c·n/2^e, over their largest e plus `scale`. A lone part with c = 1 is
    returned as it is, and one with c = 1 at the largest e is copied whole;
    no part's dict is changed."""
    parts = [p for p in parts if p[1]]
    if not parts:
        return {}, 0
    top = max(e for _, _, e in parts)
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1], top + scale
    base = next((p for p in parts if p[0] == 1 and p[2] == top), None)
    out = dict(base[1]) if base else {}
    for p in parts:
        if p is not base:
            c, weights, e = p
            shift = top - e
            for h, n in weights.items():
                out[h] = out.get(h, 0) + (c * n << shift)
    exp = top + scale
    mass = sum(out.values())
    if mass > 1 << exp:
        raise ValueError(f"distribution mass {Dyadic(mass, exp)} exceeds 1")
    return out, exp


def _eval(term: Term, fuel: int, memo: dict, beta: dict) -> list:
    # a result is [numerators, exponent, need, its Approx once built]; the
    # memo lookups stay inline: one Python frame per term level
    out = memo.get(term)
    if out is None or out[2] > fuel:
        out = memo.get((term, fuel))
    if out is not None:
        return out
    if isinstance(term, (Var, Free)):
        out = [{term: 1}, 0, 0, None]
    elif isinstance(term, Lam):
        body, exp, need, _ = _eval(term.body, fuel, memo, beta)
        out = [{Lam(h): n for h, n in body.items()}, exp, need, None]
    elif isinstance(term, Choice):
        left = _eval(term.left, fuel, memo, beta)
        right = _eval(term.right, fuel, memo, beta)
        parts = [(1, left[0], left[1]), (1, right[0], right[1])]
        out = [*_mix(parts, 1), max(left[2], right[2]), None]
    else:
        # application: evaluate the function part, then dispatch on its
        # support; every branch is one part of a single sum, so the
        # result's dict is built once, not re-merged branch by branch
        fun, exp, need, _ = _eval(term.fun, fuel, memo, beta)
        stuck = {}
        parts = [(1, stuck, 0)]
        for h, n in fun.items():
            if not isinstance(h, Lam):
                stuck[App(h, term.arg)] = n
            elif fuel == 0:
                need = math.inf
            else:
                redex = (h, term.arg)
                body = beta.get(redex)
                if body is None:
                    body = beta[redex] = substitute(h.body, term.arg)
                res = _eval(body, fuel - 1, memo, beta)
                parts.append((n, res[0], res[1]))
                need = max(need, res[2] + 1)
        out = [*_mix(parts, exp), need, None]
    memo[(term, fuel) if out[2] > fuel else term] = out
    return out


def _approx(term: Term, fuel: int, memo: dict, beta: dict) -> Approx:
    out = _eval(term, fuel, memo, beta)
    if out[3] is None:
        distr = Distr((h, Dyadic(n, out[1])) for h, n in out[0].items())
        out[3] = Approx(distr, not distr.deficit)
    return out[3]


def eval_fuel(term: Term, fuel: int) -> Approx:
    """Evaluate `term` with the given fuel budget.

    Subterm results and β-contractions are shared through tables that
    live for this call only; a subterm result that did not give up is
    reused at every fuel at or above the fuel it needed. The bound is
    exact when its deficit is zero: a lower bound of mass 1 is the limit.
    """
    _check_count(fuel, "fuel")
    return _approx(term, fuel, {}, {})
