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
exact, with no `Dyadic` per weight. Both the choice rule and the
application rule are one sum (`_mix`): a choice sums its two sides, an
application the function part's stuck entries and its bodies' results,
each body's numerators multiplied by its entry's, all shifted to the
largest exponent. A sum with a single non-empty part of coefficient 1,
such as a choice with one empty side or the body of a function part that
is one abstraction of numerator 1, returns that part's dict unchanged
with its exponent raised, in O(1) time. Dicts are therefore shared
between results, and no stored dict is ever mutated. `_approx` hands a
result's numerators and exponent to the public `Distr` directly, with no
`Dyadic` built, once per distinct result, and keeps the `Distr` with the
result, so later lookups of that result reuse it.

An evaluation keeps three tables, keyed by α-equivalence (equality of
nameless terms) and dropped when its caller returns (`_tables`): a memo,
holding a result under (term, fuel) when its `need` exceeds that fuel,
which is exactly when it gave up, and otherwise under the term alone, for
every fuel at or above its `need`; a substitution table, from an
argument a to the rewrites that substituting a made, keyed by (subterm,
cutoff), so a β-redex (λ.b, a) met again is answered by the stored b[a]
and a body that shares subterms with an earlier one for the same
argument rebuilds only what is new (the walk `Theta (λf x. x ⊕ f (s x)) z`
builds s^(k+1) x over the stored s^k x at every fuel); and an abstraction
table from an hnf body h to the one `Lam(h)` that wraps it, so the
abstraction rule builds no node twice and the lookups that meet that hnf
again match it by identity.
"""

from __future__ import annotations

import math

from .prob import Approx, Distr, Dyadic, _Scaled
from .syntax import App, Choice, Free, Lam, Term, Var, _check_count, substitute


def _mix(parts: list, scale: int) -> tuple[dict, int]:
    """Sum the parts (c, numerators, e), an entry n of which weighs
    c·n/2^e, over their largest e plus `scale`. A lone non-empty part with
    c = 1 is returned as it is, and the first one with c = 1 at the largest
    e is copied whole; no part's dict is changed."""
    top = live = 0
    base = None
    for part in parts:
        c, weights, e = part
        if weights:
            live += 1
            if e > top:
                top = e
                base = part if c == 1 else None
            elif base is None and c == 1 and e == top:
                base = part
    if base is not None and live == 1:
        return base[1], top + scale
    out = {} if base is None else dict(base[1])
    for part in parts:
        if part is not base:
            c, weights, e = part
            shift = top - e
            for h, n in weights.items():
                out[h] = out.get(h, 0) + (c * n << shift)
    return _checked(out, top + scale)


def _checked(out: dict, exp: int) -> tuple[dict, int]:
    mass = sum(out.values())
    if mass > 1 << exp:
        raise ValueError(f"distribution mass {Dyadic(mass, exp)} exceeds 1")
    return out, exp


def _eval(term: Term, fuel: int, memo: dict, subst: dict, lams: dict) -> list:
    # a result is [numerators, exponent, need, its Approx once built]; the
    # memo lookups stay inline: one Python frame per term level
    out = memo.get(term)
    if out is None or out[2] > fuel:
        out = memo.get((term, fuel))
    if out is not None:
        return out
    kind = type(term)
    if kind is Var or kind is Free:
        out = [{term: 1}, 0, 0, None]
    elif kind is Lam:
        body, exp, need, _ = _eval(term.body, fuel, memo, subst, lams)
        wrapped = {}
        for h, n in body.items():
            lam = lams.get(h)
            if lam is None:
                lam = lams[h] = term if h is term.body else Lam(h)
            wrapped[lam] = n
        out = [wrapped, exp, need, None]
    elif kind is Choice:
        left = _eval(term.left, fuel, memo, subst, lams)
        right = _eval(term.right, fuel, memo, subst, lams)
        parts = [(1, left[0], left[1]), (1, right[0], right[1])]
        need = left[2] if left[2] >= right[2] else right[2]
        out = [*_mix(parts, 1), need, None]
    else:
        # application: evaluate the function part, then dispatch on its
        # support; every branch is one part of a single sum, so the
        # result's dict is built once, not re-merged branch by branch
        fun, exp, need, _ = _eval(term.fun, fuel, memo, subst, lams)
        stuck = {}
        parts = [(1, stuck, 0)]
        for h, n in fun.items():
            if type(h) is not Lam:
                # a function part that is its own hnf leaves the term as it is
                stuck[term if h is term.fun else App(h, term.arg)] = n
            elif fuel == 0:
                need = math.inf
            else:
                body = substitute(h.body, term.arg, subst)
                res = _eval(body, fuel - 1, memo, subst, lams)
                parts.append((n, res[0], res[1]))
                if res[2] >= need:
                    need = res[2] + 1
        out = [*_mix(parts, exp), need, None]
    memo[(term, fuel) if out[2] > fuel else term] = out
    return out


def _tables() -> tuple:
    """Fresh tables for one evaluation: memo, substitution and abstraction."""
    return {}, {}, {}


def _approx(term: Term, fuel: int, tables: tuple) -> Approx:
    out = _eval(term, fuel, *tables)
    if out[3] is None:
        distr = Distr(_Scaled(out[0], out[1]))
        out[3] = Approx(distr, not distr.deficit)
    return out[3]


def eval_fuel(term: Term, fuel: int) -> Approx:
    """Evaluate `term` with the given fuel budget.

    Subterm results and substitutions, each β-contraction among them, are
    shared through tables that live for this call only; a subterm result
    that did not give up is reused at every fuel at or above the fuel it
    needed. The bound is exact when its deficit is zero: a lower bound of
    mass 1 is the limit.
    """
    _check_count(fuel, "fuel")
    return _approx(term, fuel, _tables())
