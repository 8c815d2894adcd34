"""Fuel-bounded big-step evaluation to subprobability distributions of
head normal forms.

The fuel budget is spent only on the recursive continuations of the
application rule (evaluating H[N/x] after the function part settles);
variables, abstraction bodies, and choice branches are free. Budget 0
forces the give-up rule, contributing missing mass instead of an error.
The result is the largest distribution derivable under that policy, and
is monotone in the fuel.
"""

from __future__ import annotations

from functools import lru_cache

from .prob import Dyadic, Distr, HALF, ONE, point
from .syntax import App, Choice, Free, Lam, Term, Var, substitute


class EvalResult:
    """A lower approximation of the head-form semantics of a term."""

    __slots__ = ("distr",)

    def __init__(self, distr: Distr):
        self.distr = distr

    @property
    def mass(self) -> Dyadic:
        return self.distr.mass

    @property
    def deficit(self) -> Dyadic:
        return ONE - self.distr.mass

    def __eq__(self, other):
        return isinstance(other, EvalResult) and other.distr == self.distr

    def __repr__(self):
        return f"EvalResult({self.distr!r}, deficit={self.deficit})"


@lru_cache(maxsize=None)
def _eval(term: Term, fuel: int) -> Distr:
    if isinstance(term, (Var, Free)):
        return point(term)
    if isinstance(term, Lam):
        return _eval(term.body, fuel).map_support(Lam)
    if isinstance(term, Choice):
        return _eval(term.left, fuel).scale(HALF) + _eval(term.right, fuel).scale(HALF)
    # application: evaluate the function part, then dispatch on its support
    # collect every branch's pairs and build the result once: summing
    # Distrs branch by branch re-merges the whole support on every branch
    pairs = []
    for h, w in _eval(term.fun, fuel).items():
        if isinstance(h, Lam):
            if fuel > 0:
                pairs.extend(_eval(substitute(h.body, term.arg), fuel - 1).scale(w).items())
        else:
            pairs.append((App(h, term.arg), w))
    return Distr(pairs)


def eval_fuel(term: Term, fuel: int) -> EvalResult:
    """Evaluate `term` with the given fuel budget."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    return EvalResult(_eval(term, fuel))


def eval_mass(term: Term, fuel: int) -> Dyadic:
    """Total convergence mass of the fuel approximant."""
    return eval_fuel(term, fuel).mass


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        return False


UNKNOWN = _Unknown()


def check_derivable(term: Term, d: Distr, fuel_cap: int):
    """Semi-decide whether some derivation of the big-step rules reaches `d`.

    Returns True when the fuel approximant dominates `d` within the cap
    (monotonicity makes checking the cap alone sufficient), else the
    UNKNOWN sentinel; never a definite False.
    """
    if d.leq(_eval(term, fuel_cap)):
        return True
    return UNKNOWN


def clear_cache():
    _eval.cache_clear()
