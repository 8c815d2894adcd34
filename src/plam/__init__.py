"""Exact-arithmetic interpreter and equivalence toolkit for the untyped
probabilistic λ-calculus under head-style reduction."""

from .prob import Approx, Distr, Dyadic, point
from .syntax import (
    App,
    Choice,
    CONSTANTS,
    Free,
    Lam,
    ResourceCapExceeded,
    Term,
    Var,
    classify,
    free_vars,
    is_hnf,
    lam_close,
    parse,
    pretty,
    size,
    substitute,
)
from .bigstep import eval_fuel
from .smallstep import (
    converge,
    head_step,
    spine_step,
    step_n,
)
from .trees import Different, Equal, ProbTree, Unknown, ValueTree, eta_tree, prob_tree, tree_eq, value_tree
from .equiv import (
    Apply,
    HnfState,
    TAU,
    TermState,
    applicative_compare,
    refute_bisim,
    refute_sim,
    transitions,
)
from .assign import (
    AssignmentProblem,
    AssignmentSolution,
    Infeasible,
    assignment_solve,
)

# the names above, not the submodules that the imports also bind
__all__ = [
    "Approx", "Distr", "Dyadic", "point",
    "App", "Choice", "CONSTANTS", "Free", "Lam", "ResourceCapExceeded", "Term", "Var",
    "classify", "free_vars", "is_hnf", "lam_close", "parse", "pretty", "size", "substitute",
    "eval_fuel",
    "converge", "head_step", "spine_step", "step_n",
    "Different", "Equal", "ProbTree", "Unknown", "ValueTree", "eta_tree", "prob_tree",
    "tree_eq", "value_tree",
    "Apply", "HnfState", "TAU", "TermState", "applicative_compare", "refute_bisim",
    "refute_sim", "transitions",
    "AssignmentProblem", "AssignmentSolution", "Infeasible", "assignment_solve",
]
