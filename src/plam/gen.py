"""Seeded random term generation for corpus tests and the proptest command."""

from __future__ import annotations

import random
from typing import List, Optional

from .syntax import App, Choice, Free, Lam, Term, Var, size

# at the corpus sizes in use, no run of draws adding no new term was seen
# to pass 200
_MAX_FRUITLESS_DRAWS = 100_000


def random_term(
    rng: random.Random,
    max_size: int = 12,
    env: int = 0,
    free_names: Optional[List[str]] = None,
) -> Term:
    """Generate a term of structural size at most max_size.

    `env` is the number of enclosing binders available for bound
    variables; with env 0 and no free names the result is closed apart
    from forced abstraction.
    """
    leaves: List[Term] = []
    if env:
        leaves.append(Var(rng.randrange(env)))
    if free_names:
        leaves.append(Free(rng.choice(free_names)))
    if max_size <= 1 or (leaves and rng.random() < 0.25):
        if leaves:
            return rng.choice(leaves)
        return Lam(random_term(rng, max_size - 1, env + 1, free_names))
    shape = rng.random()
    if shape < 0.4:
        return Lam(random_term(rng, max_size - 1, env + 1, free_names))
    budget = max_size - 1
    left_budget = rng.randint(1, max(1, budget - 1))
    left = random_term(rng, left_budget, env, free_names)
    right = random_term(rng, budget - left_budget, env, free_names)
    if shape < 0.75:
        return App(left, right)
    return Choice(left, right)


def closed_corpus(seed: int, count: int, max_size: int = 12) -> List[Term]:
    """A deterministic corpus of distinct closed terms.

    Raises ValueError once 100 000 draws in a row add no new term, as when
    fewer than `count` distinct closed terms fit in `max_size`.
    """
    rng = random.Random(seed)
    seen = set()
    out: List[Term] = []
    fruitless = 0
    while len(out) < count:
        t = random_term(rng, max_size)
        if size(t) <= max_size and t not in seen:
            seen.add(t)
            out.append(t)
            fruitless = 0
        else:
            fruitless += 1
            if fruitless == _MAX_FRUITLESS_DRAWS:
                raise ValueError(
                    f"found {len(out)} of {count} distinct closed terms of size <= {max_size}"
                )
    return out
