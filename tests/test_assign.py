import itertools
import random
import time
from fractions import Fraction

import pytest

from plam.assign import (
    AssignmentProblem,
    AssignmentSolution,
    Infeasible,
    assignment_solve,
)


def oracle_feasible(p, r):
    """Independent covering-condition check via itertools enumeration."""
    n = len(p)
    for k in range(1, n + 1):
        for chosen in itertools.combinations(range(1, n + 1), k):
            chosen = frozenset(chosen)
            demand = sum(p[i - 1] for i in chosen)
            supply = sum(v for subset, v in r.items() if subset & chosen)
            if demand > supply:
                return False
    return True


def test_problem_validation():
    with pytest.raises(ValueError):
        AssignmentProblem([Fraction(1, 2)], {frozenset({2}): Fraction(1, 2)})
    with pytest.raises(ValueError):
        AssignmentProblem([Fraction(3, 2)], {})
    with pytest.raises(ValueError):
        AssignmentProblem([Fraction(1, 2)], {frozenset({1}): Fraction(2)})
    # two keys naming one subset: neither supply may be lost or merged
    with pytest.raises(ValueError, match=r"subset \[1\] given twice"):
        AssignmentProblem([Fraction(1)], {(1,): Fraction(3, 4), frozenset({1}): Fraction(3, 4)})
    # no size cap: the library solves a problem of any size
    prob = AssignmentProblem(
        [Fraction(1, 2)] * 20, {frozenset({k}): Fraction(1, 2) for k in range(1, 21)}
    )
    assert assignment_solve(prob).check(prob)


def test_zero_supplies_dropped():
    prob = AssignmentProblem(
        [Fraction(0)], {frozenset({1}): Fraction(0)}
    )
    assert prob.r == {}
    assert isinstance(assignment_solve(prob), AssignmentSolution)


def test_known_infeasible_with_witness():
    prob = AssignmentProblem(
        [Fraction(3, 4), Fraction(1, 2)],
        {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)},
    )
    verdict = assignment_solve(prob)
    assert isinstance(verdict, Infeasible)
    assert verdict.witness == frozenset({1})
    # the witness violates the covering inequality, checked independently
    demand = Fraction(3, 4)
    supply = Fraction(1, 2)
    assert demand > supply


def test_known_feasible_shared_supply():
    prob = AssignmentProblem(
        [Fraction(1, 2), Fraction(1, 2)], {frozenset({1, 2}): Fraction(1)}
    )
    sol = assignment_solve(prob)
    assert isinstance(sol, AssignmentSolution)
    assert sol.check(prob)
    assert sol.share(1, {1, 2}) == Fraction(1, 2)
    assert sol.share(2, {1, 2}) == Fraction(1, 2)


def test_solution_check_rejects_tampering():
    prob = AssignmentProblem(
        [Fraction(1, 2), Fraction(1, 2)], {frozenset({1, 2}): Fraction(1)}
    )
    sol = assignment_solve(prob)
    tampered = AssignmentSolution(
        {(k, s): v - Fraction(1, 8) for (k, s), v in sol.shares.items()}
    )
    assert not tampered.check(prob)
    misplaced = AssignmentSolution({(1, frozenset({2})): Fraction(1, 2)})
    assert not misplaced.check(prob)


def _random_feasible_instance(rng, n):
    """Build a feasible instance by fixing a solution first.

    Supplies are multiples of 1/4 with total at most 1, shares multiples
    of 1/4 with per-subset sums at most 1, so the implied demands are
    multiples of 1/16 and never exceed 1.
    """
    items = list(range(1, n + 1))
    subsets = []
    budget = Fraction(1)
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n)
        subset = frozenset(rng.sample(items, size))
        value = Fraction(rng.randint(0, 4), 4)
        if value == 0 or value > budget:
            continue
        budget -= value
        subsets.append((subset, value))
    r = {}
    for subset, value in subsets:
        r[subset] = r.get(subset, Fraction(0)) + value
    p = [Fraction(0)] * n
    for subset, value in r.items():
        members = sorted(subset)
        remaining = Fraction(1)
        for k in members:
            share = Fraction(rng.randint(0, 4), 4)
            share = min(share, remaining)
            remaining -= share
            p[k - 1] += share * value
    # lowering any demand preserves feasibility
    for i in range(n):
        slack = rng.randint(0, 2) * Fraction(1, 16)
        p[i] = max(Fraction(0), p[i] - slack)
    return p, r


def test_random_feasible_instances_solve_and_check():
    rng = random.Random(2026)
    solved = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        p, r = _random_feasible_instance(rng, n)
        assert oracle_feasible(p, r)
        prob = AssignmentProblem(p, r)
        sol = assignment_solve(prob)
        assert isinstance(sol, AssignmentSolution)
        assert sol.check(prob)
        solved += 1
    assert solved == 100


def test_exhaustive_grid_agrees_with_oracle():
    quarters = [Fraction(k, 4) for k in range(5)]
    halves = [Fraction(0), Fraction(1, 2)]
    n = 2
    all_subsets = [frozenset(s) for k in (1, 2) for s in itertools.combinations((1, 2), k)]
    for p in itertools.product(quarters, repeat=n):
        for values in itertools.product(halves, repeat=len(all_subsets)):
            r = {s: v for s, v in zip(all_subsets, values) if v}
            prob = AssignmentProblem(list(p), dict(r))
            feasible = isinstance(assignment_solve(prob), AssignmentSolution)
            assert feasible == oracle_feasible(list(p), r)
            result = assignment_solve(prob)
            if feasible:
                assert isinstance(result, AssignmentSolution)
                assert result.check(prob)
            else:
                assert isinstance(result, Infeasible)
                chosen = result.witness
                demand = sum(p[i - 1] for i in chosen)
                supply = sum(v for s, v in r.items() if s & chosen)
                assert demand > supply


def test_exhaustive_grid_three_items():
    halves = [Fraction(0), Fraction(1, 2)]
    n = 3
    all_subsets = [
        frozenset(s)
        for k in (1, 2, 3)
        for s in itertools.combinations((1, 2, 3), k)
    ]
    count = 0
    for p in itertools.product([Fraction(0), Fraction(1, 2), Fraction(1)], repeat=n):
        for values in itertools.product(halves, repeat=len(all_subsets)):
            r = {s: v for s, v in zip(all_subsets, values) if v}
            prob = AssignmentProblem(list(p), dict(r))
            feasible = isinstance(assignment_solve(prob), AssignmentSolution)
            assert feasible == oracle_feasible(list(p), r)
            result = assignment_solve(prob)
            if feasible:
                assert result.check(prob)
            else:
                chosen = result.witness
                demand = sum(p[i - 1] for i in chosen)
                supply = sum(v for s, v in r.items() if s & chosen)
                assert demand > supply
            count += 1
    assert count == 27 * 2**7


def _shortfall(p, r, chosen):
    """Demand of `chosen` minus the supply of the subsets that meet it."""
    return sum((p[i - 1] for i in chosen), Fraction(0)) - sum(
        (v for subset, v in r.items() if subset & chosen), Fraction(0)
    )


def _check_witness(p, r):
    """Solve one problem and check the answer against brute force: a
    solution exactly when no subset falls short, and otherwise the witness
    has the largest shortfall and lies inside every subset that has it."""
    n = len(p)
    chosen_sets = [
        frozenset(c) for k in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), k)
    ]
    shortfalls = {c: _shortfall(p, r, c) for c in chosen_sets}
    worst = max(shortfalls.values(), default=Fraction(0))
    prob = AssignmentProblem(p, r)
    result = assignment_solve(prob)
    if worst <= 0:
        assert isinstance(result, AssignmentSolution) and result.check(prob)
        return None
    assert isinstance(result, Infeasible)
    assert shortfalls[result.witness] == worst
    assert all(result.witness <= c for c, s in shortfalls.items() if s == worst)
    return result.witness


def test_witness_is_least_subset_with_largest_shortfall():
    p = [Fraction(1, 2), Fraction(1, 2), Fraction(1)]
    r = {frozenset({1, 2}): Fraction(1, 2), frozenset({1}): Fraction(1, 4)}
    # {1, 2} and {3} fall short too, by 1/4 and 1, but {1, 2, 3} by 5/4
    assert _check_witness(p, r) == frozenset({1, 2, 3})
    rng = random.Random(4095)
    infeasible = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        r = {}
        for _ in range(rng.randint(0, n + 2)):
            subset = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            r[subset] = min(Fraction(1), r.get(subset, Fraction(0)) + Fraction(rng.randint(1, 4), 8))
        p = [Fraction(rng.randint(0, 8), 8) for _ in range(n)]
        infeasible += _check_witness(p, r) is not None
    # both branches are exercised
    assert 50 < infeasible < 350


def test_largest_problem_solves_in_time():
    # 12 demands, one supply for each of the 4 095 nonempty subsets
    subsets = [
        frozenset(c) for k in range(1, 13) for c in itertools.combinations(range(1, 13), k)
    ]
    prob = AssignmentProblem([Fraction(1, 4)] * 12, {s: Fraction(1, 3) for s in subsets})
    start = time.perf_counter()
    sol = assignment_solve(prob)
    assert time.perf_counter() - start < 10.0
    assert isinstance(sol, AssignmentSolution) and sol.check(prob)
