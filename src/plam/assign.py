"""Probabilistic assignment problems and their disentanglement.

A problem is a list of demands p₁…pₙ and a map from subsets I ⊆ {1..n}
to supplies r_I. It is feasible when every subset of demands is covered
by the supplies meeting it (a Hall-type condition); a solution assigns
shares s_{k,I} ∈ [0,1] with p_k ≤ Σ_{I∋k} s_{k,I}·r_I and Σ_{k∈I} s_{k,I} ≤ 1.

Solving goes through a bipartite feasibility flow with exact rational
arithmetic: supplies feed subset nodes, demands drain item nodes, and an
edge I→k exists when k ∈ I. Shares are recovered as flow divided by
supply. Instance sizes are tiny (n capped), so a plain augmenting-path
max-flow suffices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

DEFAULT_N_CAP = 12

Subset = FrozenSet[int]


class AssignmentProblem:
    def __init__(self, p: Sequence[Fraction], r: Dict[Subset, Fraction]):
        self.p = [Fraction(x) for x in p]
        self.n = len(self.p)
        if self.n > DEFAULT_N_CAP:
            raise ValueError(f"assignment size {self.n} exceeds cap {DEFAULT_N_CAP}")
        self.r = {}
        for subset, value in r.items():
            subset = frozenset(subset)
            if not subset or not subset.issubset(range(1, self.n + 1)):
                raise ValueError(f"subset {set(subset)} out of range 1..{self.n}")
            value = Fraction(value)
            if value < 0 or value > 1:
                raise ValueError("supplies must lie in [0,1]")
            if value:
                self.r[subset] = self.r.get(subset, Fraction(0)) + value
        for x in self.p:
            if x < 0 or x > 1:
                raise ValueError("demands must lie in [0,1]")

    def subsets(self) -> List[Subset]:
        return sorted(self.r, key=lambda s: (len(s), sorted(s)))


class Infeasible:
    def __init__(self, witness: Subset):
        self.witness = witness

    def __repr__(self):
        return f"Infeasible(witness={sorted(self.witness)})"


def assignment_check(problem: AssignmentProblem) -> Union[bool, Infeasible]:
    """Check the covering condition over all 2ⁿ demand subsets.

    Returns True, or the first violating subset (smallest, in sorted
    enumeration order).
    """
    n = problem.n
    indices = list(range(1, n + 1))
    for mask in range(1, 1 << n):
        chosen = frozenset(i for i in indices if mask & (1 << (i - 1)))
        demand = sum((problem.p[i - 1] for i in chosen), Fraction(0))
        supply = sum(
            (v for subset, v in problem.r.items() if subset & chosen), Fraction(0)
        )
        if demand > supply:
            return Infeasible(chosen)
    return True


def _max_flow(
    sources: Dict[int, Fraction],
    sinks: Dict[int, Fraction],
    edges: List[Tuple[int, int]],
) -> Dict[Tuple[int, int], Fraction]:
    """Augmenting-path max flow on a bipartite supply/demand graph.

    Node 0 is the source, node 1 the sink; capacities are exact
    Fractions; middle edges are uncapacitated.
    """
    INF = Fraction(10**9)
    cap: Dict[Tuple[int, int], Fraction] = {}
    adj: Dict[int, List[int]] = {}

    def add_edge(u: int, v: int, c: Fraction):
        cap[(u, v)] = cap.get((u, v), Fraction(0)) + c
        cap.setdefault((v, u), Fraction(0))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for node, c in sources.items():
        add_edge(0, node, c)
    for node, c in sinks.items():
        add_edge(node, 1, c)
    for u, v in edges:
        add_edge(u, v, INF)

    while True:
        parent = {0: 0}
        queue = [0]
        while queue and 1 not in parent:
            u = queue.pop(0)
            for v in adj.get(u, []):
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if 1 not in parent:
            break
        bottleneck = INF
        v = 1
        while v != 0:
            u = parent[v]
            bottleneck = min(bottleneck, cap[(u, v)])
            v = u
        v = 1
        while v != 0:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u

    flow = {}
    for u, v in edges:
        flow[(u, v)] = cap[(v, u)]
    return flow


class AssignmentSolution:
    def __init__(self, shares: Dict[Tuple[int, Subset], Fraction]):
        self.shares = shares

    def share(self, k: int, subset: Subset) -> Fraction:
        return self.shares.get((k, frozenset(subset)), Fraction(0))

    def check(self, problem: AssignmentProblem) -> bool:
        """Verify both solution conditions exactly."""
        for (k, subset), s in self.shares.items():
            if s < 0 or s > 1 or k not in subset:
                return False
        for k in range(1, problem.n + 1):
            covered = sum(
                (self.share(k, subset) * v for subset, v in problem.r.items() if k in subset),
                Fraction(0),
            )
            if problem.p[k - 1] > covered:
                return False
        for subset in problem.r:
            if sum((self.share(k, subset) for k in subset), Fraction(0)) > 1:
                return False
        return True


def assignment_solve(problem: AssignmentProblem) -> Union[AssignmentSolution, Infeasible]:
    """Disentangle a feasible problem into per-item shares via max flow."""
    verdict = assignment_check(problem)
    if isinstance(verdict, Infeasible):
        return verdict
    subsets = problem.subsets()
    subset_node = {s: 2 + i for i, s in enumerate(subsets)}
    item_node = {k: 2 + len(subsets) + k for k in range(1, problem.n + 1)}
    sources = {subset_node[s]: problem.r[s] for s in subsets}
    sinks = {item_node[k]: problem.p[k - 1] for k in range(1, problem.n + 1)}
    edges = [(subset_node[s], item_node[k]) for s in subsets for k in s]
    flow = _max_flow(sources, sinks, edges)
    shares: Dict[Tuple[int, Subset], Fraction] = {}
    for s in subsets:
        for k in s:
            f = flow[(subset_node[s], item_node[k])]
            if f:
                shares[(k, s)] = f / problem.r[s]
    solution = AssignmentSolution(shares)
    if not solution.check(problem):
        raise AssertionError("flow produced an invalid assignment solution")
    return solution
