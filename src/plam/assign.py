"""Probabilistic assignment problems and their disentanglement.

A problem is a list of demands p₁…pₙ and a map from subsets I ⊆ {1..n}
to supplies r_I. It is feasible when every subset of demands is covered
by the supplies meeting it (a Hall-type condition); a solution assigns
shares s_{k,I} ∈ [0,1] with p_k ≤ Σ_{I∋k} s_{k,I}·r_I and Σ_{k∈I} s_{k,I} ≤ 1.

Solving runs one bipartite max flow (`_flow`) with exact arithmetic:
supplies feed subset nodes, demands drain item nodes, and an uncapped
edge I→k exists when k ∈ I. Instances are small (a CLI problem file, or
one lifting check of the simulation game), so a plain augmenting-path
max flow suffices. A problem from the CLI (`assignment_solve`) runs on
`Fraction`s and reports exact shares. The simulation game's weights are
dyadic, so it scales them to integers over one 2^E and asks
`shortfall_witness` for the witness alone, on `int`s. When the flow
meets every demand, the shares are flow divided by supply. Otherwise the
flow also decides the witness (Ford & Fulkerson, "Maximal flow through a
network", 1956). The shortfall of a set S of demands is Σ_{k∈S} p_k −
Σ_{I∩S≠∅} r_I. A minimum cut with S on the sink side puts exactly the
subsets meeting S there too, so it costs Σp minus the shortfall of S:
the flow falls short of Σp by the largest shortfall, which is positive
just when the problem is infeasible. The witness is the set of demands
that can still reach the sink in the final residual graph. It is the
sink side of the least minimum cut, so it is the unique
inclusion-minimal set with the largest shortfall, whichever maximum flow
was found.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

Subset = FrozenSet[int]


class AssignmentProblem:
    def __init__(self, p: Sequence[Fraction], r: Dict[Subset, Fraction]):
        self.p = [Fraction(x) for x in p]
        self.n = len(self.p)
        self.r = {}
        given = set()
        for subset, value in r.items():
            subset = frozenset(subset)
            if not subset or not subset.issubset(range(1, self.n + 1)):
                raise ValueError(f"subset {set(subset)} out of range 1..{self.n}")
            if subset in given:
                raise ValueError(f"subset {sorted(subset)} given twice")
            given.add(subset)
            value = Fraction(value)
            if value < 0 or value > 1:
                raise ValueError("supplies must lie in [0,1]")
            if value:
                self.r[subset] = value
        for x in self.p:
            if x < 0 or x > 1:
                raise ValueError("demands must lie in [0,1]")

    def subsets(self) -> List[Subset]:
        return sorted(self.r, key=lambda s: (len(s), sorted(s)))


class Infeasible:
    """A problem with no solution. `witness` is the unique inclusion-minimal
    set of demands with the largest shortfall, its demand minus the supply
    of the subsets that meet it; that shortfall is positive."""

    def __init__(self, witness: Subset):
        self.witness = witness

    def __repr__(self):
        return f"Infeasible(witness={sorted(self.witness)})"


def _search(adj, cap, start: int, forward: bool, goal: int = -1) -> Dict[int, int]:
    """Breadth-first search of the residual graph from `start`, along its
    edges (`forward`) or against them; maps each node reached to the node
    it was reached from, and stops once `goal` is reached."""
    parent = {start: start}
    queue = [start]
    for u in queue:
        for v in adj[u]:
            if v not in parent and cap[(u, v) if forward else (v, u)] > 0:
                parent[v] = u
                if v == goal:
                    return parent
                queue.append(v)
    return parent


def _max_flow(adj: Dict[int, List[int]], cap: Dict[Tuple[int, int], object]) -> None:
    """Augment along shortest residual paths from the source, node 0, to
    the sink, node 1, until none is left; `cap` becomes the residual
    capacities, so the flow on an edge is its reverse edge's capacity."""
    while True:
        parent = _search(adj, cap, 0, True, 1)
        if 1 not in parent:
            return
        path = []
        v = 1
        while v != 0:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(cap[edge] for edge in path)
        for u, v in path:
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck


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


def _flow(p: Sequence, r: Dict[Subset, object], subsets: Sequence[Subset]):
    """Run the max flow of demands `p` (item k has demand p[k-1]) and the
    positive supplies `r` over `subsets`, the keys of `r` in node order,
    on exact numbers of one kind (ints or `Fraction`s). Returns the
    residual capacities, the subset and item nodes, and the witness: the
    demands that can still reach the sink, empty just when the flow meets
    every demand."""
    subset_node = {s: 2 + i for i, s in enumerate(subsets)}
    item_node = {k: 2 + len(subsets) + k for k in range(1, len(p) + 1)}
    cap: Dict[Tuple[int, int], object] = {}
    adj: Dict[int, List[int]] = {0: [], 1: []}

    def add_edge(u: int, v: int, c):
        cap[(u, v)], cap[(v, u)] = c, 0
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for s in subsets:
        add_edge(0, subset_node[s], r[s])
    for k, node in item_node.items():
        add_edge(node, 1, p[k - 1])
    # all flow enters through the supplies, whose total is below `uncapped`,
    # so a middle edge never saturates and no minimum cut contains one
    uncapped = 1 + sum(r.values())
    for s in subsets:
        for k in s:
            add_edge(subset_node[s], item_node[k], uncapped)
    _max_flow(adj, cap)
    # a demand that can still reach the sink is one the flow leaves unmet,
    # or one that could pass its supply on to such a demand
    reach = _search(adj, cap, 1, False)
    witness = frozenset(k for k, node in item_node.items() if node in reach)
    return cap, subset_node, item_node, witness


def shortfall_witness(p: Sequence[int], r: Dict[Subset, int]) -> Subset:
    """The `Infeasible` witness of demands `p` and supplies `r`, given as
    non-negative ints on one scale (every value times the same 2^E, say),
    or the empty set when the problem is feasible. Scaling every capacity
    scales every cut alike, so the least minimum cut, and with it the
    witness, is that of the unscaled problem; it is the same whichever
    maximum flow is found, so the subsets go in as `r` holds them. Nothing
    is checked, and no shares are built."""
    return _flow(p, r, list(r))[3]


def assignment_solve(problem: AssignmentProblem) -> Union[AssignmentSolution, Infeasible]:
    """Disentangle a problem into per-item shares via one max flow, or
    return the `Infeasible` witness read off its minimum cut."""
    subsets = problem.subsets()
    cap, subset_node, item_node, witness = _flow(problem.p, problem.r, subsets)
    if witness:
        return Infeasible(witness)
    shares: Dict[Tuple[int, Subset], Fraction] = {}
    for s in subsets:
        for k in s:
            f = cap[(item_node[k], subset_node[s])]
            if f:
                shares[(k, s)] = f / problem.r[s]
    solution = AssignmentSolution(shares)
    if not solution.check(problem):
        raise AssertionError("flow produced an invalid assignment solution")
    return solution
