"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of pure-Python code drifts by 20% or more
over minutes, for every process alike. A fixed loop of the same kind of
work (allocation, dict and tuple traffic, integer arithmetic, calls),
timed next to the queries, tracks that drift: over 10-second windows its
time and an `eval_fuel` query's time each vary by about 10%, their ratio
by about 2%. Timings are reported scaled to the reference speed below,
so that runs made minutes apart compare the program and not the machine.
The loop never touches plam, so a change to plam cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

# Reference loop time: the loop's time on the baseline machine in a fast
# phase (see README.md, Baseline). Changing it rescales every timing.
REFERENCE_S = 0.008


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right


def _work() -> int:
    table = {}
    node = None
    for i in range(12000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        node = _Node((k, i), node, None) if i % 3 else _Node(k, None, node)
    total = 0
    for v in table.values():
        total += v & 0xFFFF
    while node is not None:
        total ^= hash(node.key)
        node = node.left or node.right
    return total


def sample() -> float:
    """Time of one run of the fixed loop, in seconds.

    The cyclic garbage collector is paused meanwhile: a collection inside
    the loop would cost in proportion to the worker's heap, which grows
    with plam's caches during a pass.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples, exponent: float = 1.0) -> float:
    """Factor that brings timings made next to `samples` to the reference speed.

    One sample is as noisy as one short query; the median of the samples
    spread over a pass follows the drift. `exponent` is how strongly the
    timed work follows the loop's drift: 1 for work that drifts as much
    as the loop, less for work that drifts less.
    """
    return (REFERENCE_S / statistics.median(samples)) ** exponent
