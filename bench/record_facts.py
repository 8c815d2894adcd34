"""Record the separations refute-corpus certifies at its recorded seed.

    python3 bench/record_facts.py [--seed 1]

Writes `refute_facts.json`. A certified separation is a fact about the
two terms, so later runs that no longer find it count a failed query.
Only results that pass every other output check are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import worker

RECORDED_SEED = 1


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same hash seed as the benchmark's workers.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    args = ap.parse_args(argv)

    workload = worker.load_workload("refute-corpus", args.seed)
    workload.facts = {}
    budget = worker.Budget()
    facts, stopped = {}, 0
    for q in workload.queries:
        try:
            out = budget.call(lambda: workload.run(q), workload.budget_s)
        except worker.BudgetExceeded:
            stopped += 1
            continue
        problem, _, _ = workload.check(q, out)
        if problem:
            print(f"not recording, {q.key}: {problem}", file=sys.stderr)
            return 1
        fact = workload.certified_facts(q, out)
        if fact:
            facts[q.key] = fact
    from refute_corpus import FACTS_FILE

    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in sorted(facts.items()))
    with open(FACTS_FILE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {args.seed}, "facts": {{\n{lines}\n}}}}\n')
    print(f"{len(facts)} facts from {len(workload.queries)} queries ({stopped} stopped) -> {FACTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
