r"""refute-corpus: the refutation games on pairs of small closed terms.

Pairs come from `gen.closed_corpus` (size <= 8). Each pair gives four
queries: `refute_bisim` (depth 6), `refute_sim` both ways (depth 3) and
`applicative_compare` (argument sequences up to length 2), all at fuel 8
over the five-term default pool. A seeded tenth of the pairs are control
pairs `(t, I t)`, which are bisimilar. Every run also holds the known
`converge` blow-up, `\x.x (\y z.y y)` against `\x y z.x x`, on purpose.
A query stopped at its CPU budget shows that blow-up (`known_defect`):
the first pass reports it and later passes leave it out, so it shows in
every run until `converge` is fixed, without making the failure count
depend on how many passes fit in the run.

Checks: every witness replays under `verify_witness` at the same bounds;
control pairs are never separated; `applicative_compare` verdicts are
re-derived from the returned masses and exactness flags; a separation
recorded in `refute_facts.json` (a fact about the terms) must still be
found.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import plam
from plam.equiv import DEFAULT_POOL_NAMES, Lab, TermState, verify_witness
from plam.gen import closed_corpus
from plam.syntax import CONSTANTS
from reference import applicative_verdict, digest, frac

PAIRS = 300
MAX_SIZE = 8
FUEL = 8
BISIM_DEPTH = 6
SIM_DEPTH = 3
CONTROL_SHARE = 0.1
KNOWN_BLOWUPS = ((r"\x.x (\y z.y y)", r"\x y z.x x"),)
OPS = ("bisim", "sim", "sim_rev", "appcmp")
FACTS_FILE = Path(__file__).resolve().parent / "refute_facts.json"

POOL = tuple(CONSTANTS[name] for name in DEFAULT_POOL_NAMES)
SEQS = [()] + [(p,) for p in POOL] + [(p, q) for p in POOL for q in POOL]


class Query:
    __slots__ = ("op", "left", "right", "control")

    def __init__(self, op, left, right, control):
        self.op = op
        self.left = left
        self.right = right
        self.control = control

    @property
    def key(self) -> str:
        return f"{self.op}|{self.left}|{self.right}"


def make_pairs(seed: int):
    """Text pairs and control flags for one seed."""
    rng = random.Random(seed)
    corpus = closed_corpus(seed, 2 * PAIRS, max_size=MAX_SIZE)
    pairs = []
    for i in range(PAIRS):
        t, u = corpus[2 * i], corpus[2 * i + 1]
        if rng.random() < CONTROL_SHARE:
            pairs.append((plam.pretty(t), f"I ({plam.pretty(t)})", True))
        else:
            pairs.append((plam.pretty(t), plam.pretty(u), False))
    for left, right in KNOWN_BLOWUPS:
        pairs.insert(rng.randrange(len(pairs) + 1), (left, right, False))
    return pairs


class RefuteCorpus:
    # About 4x the slowest normal query (applicative_compare, p90 ~ 25 ms,
    # max ~ 45 ms); the known blow-up needs seconds and gigabytes.
    budget_s = 0.2

    def __init__(self, seed: int):
        self.queries = [
            Query(op, left, right, control)
            for left, right, control in make_pairs(seed)
            for op in OPS
        ]
        with open(FACTS_FILE, encoding="utf-8") as fh:
            self.facts = json.load(fh)["facts"]

    def run(self, q: Query):
        m, n = plam.parse(q.left), plam.parse(q.right)
        if q.op == "bisim":
            return m, n, plam.refute_bisim(m, n, depth=BISIM_DEPTH, fuel=FUEL, pool=POOL)
        if q.op == "sim":
            return m, n, plam.refute_sim(m, n, depth=SIM_DEPTH, fuel=FUEL, pool=POOL)
        if q.op == "sim_rev":
            return n, m, plam.refute_sim(n, m, depth=SIM_DEPTH, fuel=FUEL, pool=POOL)
        return m, n, plam.applicative_compare(m, n, SEQS, fuel=FUEL)

    def check(self, q: Query, out):
        """Return (problem or "", digest, None)."""
        u, v, result = out
        fact = self.facts.get(q.key)
        if q.op == "appcmp":
            certified = _separating_contexts(result)
            problem = _check_reports(result)
            if not problem and q.control and certified:
                problem = "control pair separated by an applicative context"
            if not problem and fact and not set(fact.split()) <= set(certified.split()):
                problem = "lost a recorded applicative separation"
            lines = [
                f"{i} {r.verdict} {frac(r.left.mass)} {r.left.exact} {frac(r.right.mass)} {r.right.exact}"
                for i, r in enumerate(result)
            ]
            return problem, digest(lines), None
        problem = ""
        if result is not None:
            if q.control:
                problem = "control pair separated"
            elif not verify_witness(
                TermState(u), TermState(v), result, Lab(fuel=FUEL, pool=POOL), bisim=q.op == "bisim"
            ):
                problem = "witness does not replay under verify_witness"
        elif fact:
            problem = "lost a recorded separation"
        return problem, digest([_fingerprint(result)]), None

    def known_defect(self, q: Query, status: str, detail: str):
        """The known defect a failed query shows, or None.

        A budget stop is the `converge` blow-up, unless the query has a
        recorded separation: then it used to finish, and stopping is a
        regression.
        """
        if status == "budget" and q.key not in self.facts:
            return "converge blow-up: stopped at the CPU budget"
        return None

    def certified_facts(self, q: Query, out):
        """The facts a verified result establishes, for refute_facts.json."""
        _, _, result = out
        if q.op == "appcmp":
            return _separating_contexts(result) or None
        return True if result is not None else None


def _separating_contexts(reports) -> str:
    """Certified verdicts as "<sequence index><L|R>" tokens, e.g. "2R 8L"."""
    return " ".join(f"{i}{r.verdict[0]}" for i, r in enumerate(reports) if r.verdict != "Inconclusive")


def _check_reports(reports) -> str:
    if [tuple(r.args) for r in reports] != [tuple(s) for s in SEQS]:
        return "reports do not follow the requested sequences"
    for r in reports:
        verdict = applicative_verdict(frac(r.left.mass), r.left.exact, frac(r.right.mass), r.right.exact)
        if r.verdict != verdict:
            return f"verdict {r.verdict} but the masses give {verdict}"
    return ""


def _fingerprint(w) -> str:
    if w is None:
        return "none"
    subs = getattr(w, "sub", {}) or {}
    return repr(w) + "{" + ",".join(sorted(_fingerprint(s) for s in subs.values())) + "}"
