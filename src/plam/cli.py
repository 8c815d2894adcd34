"""Command-line front-end.

Exit codes: 0 on success (any verdict counts as success), 1 on usage or
parse errors, 2 when a resource cap is exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

from .assign import AssignmentProblem, Infeasible, assignment_solve
from .bigstep import eval_fuel
from .equiv import DEFAULT_POOL_NAMES, TreeWitness, applicative_compare, refute_bisim, refute_sim
from .fixtures import run_fixtures
from .gen import closed_corpus
from .prob import Distr, Dyadic
from .smallstep import head_step, spine_step, step_n, trace_tree
from .syntax import (
    ParseError,
    ResourceCapExceeded,
    Term,
    free_vars,
    is_hnf,
    parse,
    pretty,
    size,
)
from .trees import Different, Equal, ProbTree, ValueTree, prob_tree, tree_eq

MAX_FUEL = 64
MAX_STEPS = 512
MAX_LEVEL = 8
MAX_DEPTH = 16

_DEPTH_LETTERS = ["x", "z", "w", "v", "u"]
DEFAULT_POOL = ",".join(DEFAULT_POOL_NAMES)


class UsageError(Exception):
    pass


def _parse_term(text: str) -> Term:
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"cannot parse {text!r}: {exc}") from exc


def _parse_pool(text: str) -> List[Term]:
    return [_parse_term(part) for part in text.split(",") if part.strip()]


def _distr_json(d: Distr) -> dict:
    entries = sorted(((pretty(t), w) for t, w in d.items()), key=lambda kv: kv[0])
    return {
        "support": [{"term": t, "prob": str(w)} for t, w in entries],
        "mass": str(d.mass),
    }


def _distr_text(d: Distr) -> str:
    if not d:
        return "  (bottom: empty distribution)"
    entries = sorted(((pretty(t), w) for t, w in d.items()), key=lambda kv: kv[0])
    return "\n".join(f"  {w}\t{t}" for t, w in entries)


def _head_text(head: str) -> str:
    if head.startswith("@"):
        depth_s, pos_s = head[1:].split(".")
        letter = _DEPTH_LETTERS[int(depth_s) % len(_DEPTH_LETTERS)]
        return f"{letter}{pos_s}"
    return head


def _vt_json(vt: ValueTree) -> dict:
    return {
        "binders": vt.binders,
        "head": _head_text(vt.head),
        "offset": vt.offset,
        "args": [_pt_json(a) for a in vt.args],
    }


def _pt_json(pt: ProbTree) -> dict:
    return {
        "level": pt.level,
        "deficit": str(pt.deficit),
        "support": [
            {"weight": str(w), "tree": _vt_json(vt)} for vt, w in pt.entries
        ],
    }


def _pt_text(pt: ProbTree, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines = [f"{pad}level {pt.level} tree, deficit {pt.deficit}"]
    if not pt.entries:
        lines.append(f"{pad}  bottom")
    for vt, w in pt.entries:
        lines.append(
            f"{pad}  {w} -> λ({vt.binders}+)...{_head_text(vt.head)}"
            f" [offset {vt.offset}]"
        )
        for a in vt.args:
            lines.extend(_pt_text(a, indent + 2))
    return lines


def _trace_json(node: dict) -> dict:
    return {
        "prob": str(node["prob"]),
        "term": pretty(node["term"]),
        "children": [_trace_json(c) for c in node["children"]],
    }


def _trace_text(node: dict, indent: int = 0) -> List[str]:
    mark = "*" if is_hnf(node["term"]) else ""
    lines = [f"{'  ' * indent}[{node['prob']}] {pretty(node['term'])}{mark}"]
    for c in node["children"]:
        lines.extend(_trace_text(c, indent + 1))
    return lines


def _witness_json(w) -> dict:
    if w is None:
        return None
    if isinstance(w, TreeWitness):
        return {
            "kind": "tree",
            "level": w.level,
            "path": list(w.detail.path),
            "left": str(w.detail.left),
            "right": str(w.detail.right),
        }
    return {
        "kind": "block",
        "label": repr(w.label),
        "block": [repr(s) for s in w.block],
        "left": [str(w.left[0]), str(w.left[1])],
        "right": [str(w.right[0]), str(w.right[1])],
        "sub": [
            {"pair": [repr(a), repr(b)], "witness": _witness_json(sub)}
            for (a, b), sub in w.sub.items()
        ],
    }


def _witness_text(w, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if isinstance(w, TreeWitness):
        return [f"{pad}tree difference at level {w.level}: {w.detail!r}"]
    lines = [
        f"{pad}move {w.label!r} separates: left mass in [{w.left[0]}, {w.left[1]}],"
        f" right mass in [{w.right[0]}, {w.right[1]}]",
        f"{pad}block: " + ", ".join(repr(s) for s in w.block),
    ]
    for (a, b), sub in w.sub.items():
        lines.append(f"{pad}because {a!r} vs {b!r}:")
        lines.extend(_witness_text(sub, indent + 1))
    return lines


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text_lines))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args) -> int:
    t = _parse_term(args.term)
    payload = {
        "term": pretty(t),
        "size": size(t),
        "free": sorted(free_vars(t)),
        "hnf": is_hnf(t),
    }
    _emit(args, payload, [pretty(t)])
    return 0


def cmd_eval(args) -> int:
    t = _parse_term(args.term)
    res = eval_fuel(t, args.fuel)
    payload = _distr_json(res.distr)
    payload["deficit"] = str(res.deficit)
    text = [f"eval at fuel {args.fuel}: mass {res.mass}, deficit {res.deficit}"]
    text.append(_distr_text(res.distr))
    _emit(args, payload, text)
    return 0


def cmd_trace(args) -> int:
    t = _parse_term(args.term)
    tree = trace_tree(t, args.steps, args.strategy, cap=args.cap)
    table = step_n(t, args.steps, args.strategy, cap=args.cap)
    payload = {"tree": _trace_json(tree), "cumulative": _distr_json(table)}
    text = _trace_text(tree)
    text.append(f"cumulative after {args.steps} steps (mass {table.mass}):")
    text.append(_distr_text(table))
    _emit(args, payload, text)
    return 0


def cmd_tree(args) -> int:
    t = _parse_term(args.term)
    pt = prob_tree(t, args.level, args.fuel)
    _emit(args, _pt_json(pt), _pt_text(pt))
    return 0


def cmd_compare_tree(args) -> int:
    a = prob_tree(_parse_term(args.term1), args.level, args.fuel)
    b = prob_tree(_parse_term(args.term2), args.level, args.fuel)
    verdict = tree_eq(a, b)
    if isinstance(verdict, Equal):
        payload = {"verdict": "equal"}
        text = ["equal"]
    elif isinstance(verdict, Different):
        payload = {
            "verdict": "different",
            "path": list(verdict.path),
            "left": str(verdict.left),
            "right": str(verdict.right),
        }
        text = [f"different at path {list(verdict.path)}: "
                f"{verdict.left} vs {verdict.right}"]
    else:
        payload = {"verdict": "unknown", "bound": str(verdict.bound)}
        text = [f"unknown (deficit bound {verdict.bound})"]
    _emit(args, payload, text)
    return 0


def _cmd_game(args, refute) -> int:
    m, n = _parse_term(args.term1), _parse_term(args.term2)
    pool = _parse_pool(args.pool)
    kwargs = dict(depth=args.depth, fuel=args.fuel, pool=pool)
    if refute is refute_bisim:
        kwargs["tree_level"] = args.tree_level
    w = refute(m, n, **kwargs)
    if w is None:
        payload = {"verdict": "inconclusive", "trace": None}
        text = ["inconclusive (no certified difference at these bounds)"]
    else:
        payload = {"verdict": "distinguished", "trace": _witness_json(w)}
        text = ["distinguished:"] + _witness_text(w)
    _emit(args, payload, text)
    return 0


def cmd_bisim(args) -> int:
    return _cmd_game(args, refute_bisim)


def cmd_sim(args) -> int:
    return _cmd_game(args, refute_sim)


def cmd_appcmp(args) -> int:
    m, n = _parse_term(args.term1), _parse_term(args.term2)
    pool = _parse_pool(args.pool)
    seqs = [()]
    frontier = [()]
    for _ in range(args.maxlen):
        frontier = [s + (p,) for s in frontier for p in pool]
        seqs.extend(frontier)
    reports = applicative_compare(m, n, seqs, fuel=args.fuel)
    payload = {
        "sequences": [
            {
                "args": [pretty(a) for a in r.args],
                "left": {"mass": str(r.left.mass), "exact": r.left.exact},
                "right": {"mass": str(r.right.mass), "exact": r.right.exact},
                "verdict": r.verdict,
            }
            for r in reports
        ]
    }
    text = []
    for r in reports:
        argtext = " ".join(pretty(a) for a in r.args) or "(empty)"
        text.append(
            f"{argtext}: left {r.left.mass}{'' if r.left.exact else '+?'}"
            f" right {r.right.mass}{'' if r.right.exact else '+?'} -> {r.verdict}"
        )
    _emit(args, payload, text)
    return 0


def _parse_subset(key: str) -> frozenset:
    inner = key.strip().lstrip("{").rstrip("}")
    return frozenset(int(p) for p in inner.split(",") if p.strip())


def cmd_assign(args) -> int:
    with open(args.problem, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    p = [Fraction(x) for x in data.get("p", [])]
    r = {_parse_subset(k): Fraction(v) for k, v in data.get("r", {}).items()}
    problem = AssignmentProblem(p, r)
    result = assignment_solve(problem)
    if isinstance(result, Infeasible):
        payload = {"feasible": False, "witness": sorted(result.witness)}
        text = [f"infeasible, witness subset {sorted(result.witness)}"]
    else:
        shares = [
            {"item": k, "subset": sorted(subset), "share": str(s)}
            for (k, subset), s in sorted(
                result.shares.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
            )
        ]
        payload = {"feasible": True, "shares": shares}
        text = ["feasible"] + [
            f"  s[{e['item']}, {set(e['subset'])}] = {e['share']}" for e in shares
        ]
    _emit(args, payload, text)
    return 0


def cmd_fixtures(args) -> int:
    results = run_fixtures()
    failed = [name for name, ok, _ in results if not ok]
    payload = {
        "results": [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in results
        ],
        "passed": len(results) - len(failed),
        "failed": len(failed),
    }
    text = [
        f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}")
        for name, ok, detail in results
    ]
    text.append(f"{payload['passed']} passed, {payload['failed']} failed")
    _emit(args, payload, text)
    return 0 if not failed else 1


def cmd_proptest(args) -> int:
    rng = random.Random(args.seed)
    corpus = closed_corpus(args.seed, args.cases, max_size=10)
    failures = []
    for t in corpus:
        if parse(pretty(t)) != t:
            failures.append(("round-trip", t))
            continue
        for step in (head_step, spine_step):
            total = sum((p for p, _ in step(t)), Dyadic(0))
            if total != Dyadic(1):
                failures.append(("stochasticity", t))
        f = rng.randrange(0, 4)
        if not eval_fuel(t, f).distr.leq(eval_fuel(t, f + 1).distr):
            failures.append(("fuel-monotonicity", t))
        n = rng.randrange(0, 5)
        if step_n(t, n, "head") != step_n(t, n, "spine"):
            failures.append(("strategy-agreement", t))
    payload = {
        "cases": len(corpus),
        "failures": [{"property": p, "term": pretty(t)} for p, t in failures],
    }
    text = [f"ran {len(corpus)} cases, {len(failures)} failures"]
    text.extend(f"  FAIL {p}: {pretty(t)}" for p, t in failures)
    _emit(args, payload, text)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plam",
        description="Exact interpreter and equivalence toolkit for the "
        "probabilistic λ-calculus under head-style reduction.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("parse", help="parse and pretty-print a term")
    p.add_argument("term")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="fuel-bounded big-step evaluation")
    p.add_argument("term")
    p.add_argument("--fuel", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("trace", help="small-step reduction tree and table")
    p.add_argument("term")
    p.add_argument("--strategy", choices=("head", "spine"), default="head")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--cap", type=int, default=1 << 16)
    common(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("tree", help="level-indexed probabilistic tree")
    p.add_argument("term")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--fuel", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("compare-tree", help="three-valued tree equality")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--fuel", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_compare_tree)

    p = sub.add_parser("bisim", help="refute probabilistic bisimilarity")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--fuel", type=int, default=8)
    p.add_argument("--pool", default=DEFAULT_POOL)
    p.add_argument("--tree-level", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("sim", help="refute probabilistic similarity")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--fuel", type=int, default=8)
    p.add_argument("--pool", default=DEFAULT_POOL)
    common(p)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("appcmp", help="applicative-context mass comparison")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--fuel", type=int, default=8)
    p.add_argument("--maxlen", type=int, default=2)
    p.add_argument("--pool", default=DEFAULT_POOL)
    common(p)
    p.set_defaults(fn=cmd_appcmp)

    p = sub.add_parser("assign", help="solve a probabilistic assignment problem")
    p.add_argument("--problem", required=True)
    common(p)
    p.set_defaults(fn=cmd_assign)

    p = sub.add_parser("fixtures", help="replay all worked-example fixtures")
    common(p)
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("proptest", help="randomized property checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    common(p)
    p.set_defaults(fn=cmd_proptest)

    return top


def _check_caps(args) -> None:
    checks = [
        ("fuel", MAX_FUEL),
        ("steps", MAX_STEPS),
        ("level", MAX_LEVEL),
        ("depth", MAX_DEPTH),
    ]
    for name, cap in checks:
        value = getattr(args, name, None)
        if value is not None and value > cap:
            raise ResourceCapExceeded(f"--{name} {value} exceeds cap {cap}")
        if value is not None and value < 0:
            raise UsageError(f"--{name} must be non-negative")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or help; 2 is reserved for caps
        return 1 if exc.code else 0
    try:
        _check_caps(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a term built during the run nests deeper than the interpreter stack
        print("resource cap exceeded: term nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
