"""Reference helpers that the tests check the library against; they are
not part of the library."""

import string
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from plam import smallstep
from plam.prob import Approx, Distr, Dyadic, HALF, ONE, ZERO, point
from plam.smallstep import StepOutcome
from plam.syntax import (
    App,
    Choice,
    Free,
    HeadForm,
    Lam,
    ParseError,
    ResourceCapExceeded,
    Term,
    Var,
    classify,
    free_vars,
    is_hnf,
    lam_close,
    size,
    substitute,
)
from plam.trees import Different, Equal, Unknown, _child


def frac(d: Dyadic) -> Fraction:
    """The value of `d` as a `Fraction`."""
    return Fraction(d.num, 1 << d.exp)


_LAMBDA_CHARS = ("\\", "λ")
_NAME_START = set(string.ascii_letters + "_")
_NAME_CHARS = set(string.ascii_letters + string.digits + "_'")


def sim_block_exists(du: Approx, dv: Approx, above: Dict) -> bool:
    """Reference for `equiv._sim_block`: whether some nonempty set of left
    states, out of all 2ⁿ − 1, has a lower mass under `du` above the upper
    mass under `dv` of the right states `above` may put above a member."""
    left = list(above)
    for mask in range(1, 1 << len(left)):
        block = [s for i, s in enumerate(left) if mask >> i & 1]
        image = {s2 for s1 in block for s2 in above[s1]}
        if du.lower(block) > dv.upper(image):
            return True
    return False


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Reference for `syntax._tokenize`: one character at a time."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("(+)", i):
            tokens.append(("oplus", "(+)", i))
            i += 3
        elif c == "⊕":
            tokens.append(("oplus", c, i))
            i += 1
        elif c in _LAMBDA_CHARS:
            tokens.append(("lambda", c, i))
            i += 1
        elif c == ".":
            tokens.append(("dot", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        elif c in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


def uncertainty(pt) -> Dyadic:
    """Reference for `ProbTree.uncertainty`: the deficit plus, for each
    entry, its weight times the largest uncertainty among its children,
    recomputed over the whole subtree."""
    total = pt.deficit
    for vt, w in pt.entries:
        total = total + w * max((uncertainty(child) for child in vt.args), default=ZERO)
    return total


def coupling_cost(t: Term, level: int, fuel: int, more: int) -> Dyadic:
    """The cost of the coupling that pairs each hnf of the level-`level`
    tree of `t` at `fuel` with the same hnf at `more` > `fuel`: a pair of
    equal hnfs costs the largest cost among their children, and mass that
    arrives only at `more` costs its full weight."""
    if level == 0:
        return ZERO
    low, high = eval_fuel(t, fuel), eval_fuel(t, more)
    total = high.mass - low.mass
    for h, w in low.items():
        costs = [coupling_cost(a, level - 1, fuel, more) for a in classify(h).args]
        total = total + w * max(costs, default=ZERO)
    return total


def _separate_vt(a, b, level: int, path: Tuple[int, ...]):
    if a.head != b.head or a.depth != b.depth:
        return Different(path, a.head, b.head)
    if a.offset != b.offset:
        return Different(path, f"offset {a.offset}", f"offset {b.offset}")
    for j in range(1, max(len(a.args), len(b.args)) + 1):
        d = _separate(_child(a, j, level), _child(b, j, level), path + (j,))
        if d is not None:
            return d
    return None


def _separate(a, b, path: Tuple[int, ...]):
    if a == b:
        return None
    if len(a.entries) == 1 == len(b.entries) and a.entries[0][1] == b.entries[0][1] == ONE:
        d = _separate_vt(a.entries[0][0], b.entries[0][0], a.level, path)
        if d is not None:
            return d
    for first, second in ((a, b), (b, a)):
        for k, w in first.entries:
            near = [
                k2 for k2, _ in second.entries
                if k2 == k or _separate_vt(k, k2, a.level, path) is None
            ]
            if w > second.approx.upper(near):
                have = second.approx.lower((k,))
                return Different(path, w, have) if first is a else Different(path, have, w)
    return None


def tree_eq(a, b):
    """Reference for `trees.tree_eq`: after the unique pair's descent finds
    nothing, the certified-weight test still runs, and it runs in both
    directions, comparing every pair of value trees afresh each time."""
    if a.level != b.level:
        raise ValueError("tree level mismatch")
    d = _separate(a, b, ())
    if d is not None:
        return d
    bound = uncertainty(a) + uncertainty(b)
    return Equal() if a == b and not bound else Unknown(bound)


def eval_fuel(t: Term, fuel: int) -> Distr:
    """Reference big-step evaluation: the rules of `plam.bigstep`, one
    case each, with no memo and no contraction table."""
    if isinstance(t, (Var, Free)):
        return point(t)
    if isinstance(t, Lam):
        return eval_fuel(t.body, fuel).map_support(Lam)
    if isinstance(t, Choice):
        return Distr(
            (h, w * HALF) for side in (t.left, t.right) for h, w in eval_fuel(side, fuel).items()
        )
    pairs = []
    for h, w in eval_fuel(t.fun, fuel).items():
        if not isinstance(h, Lam):
            pairs.append((App(h, t.arg), w))
        elif fuel > 0:
            body = substitute(h.body, t.arg)
            pairs.extend((h2, w * v) for h2, v in eval_fuel(body, fuel - 1).items())
    return Distr(pairs)


def _choice_outcome(form: HeadForm) -> StepOutcome:
    choice, args = form.head, form.args
    # branches equal modulo alpha collapse with probability 1
    if choice.left == choice.right:
        return ((ONE, form.plug(choice.left, args)),)
    return ((HALF, form.plug(choice.left, args)), (HALF, form.plug(choice.right, args)))


def head_step(t: Term) -> StepOutcome:
    """Reference head step on terms: classify the whole term, contract, plug."""
    form = classify(t)
    head, args = form.head, form.args
    kind = type(head)
    if kind is Lam:
        return ((ONE, form.plug(substitute(head.body, args[0]), args[1:])),)
    if kind is Choice:
        return _choice_outcome(form)
    return ((ONE, t),)


def spine_step(t: Term) -> StepOutcome:
    """Reference spine step on terms, recursing from the root through every
    stacked redex whose body is not an hnf."""
    form = classify(t)
    head, args = form.head, form.args
    kind = type(head)
    if kind is Choice:
        return _choice_outcome(form)
    if kind is not Lam:
        return ((ONE, t),)
    body = head.body
    if is_hnf(body):
        return ((ONE, form.plug(substitute(body, args[0]), args[1:])),)
    return tuple((p, form.plug(Lam(body2), args)) for p, body2 in spine_step(body))


STEPS = {"head": head_step, "spine": spine_step}


def commute_witness(
    m: Term, bound: Optional[int] = None
) -> List[Tuple[Dyadic, Term, Optional[Tuple[int, Term]]]]:
    """For each spine successor m ⇢ₚ m′, search for a joining term.

    A witness is (n₀, M₀) with m reaching M₀ in n₀+1 head steps of total
    probability p, and m′ reaching M₀ in n₀ probability-1 head steps.
    Returns None in place of a witness when the bound is exhausted.
    """
    results = []
    for p, m2 in smallstep.spine_step(m):
        limit = bound if bound is not None else max(size(m2), 4)
        # deterministic head chain from m2
        chain2 = [m2]
        cur = m2
        for _ in range(limit):
            if is_hnf(cur):
                break
            out = smallstep.head_step(cur)
            if len(out) != 1:
                break
            cur = out[0][1]
            chain2.append(cur)
        # probability-weighted head paths from m, matched against the chain
        witness = None
        paths = {(ONE, m)}
        for depth in range(1, limit + 2):
            nxt = set()
            for q, s in paths:
                for pq, s2 in smallstep.head_step(s):
                    nxt.add((q * pq, s2))
            paths = nxt
            n0 = depth - 1
            if n0 < len(chain2):
                target = chain2[n0]
                for q, s in paths:
                    if s == target and q == p:
                        witness = (n0, target)
                        break
            if witness:
                break
        results.append((p, m2, witness))
    return results


def run_every_step(
    t: Term, steps: int, step: Callable[[Term], StepOutcome], cap: int
) -> Tuple[Dict[Term, Dyadic], Dict[Term, Dyadic]]:
    """The absorbing chain of `smallstep._run` over terms, iterated for all
    `steps` steps with no stop at a fixed point."""
    absorbed: Dict[Term, Dyadic] = {}
    live: Dict[Term, Dyadic] = {}
    (absorbed if is_hnf(t) else live)[t] = ONE
    for _ in range(steps):
        if not live:
            break
        nxt: Dict[Term, Dyadic] = {}
        for s, w in live.items():
            for p, s2 in step(s):
                target = absorbed if is_hnf(s2) else nxt
                prev = target.get(s2)
                target[s2] = prev + w * p if prev is not None else w * p
        live = nxt
        if len(live) + len(absorbed) > cap:
            raise ResourceCapExceeded(f"reduction state count exceeded cap {cap}")
    return absorbed, live


def _core(t: Term) -> Term:
    while type(t) is Lam:
        t = t.body
    return t


def converge_every_step(
    t: Term, steps: int, step: Callable[[Term], StepOutcome], cap: int
) -> Approx:
    """`smallstep.converge` over terms, on the chain of `run_every_step`:
    the residual is certified divergent when the successor closure of its
    cores (leading binders stripped) is finite within `cap` and holds no
    hnf."""
    absorbed, live = run_every_step(t, steps, step, cap)
    lower = Distr(absorbed.items())
    work = list(dict.fromkeys(_core(s) for s in live))
    seen = set(work)
    for s in work:
        for _, s2 in step(s):
            if is_hnf(s2):
                return Approx(lower, False)
            s2 = _core(s2)
            if s2 not in seen:
                seen.add(s2)
                if len(seen) > cap:
                    return Approx(lower, False)
                work.append(s2)
    return Approx(lower, True)


def converge_each(
    m: Term, arg_seqs, steps: int, cap: int = smallstep.DEFAULT_LEAF_CAP
) -> List[Approx]:
    """Reference for `smallstep._converge_seqs`: one `converge` per
    sequence, on the application spine built in full."""
    out = []
    for seq in arg_seqs:
        t = m
        for a in seq:
            t = App(t, a)
        out.append(smallstep.converge(t, steps, cap=cap))
    return out


def applicative_reports(m: Term, n: Term, arg_seqs, fuel: int) -> List[Tuple]:
    """Reference for `equiv.applicative_compare`, one `converge` per side
    and sequence, as (args, left, right, verdict) tuples."""
    names = free_vars(m) | free_vars(n)
    m, n = lam_close(m, names), lam_close(n, names)
    steps = max(6 * fuel, 8)
    lefts, rights = converge_each(m, arg_seqs, steps), converge_each(n, arg_seqs, steps)
    reports = []
    for seq, left, right in zip(arg_seqs, lefts, rights):
        if left.mass > right.upper_mass:
            verdict = "LeftExceeds"
        elif right.mass > left.upper_mass:
            verdict = "RightExceeds"
        else:
            verdict = "Inconclusive"
        reports.append((tuple(seq), left, right, verdict))
    return reports
