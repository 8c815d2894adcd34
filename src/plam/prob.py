"""Exact dyadic rationals and finitely supported subprobability distributions.

Every probability the calculus produces is of the form k/2^e, so arithmetic
is kept in that form throughout; nothing in this module rounds. `Dyadic` is
the public scalar. A `Distr` keeps its weights on one integer scale,
numerators over a shared 2^e, which the evaluators hand over directly as
a `_Scaled`; `Dyadic`s are built only when a caller reads a weight.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Tuple


class Dyadic:
    """A non-negative dyadic rational num/2^exp in canonical lowest form.

    Canonical means the numerator is odd, or the value is zero with exp 0.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num < 0:
            raise ValueError("dyadic value must be non-negative")
        if exp < 0:
            raise ValueError("dyadic exponent must be non-negative")
        if num == 0:
            exp = 0
        elif not num & 1:  # an odd numerator, the common case, is already canonical
            k = min((num & -num).bit_length() - 1, exp)
            num >>= k
            exp -= k
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse "3/8" or "1" into a Dyadic; the denominator must be 2^e."""
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            num, den = int(num_s), int(den_s)
        else:
            num, den = int(text), 1
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator of {text!r} is not a power of two")
        return cls(num, den.bit_length() - 1)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        num = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        return Dyadic(num, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def _cmp(self, other: "Dyadic") -> int:
        a = self.num << other.exp
        b = other.num << self.exp
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dyadic) and self.num == other.num and self.exp == other.exp

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self})"


ZERO = Dyadic(0)
HALF = Dyadic(1, 1)
ONE = Dyadic(1)


class _Scaled:
    """Integer numerators over one power of two, the way the evaluators
    hand a distribution to `Distr`: `nums` maps each key to a
    non-negative int n, which weighs n/2^`exp`. It iterates as its
    (key, `Dyadic`) pairs, so it passes anywhere such pairs do. `Distr`
    may keep `nums` itself, so no one may change it once it is handed over.
    """

    __slots__ = ("nums", "exp")

    def __init__(self, nums: Dict[object, int], exp: int):
        self.nums = nums
        self.exp = exp

    def __iter__(self) -> Iterator[Tuple[object, Dyadic]]:
        exp = self.exp
        return ((k, Dyadic(n, exp)) for k, n in self.nums.items())


def _lowest(nums: Dict[object, int], exp: int) -> Tuple[Dict[object, int], int]:
    """`nums` over 2^`exp` with the largest power of two that divides every
    numerator taken out of both: the exponent is then the largest
    canonical exponent among the weights, or 0 when there are none."""
    common = 0
    for n in nums.values():
        common |= n
        if common & 1:
            return nums, exp
    if not common:
        return nums, 0
    k = min((common & -common).bit_length() - 1, exp)
    if k:
        nums = {key: n >> k for key, n in nums.items()}
    return nums, exp - k


class Distr:
    """A finite subprobability distribution, weights exactly dyadic.

    Keys are nameless terms, so key identity is alpha-equivalence, or the
    value trees of `plam.trees`, compared by their canonical key. The
    weights are kept as positive integer numerators over one shared 2^e,
    in lowest common form: e is the largest canonical exponent among the
    weights, so equal distributions hold equal numerators and exponents.
    `weight`, `items`, `mass` and `deficit` build `Dyadic`s on demand.

    Built from (key, `Dyadic`) pairs, merging repeated keys and dropping
    zero weights, or from a `_Scaled`, whose integers pass in directly.
    Immutable; all operations build fresh distributions.
    """

    __slots__ = ("_nums", "_exp", "_total")

    def __init__(self, pairs: Iterable[Tuple[object, Dyadic]] = ()):
        if type(pairs) is _Scaled:
            nums, exp = pairs.nums, pairs.exp
            if 0 in nums.values():
                nums = {key: n for key, n in nums.items() if n}
        else:
            # one pass, over the largest exponent seen so far
            nums, exp = {}, 0
            for key, w in pairs:
                n, x = w.num, w.exp
                if not n:
                    continue
                if x > exp:
                    if nums:
                        nums = {k: m << (x - exp) for k, m in nums.items()}
                    exp = x
                elif x < exp:
                    n <<= exp - x
                prev = nums.get(key)
                nums[key] = n if prev is None else prev + n
        if exp:
            nums, exp = _lowest(nums, exp)
        total = sum(nums.values())
        if total > 1 << exp:
            raise ValueError(f"distribution mass {Dyadic(total, exp)} exceeds 1")
        _set_nums(self, nums)
        _set_exp(self, exp)
        _set_total(self, total)

    def __setattr__(self, name, value):
        raise AttributeError("Distr is immutable")

    @property
    def mass(self) -> Dyadic:
        return Dyadic(self._total, self._exp)

    @property
    def deficit(self) -> Dyadic:
        return Dyadic((1 << self._exp) - self._total, self._exp)

    def weight(self, term) -> Dyadic:
        n = self._nums.get(term)
        return Dyadic(n, self._exp) if n else ZERO

    def numerators(self) -> Tuple[Dict[object, int], int]:
        """The integer numerators by key and their one exponent e: each
        weight is n/2^e. The dict is the distribution's own; never change it."""
        return self._nums, self._exp

    def support(self):
        return self._nums.keys()

    def items(self) -> Iterator[Tuple[object, Dyadic]]:
        return iter(_Scaled(self._nums, self._exp))

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, term) -> bool:
        return term in self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def leq(self, other: "Distr") -> bool:
        """Pointwise order: every weight of self is covered by other."""
        return all(w <= other.weight(t) for t, w in self.items())

    def map_support(self, fn: Callable) -> "Distr":
        """The image distribution: each weight moves to its key's image, and
        weights whose keys meet there add up."""
        nums: Dict[object, int] = {}
        for t, n in self._nums.items():
            key = fn(t)
            prev = nums.get(key)
            nums[key] = n if prev is None else prev + n
        return Distr(_Scaled(nums, self._exp))

    def __eq__(self, other) -> bool:
        return isinstance(other, Distr) and self._exp == other._exp and self._nums == other._nums

    def __repr__(self) -> str:
        inner = ", ".join(f"{t!r}: {w}" for t, w in self.items())
        return "Distr({" + inner + "})"


# the slots' own setters: `__setattr__` refuses every write, and going round
# it by `object.__setattr__` took over half of a one-entry build
_set_nums, _set_exp, _set_total = (vars(Distr)[name].__set__ for name in Distr.__slots__)


class Approx:
    """A lower bound `distr` on a limit distribution, plus whether it is exact.

    The deficit is the mass that may still arrive, at any key: zero when
    `exact` certifies the bound as the limit itself, else the mass the
    bound leaves out. The upper end of an interval adds it. Both ends sum
    the distribution's integer numerators and build one `Dyadic`.
    """

    __slots__ = ("distr", "exact")

    def __init__(self, distr: Distr, exact: bool):
        self.distr = distr
        self.exact = exact

    @property
    def mass(self) -> Dyadic:
        return self.distr.mass

    @property
    def deficit(self) -> Dyadic:
        return ZERO if self.exact else self.distr.deficit

    def _ends(self, keys) -> Tuple[int, int]:
        """The numerators of `lower` and `upper`, from one sum."""
        d = self.distr
        nums = d._nums
        low = sum([nums.get(k, 0) for k in keys])
        return low, low if self.exact else low + (1 << d._exp) - d._total

    def lower(self, keys) -> Dyadic:
        return Dyadic(self._ends(keys)[0], self.distr._exp)

    def upper(self, keys) -> Dyadic:
        return Dyadic(self._ends(keys)[1], self.distr._exp)

    def interval(self, keys) -> Tuple[Dyadic, Dyadic]:
        """(`lower`, `upper`) of `keys`."""
        low, high = self._ends(keys)
        exp = self.distr._exp
        return Dyadic(low, exp), Dyadic(high, exp)

    @property
    def upper_mass(self) -> Dyadic:
        return self.mass if self.exact else ONE

    def __repr__(self):
        return f"Approx({self.distr!r}, exact={self.exact}, deficit={self.deficit})"


def point(term) -> Distr:
    return Distr(_Scaled({term: 1}, 0))
