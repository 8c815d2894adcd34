"""Exact dyadic rationals and finitely supported subprobability distributions.

Every probability the calculus produces is of the form k/2^e, so arithmetic
is kept in that form throughout; nothing in this module rounds.
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


class Distr:
    """A finite subprobability distribution, weights exactly dyadic.

    Keys are nameless terms, so key identity is alpha-equivalence, or the
    value trees of `plam.trees`, compared by their canonical key. Immutable;
    all operations build fresh distributions.
    """

    __slots__ = ("_weights", "_mass")

    def __init__(self, pairs: Iterable[Tuple[object, Dyadic]] = ()):
        weights: Dict[object, Dyadic] = {}
        for term, w in pairs:
            if not w:
                continue
            prev = weights.get(term)
            weights[term] = prev + w if prev is not None else w
        # sum over the largest denominator seen so far, so that the mass
        # is normalised once and not after every addition
        num = exp = 0
        for w in weights.values():
            if w.exp > exp:
                num <<= w.exp - exp
                exp = w.exp
            num += w.num << (exp - w.exp)
        mass = Dyadic(num, exp)
        if mass > ONE:
            raise ValueError(f"distribution mass {mass} exceeds 1")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_mass", mass)

    def __setattr__(self, name, value):
        raise AttributeError("Distr is immutable")

    @property
    def mass(self) -> Dyadic:
        return self._mass

    @property
    def deficit(self) -> Dyadic:
        return ONE - self._mass

    def weight(self, term) -> Dyadic:
        return self._weights.get(term, ZERO)

    def support(self):
        return self._weights.keys()

    def items(self) -> Iterator[Tuple[object, Dyadic]]:
        return iter(self._weights.items())

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, term) -> bool:
        return term in self._weights

    def __bool__(self) -> bool:
        return bool(self._weights)

    def leq(self, other: "Distr") -> bool:
        """Pointwise order: every weight of self is covered by other."""
        return all(w <= other.weight(t) for t, w in self._weights.items())

    def map_support(self, fn: Callable) -> "Distr":
        return Distr((fn(t), w) for t, w in self._weights.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Distr) and self._weights == other._weights

    def __repr__(self) -> str:
        inner = ", ".join(f"{t!r}: {w}" for t, w in self._weights.items())
        return "Distr({" + inner + "})"


class Approx:
    """A lower bound `distr` on a limit distribution, plus whether it is exact.

    The deficit is the mass that may still arrive, at any key: zero when
    `exact` certifies the bound as the limit itself, else the mass the
    bound leaves out. The upper end of an interval adds it.
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

    def lower(self, keys) -> Dyadic:
        total = ZERO
        for k in keys:
            total = total + self.distr.weight(k)
        return total

    def upper(self, keys) -> Dyadic:
        return self.lower(keys) + self.deficit

    @property
    def upper_mass(self) -> Dyadic:
        return self.mass + self.deficit

    def __repr__(self):
        return f"Approx({self.distr!r}, exact={self.exact}, deficit={self.deficit})"


def point(term) -> Distr:
    return Distr([(term, ONE)])
