"""Exact zero-cycle algebra under the Pontryagin convolution product.

Points live in a free abelian group Z^r with designated generators; a cycle
is a finitely supported map from points to rationals.  The convolution
product acts on points by group addition ({x} * {y} = {x + y}), the origin
cycle {0} is the unit, and degree (sum of coefficients) is a ring
homomorphism to Q.

Everything here is exact and there is no floating point.  A cycle keeps
integer numerators over one common denominator, and each point is one
integer key: its coordinates packed as signed digits of ``_B`` bits, most
significant first (Kronecker substitution).  Adding two keys adds the
points, so a convolved pair costs one integer addition, and numeric key
order is lexicographic point order.  Coordinates are limited to
``|c| < 2**46``; a point outside that range raises ``ValueError`` where it
would enter or arise, and is never wrapped.  Tuples, ``GroupPoint`` and
``Fraction`` appear only at the API boundary.  Support caps are guards,
not truncations: an operation that would produce a point above the cap
raises ``SupportCapExceeded`` instead of dropping terms, so every identity
reported by this module is an identity of the free group ring.

``json_text`` is the package's one indent-2 JSON writer; it writes a
``Cycle`` in a document straight from the packed keys, see ``_Layout``.

The truncated logarithm / exponential / gamma series all stop at order
``geom_dim + 1`` (the nilpotency order of the degree-zero ideal in the
modeled quotient).  No quotienting happens here; callers that reason
modulo high powers of the augmentation ideal must say so explicitly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isfinite, prod
from typing import Iterable, Iterator, Mapping

from .linalg import clear_denominators


class SupportCapExceeded(Exception):
    """A convolution would involve a point above the declared support cap."""

    def __init__(self, point: "GroupPoint", cap: int, where: str = "product"):
        self.point = point
        self.cap = cap
        self.where = where
        super().__init__(
            f"{where} point {point} has height {point.height()} > support cap {cap}"
        )


class DegreeError(Exception):
    """A series operation received a cycle of the wrong degree."""


class GroupPoint:
    """A point of the ambient group: an integer coordinate vector."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, int):
                raise TypeError(f"point coordinates must be integers, got {c!r}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def origin(cls, rank: int) -> "GroupPoint":
        return cls((0,) * rank)

    @classmethod
    def generator(cls, rank: int, index: int) -> "GroupPoint":
        """The index-th designated generator (0-based)."""
        if not 0 <= index < rank:
            raise ValueError(f"generator index {index} out of range for rank {rank}")
        return cls(tuple(1 if i == index else 0 for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def height(self) -> int:
        """Total monomial height: sum of absolute coordinates."""
        return sum(abs(c) for c in self.coords)

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "GroupPoint") -> "GroupPoint":
        if self.rank != other.rank:
            raise ValueError("rank mismatch between points")
        return GroupPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, n: int) -> "GroupPoint":
        return GroupPoint(tuple(n * c for c in self.coords))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __setattr__(self, name, value):
        raise AttributeError("GroupPoint is immutable")

    def __repr__(self) -> str:
        return f"GroupPoint({self.coords})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {value!r}")


# A point (c_1, ..., c_r) is stored as the key sum_i c_i * 2**(_B*(r-i)):
# signed digits of _B bits, most significant first.  Stored coordinates
# keep |c| < _LIMIT = 2**(_B-2), so numeric key order is lexicographic
# point order, and the sum of two stored keys has digits |d| < 2**(_B-1)
# and still decodes exactly.  CPython hashes ints modulo 2**61 - 1, so at
# a width of 61 bits every point would hash to its coordinate sum and the
# points of a cycle would collide in its dict; 48 bits spreads them.
_B = 48
_LIMIT = 1 << (_B - 2)
_HALF = 1 << (_B - 1)
_MASK = (1 << _B) - 1


def _key(coords: Iterable[int]) -> int:
    key = 0
    for c in coords:
        key = (key << _B) + c
    return key


def _points(keys: Iterable[int], rank: int) -> Iterator[tuple[int, ...]]:
    """The points of keys whose digits all have |d| < 2**(_B-1)."""
    offset = _key((_HALF,) * rank)
    digits = range(rank)
    for key in keys:
        key += offset
        out = []
        for _ in digits:
            out.append((key & _MASK) - _HALF)
            key >>= _B
        out.reverse()
        yield tuple(out)


def _height(coords: tuple[int, ...]) -> int:
    """Height of a point; raises if a coordinate is outside the digit range."""
    h = sum(map(abs, coords))
    if h >= _LIMIT and max(map(abs, coords)) >= _LIMIT:
        raise ValueError(f"point {coords} has a coordinate outside |c| < 2**{_B - 2}")
    return h


def _scan(keys: Iterable[int], rank: int, cap: int, where: str) -> int:
    """Exact max height of the points of ``keys``.  Raises
    ``SupportCapExceeded`` for the first point above ``cap`` in iteration
    order, else ``ValueError`` for a point outside the digit range."""
    points = list(_points(keys, rank))
    for p in points:
        if sum(map(abs, p)) > cap:
            raise SupportCapExceeded(GroupPoint(p), cap, where=where)
    return max(map(_height, points), default=0)


class Cycle:
    """A zero-cycle: finite formal Q-combination of group points.

    Stored as ``num``, a dict from packed point keys (see ``_key``) to
    nonzero integer numerators, over ``den``, a positive integer common
    denominator: the coefficient of a point p is num[_key(p)] / den.  The
    form is canonical, gcd(den, *num.values()) == 1, so equality compares
    ``den`` and ``num`` directly.  ``hb`` is an upper bound on the height
    of every stored point, carried through each operation so that caps and
    the digit range are checked without decoding keys; it is the exact
    height once ``_exact`` is set.  Instances are immutable; all
    operations return new cycles.
    """

    __slots__ = ("rank", "den", "num", "hb", "_exact")

    def __init__(self, rank: int, terms: Mapping | Iterable = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int | Fraction] = {}
        hb = 0
        integral = True
        for point, coeff in items:
            if not isinstance(point, GroupPoint):
                point = GroupPoint(point)
            coords = point.coords
            if len(coords) != rank:
                raise ValueError(
                    f"point {point} has rank {point.rank}, cycle has rank {rank}"
                )
            h = _height(coords)
            if h > hb:
                hb = h
            key = _key(coords)
            if not isinstance(coeff, int):
                integral = False
            acc[key] = acc.get(key, 0) + coeff
        if integral:
            # integer coefficients are already numerators over den 1
            self._set(rank, 1, acc, hb)
        else:
            den, nums = clear_denominators(list(acc.values()))
            self._set(rank, den, dict(zip(acc, nums)), hb)
        if len(self.num) == len(acc):
            # nothing cancelled, so the largest input height is attained
            self._set_height(hb)

    def _set(self, rank: int, den: int, num: dict[int, int], hb: int) -> None:
        """Store (rank, den, num, hb) in canonical form: zero numerators are
        dropped and the gcd of den and the numerators is divided out."""
        if not all(num.values()):
            num = {p: v for p, v in num.items() if v}
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {p: v // g for p, v in num.items()}
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "hb", hb if num else 0)
        object.__setattr__(self, "_exact", not num)

    def _set_height(self, height: int) -> None:
        object.__setattr__(self, "hb", height)
        object.__setattr__(self, "_exact", True)

    @classmethod
    def _canonical(cls, rank: int, den: int, num: dict[int, int], hb: int) -> "Cycle":
        out = object.__new__(cls)
        out._set(rank, den, num, hb)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Cycle":
        return cls(rank)

    @classmethod
    def unit(cls, rank: int) -> "Cycle":
        """The convolution unit {0_A}; the origin's key is 0."""
        out = cls._canonical(rank, 1, {0: 1}, 0)
        out._set_height(0)
        return out

    @classmethod
    def point(cls, point: GroupPoint, coeff=1) -> "Cycle":
        return cls(point.rank, {point: coeff})

    # -- inspection --------------------------------------------------------

    def coeff(self, point: GroupPoint) -> Fraction:
        if point.rank != self.rank:
            raise ValueError(f"point {point} has rank {point.rank}, cycle has rank {self.rank}")
        if max(map(abs, point.coords), default=0) >= _LIMIT:
            return Fraction(0)
        return Fraction(self.num.get(_key(point.coords), 0), self.den)

    def items(self) -> Iterator[tuple[GroupPoint, Fraction]]:
        return ((GroupPoint(p), c) for p, c in self._terms(self.num))

    def sorted_items(self) -> list[tuple[GroupPoint, Fraction]]:
        """Terms in lexicographic point order (the canonical output order)."""
        return [(GroupPoint(p), c) for p, c in self._terms(sorted(self.num))]

    def _terms(self, keys) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """(coordinates, coefficient) for each key, in the order given."""
        num, den = self.num, self.den
        return ((p, Fraction(num[key], den)) for key, p in zip(keys, _points(keys, self.rank)))

    def support_size(self) -> int:
        return len(self.num)

    def max_height(self) -> int:
        if not self._exact:
            self._set_height(max(map(_height, _points(self.num, self.rank)), default=0))
        return self.hb

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> Fraction:
        return Fraction(sum(self.num.values()), self.den)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Cycle") -> "Cycle":
        if not isinstance(other, Cycle):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch between cycles")
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        acc = {p: v * m1 for p, v in self.num.items()}
        for p, v in other.num.items():
            acc[p] = acc.get(p, 0) + v * m2
        return Cycle._canonical(self.rank, self.den * m1, acc, max(self.hb, other.hb))

    def __neg__(self) -> "Cycle":
        return Cycle._canonical(
            self.rank, self.den, {p: -v for p, v in self.num.items()}, self.hb
        )

    def __sub__(self, other: "Cycle") -> "Cycle":
        return self + (-other)

    def scale(self, scalar) -> "Cycle":
        s = _as_fraction(scalar)
        n = s.numerator
        return Cycle._canonical(
            self.rank, self.den * s.denominator, {p: v * n for p, v in self.num.items()}, self.hb
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cycle)
            and self.rank == other.rank
            and self.den == other.den
            and self.num == other.num
        )

    def __setattr__(self, name, value):
        raise AttributeError("Cycle is immutable")

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Cycle({self.rank}, 0)"
        parts = [f"{c}*{{{p.coords}}}" for p, c in self.sorted_items()]
        return f"Cycle({self.rank}, {' + '.join(parts)})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        keys = sorted(self.num)
        num, den = self.num, self.den
        return {
            "rank": self.rank,
            "terms": [{"point": list(p), "coeff": _ratio(num[key], den)}
                      for key, p in zip(keys, _points(keys, self.rank))],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cycle":
        """Read ``to_json_dict`` output: a dict of only a ``rank`` and a list
        of ``terms``, each a dict of only a ``point`` and a ``coeff``.  The
        rank and the coordinates must be JSON integers, each coefficient a
        nonzero ``p/q`` string, see ``parse_rational``, and no point may be
        listed twice; anything else raises ``ValueError``."""
        try:
            terms = [(GroupPoint(json_int(x) for x in t["point"]), parse_rational(t["coeff"]))
                     for t in data["terms"]]
            rank = json_int(data["rank"])
            extra = len(data) != 2 or any(len(t) != 2 for t in data["terms"])
        except (KeyError, TypeError):
            raise ValueError("a cycle is a dict of rank and terms, a list of point and coeff dicts") from None
        cycle = cls(rank, terms)
        # terms at one point are added and zero coefficients dropped
        if extra or len(cycle.num) != len(terms):
            raise ValueError("a cycle has an extra key, a point listed twice or a zero coefficient")
        return cycle

    @classmethod
    def from_json(cls, text: str) -> "Cycle":
        return cls.from_json_dict(json.loads(text))


class _Layout:
    """How ``_json_text`` writes the cycles of one rank whose closing brace
    follows ``pad``: one ``%`` template per term, filled with the texts of
    the coefficient, looked up by numerator, and of the high and the low
    half of the key offset by ``_HALF`` in every digit, see ``_Texts``."""

    __slots__ = ("pad", "p2", "head", "term", "shift", "mask", "offset", "highs", "lows")

    def __init__(self, rank: int, pad: str):
        self.pad = pad
        self.p2 = p2 = pad + "    "
        p3 = p2 + "  "
        p4 = p3 + "  "
        self.head = "{" + pad + '  "rank": %d,' % rank + pad + '  "terms": '
        # rank 0: both halves have no digits and their texts are empty
        point = "[%s%s" + p3 + "]" if rank else "[]%s%s"
        self.term = "{" + p3 + '"coeff": "%s",' + p3 + '"point": ' + point + p2 + "}"
        low = rank // 2
        self.shift = shift = _B * low
        self.mask = (1 << shift) - 1
        self.offset = _key((_HALF,) * rank)
        sep = "," + p4
        self.highs = _Texts(rank - low, p4, sep)
        self.lows = _Texts(low, sep, sep)

    def text(self, num: dict[int, int], den: int) -> str:
        pad, p2 = self.pad, self.p2
        if not num:
            return self.head + "[]" + pad + "}"
        term, shift, mask, offset, highs, lows = (
            self.term, self.shift, self.mask, self.offset, self.highs, self.lows)
        coeffs = {n: _ratio(n, den) for n in set(num.values())}
        terms = [term % (coeffs[num[key]], highs[(half := key + offset) >> shift], lows[half & mask])
                 for key in sorted(num)]
        return "%s[%s%s%s  ]%s}" % (self.head, p2, ("," + p2).join(terms), pad, pad)


class _Texts(dict):
    """Coordinate texts of the ``n``-digit halves of offset keys, made on
    first lookup: the first digit after ``first``, each other after
    ``sep``, and the empty text for no digits."""

    __slots__ = ("shifts", "first", "sep")

    def __init__(self, n: int, first: str, sep: str):
        self.shifts = range(_B * (n - 1), -1, -_B)
        self.first, self.sep = first, sep

    def __missing__(self, half: int) -> str:
        digits = [str(((half >> s) & _MASK) - _HALF) for s in self.shifts]
        text = self[half] = self.first + self.sep.join(digits) if digits else ""
        return text


_encode_str = json.encoder.encode_basestring_ascii


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, bool, None, finite floats
    and cycles, each standing for its ``to_json_dict()``; others raise."""
    return _json_text(value, "\n", {})


def _json_text(value, indent: str, tables: dict) -> str:
    """``json_text(value)`` for a value whose closing bracket follows
    ``indent``; ``tables`` maps (rank, indent) to the ``_Layout`` of such
    cycles, and may be shared by the parts of one document."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:
            # one join, so that a value's text, a cycle's say, is copied once
            parts = ["{"]
            for key in sorted(value):
                # _encode_str raises on a key that is not a str
                parts += inner, _encode_str(key), ": ", _json_text(value[key], inner, tables), ","
            parts[-1] = indent + "}"
            return "".join(parts)
        # str items, the most common, skip the call
        items = [_encode_str(item) if type(item) is str else _json_text(item, inner, tables) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if kind is Cycle:
        layout = tables[value.rank, indent] = tables.get((value.rank, indent)) or _Layout(value.rank, indent)
        return layout.text(value.num, value.den)
    raise TypeError(f"value {value!r} is not JSON")


def _ratio(n: int, d: int) -> str:
    """The 'p/q' text of n/d for d > 0: lowest terms, no Fraction built."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return f"{n}/{d}"


def format_rational(value) -> str:
    """Decimal-free 'p/q' form, canonical lowest terms with q > 0."""
    f = _as_fraction(value)
    return _ratio(f.numerator, f.denominator)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """The value of an integer or ``p/q`` token; any other value, a zero
    denominator included, raises ``ValueError``."""
    if type(text) is not str or not _RATIONAL.fullmatch(text):
        raise ValueError(f"entry {text!r} is not an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"entry {text!r} has a zero denominator") from None


def json_int(value) -> int:
    """``value`` if it is a JSON integer; a bool or float raises ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


@dataclass(frozen=True)
class RingContext:
    """Ambient parameters for convolution computations.

    ``geom_dim`` is the geometric dimension g of the modeled variety; the
    degree-zero ideal is treated as nilpotent of order g + 1 by consumers
    that quotient (never by this module).  ``support_cap`` bounds the total
    monomial height of any point an operation may touch; exceeding it is an
    error, never a silent truncation.
    """

    rank: int
    geom_dim: int
    support_cap: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        if self.geom_dim < 1:
            raise ValueError("geom_dim must be a positive integer")
        if self.support_cap < 0:
            raise ValueError("support_cap must be nonnegative")

    @property
    def series_order(self) -> int:
        """Truncation order g + 1 for the log/exp/gamma series."""
        return self.geom_dim + 1


def pontryagin(c1: Cycle, c2: Cycle, ctx: RingContext) -> Cycle:
    """Convolution product: coeff of p is the sum over p1 + p2 = p.

    Raises ``SupportCapExceeded`` if an input point or a product point
    exceeds the cap, and ``ValueError`` if a product point leaves the digit
    range.  Points are decoded only when the height bounds allow either:
    then every product point is checked after the products are accumulated
    and before zero coefficients are dropped, so cancellation can never
    mask an overflow.
    """
    rank = ctx.rank
    if c1.rank != rank or c2.rank != rank:
        raise ValueError("cycle rank does not match context rank")
    cap = ctx.support_cap
    for c in (c1, c2):
        if c.hb > cap:
            c._set_height(_scan(c.num, rank, cap, "input"))
    acc: dict[int, int] = {}
    get = acc.get
    items2 = c2.num.items()
    for p1, a in c1.num.items():
        for p2, b in items2:
            p = p1 + p2
            acc[p] = get(p, 0) + a * b
    hb = c1.hb + c2.hb
    if hb > cap or hb >= _LIMIT:
        hb = _scan(acc, rank, cap, "product")
    return Cycle._canonical(rank, c1.den * c2.den, acc, hb)


def star_power(c: Cycle, k: int, ctx: RingContext) -> Cycle:
    """k-fold convolution power; the empty product (k = 0) is {0_A}."""
    if k < 0:
        raise ValueError("star_power exponent must be nonnegative")
    result = Cycle.unit(ctx.rank)
    for _ in range(k):
        result = pontryagin(result, c, ctx)
    return result


def pushforward(c: Cycle, n: int) -> Cycle:
    """Push forward along multiplication by n: each point p goes to n*p.

    This is a ring homomorphism for the convolution product for every n.
    Raises ``ValueError`` if n*p leaves the digit range for some point p.
    """
    hb = abs(n) * c.hb
    if hb >= _LIMIT:
        hb = max((_height(tuple(n * x for x in p)) for p in _points(c.num, c.rank)), default=0)
    acc: dict[int, int] = {}
    for p, v in c.num.items():
        q = n * p
        acc[q] = acc.get(q, 0) + v
    return Cycle._canonical(c.rank, c.den, acc, hb)


def _orbit_cycle(rank: int, den: int, orbits: Mapping[tuple[int, ...], int]) -> Cycle:
    """The cycle that an orbit form stands for.

    Each orbit key (a_1, *tail), tail sorted, maps to the numerator n over
    ``den`` shared by every point (a_1, sigma(tail)), sigma a permutation of
    x_2..x_r.  The keys of a tail's orderings are its distinct first values
    v, each placed before the orderings of the rest of the tail (memoized),
    so every key costs one shift and one addition.
    """
    memo: dict[tuple[int, ...], list[int]] = {(): [0]}

    def orderings(tail: tuple[int, ...]) -> list[int]:
        keys = memo.get(tail)
        if keys is None:
            shift = _B * (len(tail) - 1)
            keys = memo[tail] = [
                (v << shift) + key
                for i, v in enumerate(tail) if i == 0 or v != tail[i - 1]
                for key in orderings(tail[:i] + tail[i + 1:])
            ]
        return keys

    num: dict[int, int] = {}
    hb = 0
    for orbit, n in orbits.items():
        hb = max(hb, _height(orbit))
        head = orbit[0] << _B * (rank - 1)
        for key in orderings(orbit[1:]):
            num[head + key] = n
    out = Cycle._canonical(rank, den, num, hb)
    out._set_height(hb)
    return out


def orbit_forms(cycles: Iterable[Cycle]) -> list[dict[tuple[int, ...], tuple[int, int]] | None]:
    """The orbit form of each of ``cycles``, all of one rank r >= 1, under
    permutations of x_2..x_r: a map from each orbit key (a_1, *tail), tail
    sorted, to (n, |O|), the numerator over the cycle's ``den`` of every
    point of the orbit O and its size (r-1)! / prod m_v!, m_v the tail's
    multiplicities.  A cycle gets None if two points of an orbit differ or
    an orbit is not whole.  A key's low ``_B * (r-1)`` bits name its tail
    and its high bits a_1; each tail is sorted once per call, for all the
    cycles."""
    cycles = list(cycles)
    rank = cycles[0].rank if cycles else 1
    if rank < 1 or any(c.rank != rank for c in cycles):
        raise ValueError("orbit forms need cycles of one rank r >= 1")
    shift = _B * (rank - 1)
    offset, mask = _key((_HALF,) * (rank - 1)), (1 << shift) - 1
    tails: dict[int, tuple[tuple[int, ...], int]] = {}  # low bits -> (sorted tail, |O|)
    forms = []
    for cycle in cycles:
        form: dict[tuple[int, ...], tuple[int, int]] = {}
        for key, n in cycle.num.items():
            tail = tails.get(key & mask)
            if tail is None:
                sorted_tail = tuple(sorted(next(_points((key,), rank))[1:]))
                size = factorial(rank - 1) // prod(factorial(sorted_tail.count(v)) for v in set(sorted_tail))
                tail = tails[key & mask] = sorted_tail, size
            if form.setdefault(((key + offset) >> shift, *tail[0]), (n, tail[1]))[0] != n:
                forms.append(None)
                break
        else:
            forms.append(form if sum(size for _, size in form.values()) == len(cycle.num) else None)
    return forms


def degree(c: Cycle) -> Fraction:
    """Exact sum of coefficients; multiplicative under *, additive under +."""
    return c.degree()


def _power_sum(base: Cycle, coeffs: list[Fraction], ctx: RingContext) -> Cycle:
    """sum_j coeffs[j] * base^{*j}, one convolution per power above 0."""
    acc = Cycle.zero(ctx.rank)
    power = Cycle.unit(ctx.rank)
    for j, coeff in enumerate(coeffs):
        if j:
            power = pontryagin(power, base, ctx)
        acc = acc + power.scale(coeff)
    return acc


def log_cycle(c: Cycle, ctx: RingContext) -> Cycle:
    """Truncated convolution logarithm of a degree-1 cycle.

    With u = c - {0}, returns u - u^{*2}/2 + ... +- u^{*(g+1)}/(g+1),
    stopping at the nilpotency order g + 1.
    """
    if c.degree() != 1:
        raise DegreeError(f"log_cycle requires degree 1, got {c.degree()}")
    u = c - Cycle.unit(ctx.rank)
    coeffs = [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, ctx.series_order + 1)]
    return _power_sum(u, coeffs, ctx)


def exp_cycle(c: Cycle, ctx: RingContext) -> Cycle:
    """Truncated convolution exponential of a degree-0 cycle.

    Returns {0} + c + c^{*2}/2! + ... + c^{*(g+1)}/(g+1)!.
    """
    if c.degree() != 0:
        raise DegreeError(f"exp_cycle requires degree 0, got {c.degree()}")
    coeffs = [Fraction(1, factorial(j)) for j in range(ctx.series_order + 1)]
    return _power_sum(c, coeffs, ctx)


def gamma(x: GroupPoint, ctx: RingContext) -> Cycle:
    """The gamma cycle of a point: sum_{j=1}^{g+1} ({0} - {x})^{*j} / j.

    Runs to the truncation order g + 1, so that gamma(x) == -log_cycle({x})
    holds exactly in the free ring (both series stop at the same order).
    gamma(0_A) is the zero cycle.
    """
    v = Cycle.unit(ctx.rank) - Cycle.point(x)
    coeffs = [Fraction(0)] + [Fraction(1, j) for j in range(1, ctx.series_order + 1)]
    return _power_sum(v, coeffs, ctx)


def gamma_factorization(x: GroupPoint, ctx: RingContext) -> Cycle:
    """Degree-1 cofactor w with gamma(x) == -(({x} - {0}) * w) exactly.

    w = {0} - u/2 + u^{*2}/3 - ... +- u^{*g}/(g+1) with u = {x} - {0}.
    Convolving -u against w reproduces every gamma term through order g+1,
    which makes gamma(x)^{*k} == (-1)^k u^{*k} * w^{*k} an exact identity.
    """
    if x.is_origin():
        raise ValueError("gamma_factorization requires a nonzero point")
    u = Cycle.point(x) - Cycle.unit(ctx.rank)
    coeffs = [Fraction((-1) ** j, j + 1) for j in range(ctx.geom_dim + 1)]
    return _power_sum(u, coeffs, ctx)
