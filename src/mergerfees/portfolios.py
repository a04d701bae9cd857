"""Set-function machinery on the portfolio hypercube.

A portfolio is a subset of the n products an intermediary may carry,
encoded as a bit pattern. Everything downstream (profit classification,
bargaining, merger statistics) reduces to second differences of real-valued
functions on this hypercube: f(both) - f(only j) - f(only i) + f(neither).
A positive second difference means i and j are complements in terms of f,
a negative one means substitutes.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError

MAX_PRODUCTS = 24  # exhaustive enumeration of 2^n portfolios must stay feasible

DEFAULT_TOLERANCE = 1e-9  # profit units; optimizer residuals sit well below this


class PairKind(str, enum.Enum):
    STRICT_COMPLEMENTS = "strict_complements"
    STRICT_SUBSTITUTES = "strict_substitutes"
    ADDITIVE = "additive"
    MIXED = "mixed"


class GrossKind(str, enum.Enum):
    STRICT_GROSS_COMPLEMENTS = "strict_gross_complements"
    STRICT_GROSS_SUBSTITUTES = "strict_gross_substitutes"
    INDEPENDENT = "independent"
    MIXED = "mixed"


class ModularityKind(str, enum.Enum):
    SUPERMODULAR = "supermodular"
    SUBMODULAR = "submodular"
    ADDITIVE = "additive"
    NEITHER = "neither"


def sign_kind(lo: float, hi: float, tolerance: float = DEFAULT_TOLERANCE) -> PairKind:
    """Verdict on a set of values spanning [lo, hi], with a dead zone of +-tolerance.

    strict complements: lo > +tolerance (every value positive)
    strict substitutes: hi < -tolerance (every value negative)
    additive:           |lo| <= tolerance and |hi| <= tolerance
    mixed:              anything else
    """
    if lo > tolerance:
        return PairKind.STRICT_COMPLEMENTS
    if hi < -tolerance:
        return PairKind.STRICT_SUBSTITUTES
    if abs(hi) <= tolerance and abs(lo) <= tolerance:
        return PairKind.ADDITIVE
    return PairKind.MIXED


# a pair verdict read in demand terms: complements raise each other's demand
GROSS_KIND = {
    PairKind.STRICT_COMPLEMENTS: GrossKind.STRICT_GROSS_COMPLEMENTS,
    PairKind.STRICT_SUBSTITUTES: GrossKind.STRICT_GROSS_SUBSTITUTES,
    PairKind.ADDITIVE: GrossKind.INDEPENDENT,
    PairKind.MIXED: GrossKind.MIXED,
}


def gross_verdicts(
    extremes: Mapping[tuple[int, int], tuple[float, float]], tolerance: float
) -> tuple[dict[tuple[int, int], GrossKind], GrossKind, dict]:
    """Gross verdicts from the extremes (lo, hi) of each pair's demand effects.

    A positive effect means complements, as in ``sign_kind``. Returns each
    pair's kind, the kind every pair shares (or mixed), and the report block
    ``{"overall", "pairs", "tolerance"}`` that holds both.
    """
    kinds = {pair: GROSS_KIND[sign_kind(lo, hi, tolerance)] for pair, (lo, hi) in extremes.items()}
    distinct = set(kinds.values())
    overall = distinct.pop() if len(distinct) == 1 else GrossKind.MIXED
    block = {
        "overall": overall.value,
        "pairs": {f"{i},{j}": kind.value for (i, j), kind in sorted(kinds.items())},
        "tolerance": tolerance,
    }
    return kinds, overall, block


@dataclass(frozen=True)
class Portfolio:
    """Immutable subset of products 1..n, stored as a bitmask.

    Product labels are 1-based; bit (i-1) of ``mask`` is product i.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PRODUCTS:
            raise ValueError(f"product count must be in [1, {MAX_PRODUCTS}], got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "Portfolio":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Portfolio":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Portfolio":
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise IndexError(f"product index {i} out of range 1..{n}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Portfolio":
        mask = 0
        for k, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit {k} must be 0 or 1, got {b!r}")
            mask |= b << k
        return cls(len(bits), mask)

    def contains(self, i: int) -> bool:
        self._check_index(i)
        return bool(self.mask >> (i - 1) & 1)

    def with_product(self, i: int, on: bool = True) -> "Portfolio":
        self._check_index(i)
        bit = 1 << (i - 1)
        return Portfolio(self.n, self.mask | bit if on else self.mask & ~bit)

    def bits(self) -> tuple[int, ...]:
        return tuple(self.mask >> k & 1 for k in range(self.n))

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.mask >> (i - 1) & 1)

    def size(self) -> int:
        return bin(self.mask).count("1")

    def dot(self, values: Sequence[float]) -> float:
        """Inner product x . values with values indexed by product - 1."""
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        return float(sum(values[i - 1] for i in self.indices()))

    def key(self) -> str:
        """Bit string 'x1x2...xn', product 1 leftmost."""
        return format(self.mask, f"0{self.n}b")[::-1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"product index {i} out of range 1..{self.n}")

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices())) + "}"


def all_portfolios(n: int) -> Iterator[Portfolio]:
    for mask in range(1 << n):
        yield Portfolio(n, mask)


def rest_portfolios(n: int, i: int, j: int) -> Iterator[Portfolio]:
    """All 2^(n-2) portfolios over the products other than i and j.

    Yielded portfolios live on the same n-product index space with bits
    i and j forced off.
    """
    for mask in _rest_masks(n, i, j):
        yield Portfolio(n, mask)


def _rest_masks(n: int, i: int, j: int) -> list[int]:
    """Bitmasks of ``rest_portfolios(n, i, j)``, in its order: by size, then lexicographically."""
    bits = [1 << (k - 1) for k in range(1, n + 1) if k not in (i, j)]
    return [
        sum(combo)
        for r in range(len(bits) + 1)
        for combo in itertools.combinations(bits, r)
    ]


class SetFunction:
    """Memoized real-valued function on the n-product hypercube.

    Evaluation must be pure: the cache keeps the first value computed for
    each bit pattern and is never invalidated. ``seed_cache`` can fill it
    from a table of values computed in one pass, which must be the floats
    ``fn`` returns. A value that is not finite raises DomainError naming the
    portfolio: no verdict or fee can rest on it.
    """

    def __init__(self, n: int, fn: Callable[[Portfolio], float], name: str = ""):
        if not 1 <= n <= MAX_PRODUCTS:
            raise ValueError(f"product count must be in [1, {MAX_PRODUCTS}], got {n}")
        self.n = n
        self.name = name
        self._fn = fn
        self._cache: dict[int, float] = {}

    def __call__(self, x: Portfolio) -> float:
        if x.n != self.n:
            raise ValueError(f"portfolio has {x.n} products, function expects {self.n}")
        v = self._cache.get(x.mask)
        if v is None:
            v = float(self._fn(x))
            if not math.isfinite(v):
                raise DomainError(f"{self.name or 'set function'} is {v} at portfolio {x.key()}")
            self._cache[x.mask] = v
        return v

    def at(self, mask: int) -> float:
        """f of the portfolio with bit pattern ``mask``; a cached value needs no Portfolio."""
        v = self._cache.get(mask)
        return self(Portfolio(self.n, mask)) if v is None else v

    def seed_cache(self, table: Sequence[float]) -> None:
        """Cache ``table[mask]`` for every mask whose entry is finite.

        Values already cached stay. A portfolio with a non-finite entry is
        left to ``fn``, so reading it raises DomainError as it would unseeded.
        """
        values = np.asarray(table, dtype=float)
        if values.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} table entries, got shape {values.shape}")
        finite = np.isfinite(values)
        seeded = dict(zip(np.flatnonzero(finite).tolist(), values[finite].tolist()))
        seeded.update(self._cache)
        self._cache = seeded

    @property
    def cache(self) -> Mapping[int, float]:
        return dict(self._cache)

    def table(self) -> dict[str, float]:
        """Evaluate every portfolio, in bitmask order; keys are 'x1x2...xn' bit strings."""
        fmt = f"0{self.n}b"
        return {format(mask, fmt)[::-1]: self.at(mask) for mask in range(1 << self.n)}

    def restrict(self, fixed: Mapping[int, int]) -> "SetFunction":
        """View with some products pinned on/off, remaining ones renumbered.

        Free products keep their relative order and get labels 1..m.
        """
        for i, b in fixed.items():
            if not 1 <= i <= self.n:
                raise IndexError(f"product index {i} out of range 1..{self.n}")
            if b not in (0, 1):
                raise ValueError(f"fixed value for product {i} must be 0 or 1")
        free = [i for i in range(1, self.n + 1) if i not in fixed]
        if not free:
            raise ValueError("restriction pins every product")
        base_mask = 0
        for i, b in fixed.items():
            base_mask |= b << (i - 1)

        def fn(y: Portfolio) -> float:
            mask = base_mask
            for k, i in enumerate(free):
                mask |= (y.mask >> k & 1) << (i - 1)
            return self(Portfolio(self.n, mask))

        return SetFunction(len(free), fn, name=f"{self.name}|restricted")

    def negated(self) -> "SetFunction":
        return SetFunction(self.n, lambda x: -self(x), name=f"-{self.name}")


def additive_function(weights: Sequence[float]) -> SetFunction:
    w = tuple(float(x) for x in weights)
    return SetFunction(len(w), lambda x: x.dot(w), name="additive")


def second_difference(f: SetFunction, i: int, j: int, rest: Portfolio) -> float:
    """f(i on, j on, rest) - f(i off, j on, rest) - f(i on, j off, rest) + f(rest).

    ``rest`` assigns membership to every product except i and j (its bits for
    i and j must be off). Positive means complements at this rest portfolio,
    negative means substitutes. Symmetric in (i, j) exactly.
    """
    if i == j:
        raise ValueError("second difference needs two distinct products")
    if rest.n != f.n:
        raise ValueError(f"rest portfolio has {rest.n} products, expected {f.n}")
    if rest.contains(i) or rest.contains(j):
        raise ValueError(f"rest portfolio must exclude products {i} and {j}")
    lo, hi = min(i, j), max(i, j)
    both = rest.with_product(lo).with_product(hi)
    # fixed evaluation order keeps the value exactly symmetric in (i, j)
    return (f(both) + f(rest)) - (f(rest.with_product(lo)) + f(rest.with_product(hi)))


@dataclass(frozen=True)
class Witness:
    rest: Portfolio
    value: float


@dataclass(frozen=True)
class PairRelation:
    """Verdict for one product pair, with the second differences behind it."""

    i: int
    j: int
    kind: PairKind
    tolerance: float
    witnesses: tuple[Witness, ...]
    most_positive: Witness
    most_negative: Witness


def classify_pair(
    f: SetFunction, i: int, j: int, tolerance: float = DEFAULT_TOLERANCE
) -> PairRelation:
    """Aggregate second differences over all rest portfolios into one verdict.

    The verdict is ``sign_kind`` of the smallest and largest difference;
    when it is mixed, the extreme witnesses show where the sign pattern
    breaks.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if i == j:
        raise ValueError("second difference needs two distinct products")
    for k in (i, j):
        if not 1 <= k <= f.n:
            raise IndexError(f"product index {k} out of range 1..{f.n}")
    bit_lo, bit_hi = 1 << (min(i, j) - 1), 1 << (max(i, j) - 1)
    both, at = bit_lo | bit_hi, f.at
    # second_difference's sum, in its evaluation order, read by bit pattern
    witnesses = tuple(
        Witness(Portfolio(f.n, m), (at(m | both) + at(m)) - (at(m | bit_lo) + at(m | bit_hi)))
        for m in _rest_masks(f.n, i, j)
    )
    hi = max(witnesses, key=lambda w: w.value)
    lo = min(witnesses, key=lambda w: w.value)
    return PairRelation(i, j, sign_kind(lo.value, hi.value, tolerance), tolerance, witnesses, hi, lo)


@dataclass(frozen=True)
class ModularityReport:
    kind: ModularityKind
    tolerance: float
    pairs: Mapping[tuple[int, int], PairRelation] = field(repr=False)

    def pair(self, i: int, j: int) -> PairRelation:
        return self.pairs[(min(i, j), max(i, j))]


def classify_modularity(
    f: SetFunction, tolerance: float = DEFAULT_TOLERANCE
) -> ModularityReport:
    """Classify f over every product pair.

    Supermodular: all pairs strict complements or additive, at least one
    strict. Submodular: the mirror image. Additive: all pairs additive.
    Neither: anything else (including any mixed pair).
    """
    if f.n < 2:
        raise ValueError("modularity needs at least two products")
    pairs = {
        (i, j): classify_pair(f, i, j, tolerance)
        for i, j in itertools.combinations(range(1, f.n + 1), 2)
    }
    kinds = {rel.kind for rel in pairs.values()}
    if kinds == {PairKind.ADDITIVE}:
        verdict = ModularityKind.ADDITIVE
    elif kinds <= {PairKind.STRICT_COMPLEMENTS, PairKind.ADDITIVE}:
        verdict = ModularityKind.SUPERMODULAR
    elif kinds <= {PairKind.STRICT_SUBSTITUTES, PairKind.ADDITIVE}:
        verdict = ModularityKind.SUBMODULAR
    else:
        verdict = ModularityKind.NEITHER
    return ModularityReport(verdict, tolerance, pairs)
