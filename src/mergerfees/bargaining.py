"""Negotiated lump-sum fees over a portfolio profit oracle.

Under the Nash-in-Nash protocol each firm (a block of one or more
suppliers) negotiates with the intermediary expecting all other agreements
to stand, so its fee is (1 - beta) times its incremental contribution: the
intermediary's profit at the full portfolio minus its profit without the
firm's entire block. Merging two single-product suppliers only changes the
disagreement point, which is why

    T_post - T_pre = -(1 - beta) * [profit second difference of the pair]

holds exactly: the merged entity gains iff its products are substitutes in
profits for the intermediary. Fees of firms outside the merger are
untouched. A Shapley-value protocol over the same oracle is provided as an
alternative that stays well-behaved under strong complementarities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from itertools import combinations
from typing import Mapping, Sequence

from .portfolios import (
    DEFAULT_TOLERANCE,
    PairRelation,
    Portfolio,
    SetFunction,
    classify_pair_at,
)

MAX_SHAPLEY_PLAYERS = 12  # exact subset enumeration only


@dataclass(frozen=True)
class OwnershipStructure:
    """Partition of suppliers 1..n into firms that negotiate as one entity."""

    n: int
    firms: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for firm in self.firms:
            if not firm:
                raise ValueError("firms must be nonempty")
            for i in firm:
                if not 1 <= i <= self.n:
                    raise IndexError(f"supplier {i} out of range 1..{self.n}")
                if i in seen:
                    raise ValueError(f"supplier {i} appears in two firms")
                seen.add(i)
        if seen != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"suppliers {missing} belong to no firm")

    @classmethod
    def singletons(cls, n: int) -> "OwnershipStructure":
        return cls(n, tuple(frozenset([i]) for i in range(1, n + 1)))

    @classmethod
    def from_groups(cls, n: int, groups: Sequence[Sequence[int]]) -> "OwnershipStructure":
        return cls(n, tuple(frozenset(int(i) for i in g) for g in groups))

    def merge(self, i: int, j: int) -> "OwnershipStructure":
        """Ownership after the firms owning suppliers i and j combine."""
        fi = self.firm_of(i)
        fj = self.firm_of(j)
        if fi == fj:
            raise ValueError(f"suppliers {i} and {j} already share an owner")
        rest = tuple(f for f in self.firms if f not in (fi, fj))
        return OwnershipStructure(self.n, rest + (fi | fj,))

    def firm_of(self, i: int) -> frozenset[int]:
        for firm in self.firms:
            if i in firm:
                return firm
        raise IndexError(f"supplier {i} out of range 1..{self.n}")


def firm_label(firm: frozenset[int]) -> str:
    return "+".join(str(i) for i in sorted(firm))


def labelled_fees(fees: Mapping[frozenset[int], float]) -> dict[str, float]:
    """Fees keyed by firm label, firms ordered by their sorted suppliers."""
    return {firm_label(f): v for f, v in sorted(fees.items(), key=lambda kv: sorted(kv[0]))}


@dataclass(frozen=True)
class BargainingEnv:
    """Bargaining weight, ownership structure, and the profit oracle."""

    beta: float
    ownership: OwnershipStructure
    oracle: SetFunction

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError(f"bargaining weight must be in (0, 1), got {self.beta}")
        if self.ownership.n != self.oracle.n:
            raise ValueError(
                f"ownership covers {self.ownership.n} suppliers, oracle has {self.oracle.n}"
            )

    def merged(self, i: int, j: int) -> "BargainingEnv":
        return BargainingEnv(self.beta, self.ownership.merge(i, j), self.oracle)


@dataclass(frozen=True)
class FeeSchedule:
    """Per-firm fees plus the intermediary's net payoff.

    Fees within a multi-supplier firm are only pinned down in total, so
    per-supplier attribution is defined (and equal to the firm fee) for
    singleton firms only.
    """

    protocol: str
    fees: Mapping[frozenset[int], float]
    retailer_net: float

    @property
    def total_fees(self) -> float:
        return sum(self.fees.values())

    def fee_of(self, *suppliers: int) -> float:
        return self.fees[frozenset(suppliers)]

    def supplier_attribution(self) -> dict[int, float | None]:
        out: dict[int, float | None] = {}
        for firm, fee in self.fees.items():
            if len(firm) == 1:
                out[next(iter(firm))] = fee
            else:
                for i in firm:
                    out[i] = None
        return dict(sorted(out.items()))

    def describe(self) -> dict:
        return {
            "protocol": self.protocol,
            "fees": labelled_fees(self.fees),
            "retailer_net": self.retailer_net,
            "total_fees": self.total_fees,
        }


def nash_in_nash(env: BargainingEnv) -> FeeSchedule:
    """Nash-in-Nash fees: each firm earns (1-beta) times its increment.

    A firm's disagreement strips its whole block from the portfolio, so its
    fee is (1-beta) * [Pi(full) - Pi(full minus block)]. Fees may be
    negative when an increment is; no floor is applied.
    """
    n = env.oracle.n
    full = Portfolio.full(n)
    base = env.oracle(full)
    fees: dict[frozenset[int], float] = {}
    for firm in env.ownership.firms:
        without = Portfolio.from_indices(n, [i for i in range(1, n + 1) if i not in firm])
        fees[firm] = (1.0 - env.beta) * (base - env.oracle(without))
    return FeeSchedule("nash_in_nash", fees, base - sum(fees.values()))


@dataclass(frozen=True)
class MergerReport:
    """Before/after fee comparison for a merger of two singleton suppliers."""

    pair: tuple[int, int]
    beta: float
    t_pre: float
    t_post: float
    gap: float
    pair_relation: PairRelation  # at the full rest portfolio
    second_difference: float
    non_merging_pre: Mapping[frozenset[int], float]
    non_merging_post: Mapping[frozenset[int], float]
    pre: FeeSchedule
    post: FeeSchedule

    @property
    def sign_identity_residual(self) -> float:
        """gap + (1-beta) * second difference; algebraically zero."""
        return self.gap + (1.0 - self.beta) * self.second_difference

    @property
    def max_non_merging_change(self) -> float:
        return max(
            (
                abs(self.non_merging_post[f] - v)
                for f, v in self.non_merging_pre.items()
            ),
            default=0.0,
        )


def merger_report(
    env: BargainingEnv,
    pair: tuple[int, int],
    tolerance: float = DEFAULT_TOLERANCE,
) -> MergerReport:
    """Run the bargaining twice (pair separate, pair merged) and compare.

    Both pair members must be singleton firms before the merger. The report
    attaches the pair's profit relation at the full rest portfolio, whose
    sign determines the direction of the fee change.
    """
    i, j = pair
    if i == j:
        raise ValueError("merging pair must be two distinct suppliers")
    for k in (i, j):
        if len(env.ownership.firm_of(k)) != 1:
            raise ValueError(f"supplier {k} must be a singleton firm before the merger")
    pre = nash_in_nash(env)
    post_env = env.merged(i, j)
    post = nash_in_nash(post_env)
    t_pre = pre.fee_of(i) + pre.fee_of(j)
    t_post = post.fee_of(i, j)
    rest = Portfolio.from_indices(
        env.oracle.n, [k for k in range(1, env.oracle.n + 1) if k not in (i, j)]
    )
    relation = classify_pair_at(env.oracle, i, j, rest, tolerance)
    diff = relation.witnesses[0].value
    merged_firm = frozenset((i, j))
    non_pre = {f: v for f, v in pre.fees.items() if f not in (frozenset([i]), frozenset([j]))}
    non_post = {f: v for f, v in post.fees.items() if f != merged_firm}
    return MergerReport(
        pair=(i, j),
        beta=env.beta,
        t_pre=t_pre,
        t_post=t_post,
        gap=t_post - t_pre,
        pair_relation=relation,
        second_difference=diff,
        non_merging_pre=non_pre,
        non_merging_post=non_post,
        pre=pre,
        post=post,
    )


def shapley_fees(env: BargainingEnv) -> FeeSchedule:
    """Exact Shapley-value fees with the intermediary as an explicit player.

    Coalitions without the intermediary are worthless (suppliers reach
    consumers only through it); a coalition containing it is worth the
    profit of the union of its member firms' products. Efficiency, symmetry
    and the dummy axiom hold by construction of the value.
    """
    firms = env.ownership.firms
    players = len(firms) + 1
    if players > MAX_SHAPLEY_PLAYERS:
        raise ValueError(
            f"{len(firms)} firms exceed the exact-enumeration limit "
            f"({MAX_SHAPLEY_PLAYERS - 1})"
        )
    n = env.oracle.n
    firm_masks = [sum(1 << (i - 1) for i in firm) for firm in firms]
    weights = [1.0 / (players * comb(players - 1, s)) for s in range(players)]

    # worth[m]: the firms in bitmask m over firm indices, with the intermediary;
    # each of the 2^F coalitions is read from the oracle once
    products = [0] * (1 << len(firms))
    for m in range(1, len(products)):
        low = m & -m
        products[m] = products[m ^ low] | firm_masks[low.bit_length() - 1]
    worth = [env.oracle(Portfolio(n, p)) for p in products]

    def mask(combo: tuple[int, ...]) -> int:
        return sum(1 << k for k in combo)

    indices = range(len(firms))
    fees: dict[frozenset[int], float] = {}
    for k in indices:
        others = [m for m in indices if m != k]
        total = 0.0
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                # coalitions without the intermediary add a gain of exactly
                # 0.0, which leaves the sum unchanged, so only those with it
                # are summed
                m = mask(combo)
                total += weights[size + 1] * (worth[m | 1 << k] - worth[m])
        fees[firms[k]] = total
    # the intermediary's own value, computed directly (not residually) so
    # that efficiency is a checkable property rather than a construction
    retailer_value = 0.0
    for size in range(len(firms) + 1):
        for combo in combinations(indices, size):
            retailer_value += weights[size] * worth[mask(combo)]  # w(S) = 0 without it
    return FeeSchedule("shapley", fees, retailer_value)
