"""Local-financing regime: each hospital picks one ward type to make
excellent, patients split proportionally to district population, and the
predicted outcomes are the pure Nash equilibria of the resulting game."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InstanceTooLargeError, InvalidInstanceError
from .scenario import ScenarioInstance, _id_list, _payoff_table, check_assumption1, format_rational

# Most payoff entries (|R| ** |Q| profiles x |Q| payoffs each) a search may
# cover: search time and tensor memory grow with the entries, not the profiles.
PROFILE_ENUMERATION_CAP = 6 * 10**6

# Full payoff tables are embedded in JSON reports only up to this many profiles.
REPORT_TABLE_CAP = 1024


@dataclass(frozen=True)
class StrategyProfile:
    """One joint choice: ward picked by each hospital, index-aligned."""

    hospitals: tuple[str, ...]
    wards: tuple[str, ...]

    def __post_init__(self):
        for name in ("hospitals", "wards"):
            ids = _id_list(getattr(self, name), f"profile {name}")
            object.__setattr__(self, name, tuple(ids))
        if len(self.hospitals) != len(self.wards) or not self.hospitals:
            raise InvalidInstanceError(
                "profile must assign exactly one ward to every hospital"
            )

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.hospitals, self.wards))

    @property
    def is_uniform(self) -> bool:
        """True when every hospital picked the same ward type."""
        return len(set(self.wards)) == 1


@dataclass
class PayoffTensor:
    """Payoffs of the full game: one entry per joint strategy choice.

    payoffs maps the tuple of chosen strategies (aligned with hospitals) to
    the tuple of hospital payoffs. strategies lists the choices available to
    every hospital; for instance-built tensors they are the ward ids.
    """

    hospitals: tuple[str, ...]
    strategies: tuple[str, ...]
    payoffs: dict[tuple[str, ...], tuple[Fraction, ...]]

    def __post_init__(self):
        for name, ids in (("hospitals", self.hospitals), ("strategies", self.strategies)):
            if not _id_list(ids, f"payoff tensor {name}") or len(set(ids)) != len(ids):
                raise InvalidInstanceError(
                    f"payoff tensor {name} must be distinct and non-empty, got {ids!r}"
                )
        nq, allowed = len(self.hospitals), set(self.strategies)
        _payoff_table(self.payoffs, "payoff tensor payoffs", nq)
        # the keys are distinct, so the right count of keys drawn from the
        # strategies is exactly the strategy product
        expected = len(self.strategies) ** nq
        if len(self.payoffs) != expected:
            raise InvalidInstanceError(
                f"payoff tensor must hold exactly {expected} profiles, "
                f"got {len(self.payoffs)}"
            )
        for key in self.payoffs:
            if not allowed.issuperset(_id_list(key, f"payoff tensor key {key!r}", nq)):
                raise InvalidInstanceError(
                    f"payoff tensor entry {key!r} is not a profile of the "
                    f"strategies {self.strategies!r}"
                )


def _split(inst: ScenarioInstance, choice: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Payoffs of one joint choice given as ward indices: hospitals that pick
    the same ward split its group in proportion to their populations."""
    pop = inst.population
    chooser_pop = {}
    for qi, ri in enumerate(choice):
        chooser_pop[ri] = chooser_pop.get(ri, Fraction(0)) + pop[qi]
    return tuple(
        inst.group_sizes[ri] * pop[qi] / chooser_pop[ri] for qi, ri in enumerate(choice)
    )


def payoff(inst: ScenarioInstance, profile: StrategyProfile) -> tuple[Fraction, ...]:
    """Patient capture for one joint choice.

    A hospital choosing ward r takes the whole group when it chooses alone;
    hospitals sharing a choice split the group proportionally to their
    district population fractions.
    """
    if profile.hospitals != inst.hospitals:
        raise InvalidInstanceError("profile hospitals do not match the instance")
    return _split(inst, tuple(inst.ward_index(w) for w in profile.wards))


def _choices(inst: ScenarioInstance):
    """Every joint choice as ward indices, in table order, under the guard."""
    count = inst.num_wards**inst.num_hospitals
    entries = count * inst.num_hospitals
    if entries > PROFILE_ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"{count} joint profiles of {inst.num_hospitals} payoffs each "
            f"({entries} payoff entries) exceed the enumeration guard of "
            f"{PROFILE_ENUMERATION_CAP}"
        )
    return itertools.product(range(inst.num_wards), repeat=inst.num_hospitals)


def build_payoff_tensor(inst: ScenarioInstance) -> PayoffTensor:
    """Enumerate all |R| ** |Q| joint choices and their payoffs."""
    ward_ids = inst.wards
    payoffs = {
        tuple(ward_ids[ri] for ri in combo): _split(inst, combo) for combo in _choices(inst)
    }
    return PayoffTensor(hospitals=inst.hospitals, strategies=ward_ids, payoffs=payoffs)


@dataclass(frozen=True)
class EquilibriumReport:
    """Pure Nash equilibria of a payoff tensor, split by shape."""

    equilibria: tuple[StrategyProfile, ...]

    @property
    def uniform_equilibria(self) -> tuple[StrategyProfile, ...]:
        return tuple(p for p in self.equilibria if p.is_uniform)

    @property
    def diversified_equilibria(self) -> tuple[StrategyProfile, ...]:
        return tuple(p for p in self.equilibria if not p.is_uniform)


def enumerate_pure_nash(tensor: PayoffTensor) -> EquilibriumReport:
    """Exhaustive weak-equilibrium search with exact comparisons.

    A profile survives when no hospital has a strictly better unilateral
    deviation.
    """
    payoffs = tensor.payoffs
    equilibria = (
        StrategyProfile(hospitals=tensor.hospitals, wards=key)
        for key, values in payoffs.items()
        if not any(
            payoffs[key[:qi] + (alt,) + key[qi + 1 :]][qi] > values[qi]
            for qi in range(len(key))
            for alt in tensor.strategies
            if alt != key[qi]
        )
    )
    return EquilibriumReport(tuple(equilibria))


@dataclass(frozen=True)
class DiversificationVerdict:
    """Does the market satisfy the balance condition, and do the equilibria
    show the diversified pattern it predicts?"""

    assumption1_holds: bool
    has_uniform_ne: bool
    has_diversified_ne: bool

    @property
    def implication_holds(self) -> bool:
        """Balance condition => no uniform equilibrium and at least one
        diversified equilibrium."""
        if not self.assumption1_holds:
            return True
        return not self.has_uniform_ne and self.has_diversified_ne


def _weights(inst: ScenarioInstance) -> list[int]:
    """Population shares as integers in the same ratios (over their common denominator)."""
    den = math.lcm(*(p.denominator for p in inst.population))
    return [p.numerator * (den // p.denominator) for p in inst.population]


def _stable(groups, weights, choice) -> bool:
    """No hospital of the joint choice (a ward index per hospital) gains
    strictly by moving: q on ward a, where the weights on a sum to W_a, stays
    iff G_a * (W_b + p_q) >= G_b * W_a for every other ward b."""
    load = [0] * len(groups)
    for p, a in zip(weights, choice):
        load[a] += p
    return all(
        groups[a] * (load[b] + p) >= groups[b] * load[a]
        for p, a in zip(weights, choice)
        for b in range(len(groups))
        if b != a
    )


def diversification_verdict(inst: ScenarioInstance) -> DiversificationVerdict:
    """Verdict for the instance in closed form, without the payoff tensor: the
    game is load balancing on related machines (ward speed G_r, hospital
    weight p_q), so a pure equilibrium exists. Ward r passes when "everyone
    on r" is stable. With a passing r, a diversified equilibrium exists iff
    one with a single hospital q off r, on s, does."""
    groups, weights = inst.group_sizes, _weights(inst)
    nq, nr = len(weights), len(groups)
    passing = [r for r in range(nr) if _stable(groups, weights, [r] * nq)]
    diversified = nq > 1 and (not passing or any(
        _stable(groups, weights, [s if i == q else r for i in range(nq)])
        for r in passing for q in range(nq) for s in range(nr) if s != r
    ))
    return DiversificationVerdict(check_assumption1(inst).holds, bool(passing), diversified)


def equilibrium_report_to_dict(inst: ScenarioInstance) -> dict:
    """JSON-ready local-game report: the instance's pure equilibria in table
    order, found by the verdict's stability rule with no payoff tensor;
    profiles as hospital->ward mappings and payoffs as "num/den" strings."""
    hospitals, wards, weights = inst.hospitals, inst.wards, _weights(inst)

    def profile(choice):
        return {h: wards[r] for h, r in zip(hospitals, choice)}

    def entry(choice):
        return {
            "profile": profile(choice),
            "payoffs": {h: format_rational(v) for h, v in zip(hospitals, _split(inst, choice))},
        }

    equilibria = [c for c in _choices(inst) if _stable(inst.group_sizes, weights, c)]
    verdict = diversification_verdict(inst)
    doc = {
        "hospitals": list(hospitals),
        "strategies": list(wards),
        "equilibria": [entry(c) for c in equilibria],
        "uniform_equilibria": [profile(c) for c in equilibria if len(set(c)) == 1],
        "diversified_equilibria": [profile(c) for c in equilibria if len(set(c)) > 1],
        "diversification": {
            "assumption1_holds": verdict.assumption1_holds,
            "has_uniform_equilibrium": verdict.has_uniform_ne,
            "has_diversified_equilibrium": verdict.has_diversified_ne,
            "matches_predicted_pattern": verdict.implication_holds,
        },
    }
    if inst.num_wards**inst.num_hospitals <= REPORT_TABLE_CAP:
        doc["payoff_table"] = [entry(c) for c in _choices(inst)]
    return doc
