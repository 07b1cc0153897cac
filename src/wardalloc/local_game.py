"""Local-financing regime: each hospital picks one ward type to make
excellent, patients split proportionally to district population, and the
predicted outcomes are the pure Nash equilibria of the resulting game."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InstanceTooLargeError, InvalidInstanceError
from .scenario import ScenarioInstance, _id_list, _payoff_table, check_assumption1, format_rational

# Most payoff entries (|R| ** |Q| profiles x |Q| payoffs each) the full payoff
# tensor may hold: memory and time grow with the entries, not the profiles.
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


def build_payoff_tensor(inst: ScenarioInstance) -> PayoffTensor:
    """Enumerate all |R| ** |Q| joint choices and their payoffs."""
    count = inst.num_wards**inst.num_hospitals
    entries = count * inst.num_hospitals
    if entries > PROFILE_ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"{count} joint profiles of {inst.num_hospitals} payoffs each "
            f"({entries} payoff entries) exceed the enumeration guard of "
            f"{PROFILE_ENUMERATION_CAP}"
        )
    ward_ids = inst.wards
    payoffs = {
        tuple(ward_ids[ri] for ri in combo): _split(inst, combo)
        for combo in itertools.product(range(inst.num_wards), repeat=inst.num_hospitals)
    }
    return PayoffTensor(hospitals=inst.hospitals, strategies=ward_ids, payoffs=payoffs)


@dataclass(frozen=True)
class EquilibriumReport:
    """Pure Nash equilibria of a payoff tensor, split by shape; tensor is the
    game they were found in."""

    equilibria: tuple[StrategyProfile, ...]
    tensor: PayoffTensor = field(repr=False, compare=False)

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
    return EquilibriumReport(tuple(equilibria), tensor)


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


def diversification_verdict(
    inst: ScenarioInstance, eq: EquilibriumReport | None = None
) -> DiversificationVerdict:
    """Verdict for the instance; eq, when given, is its equilibrium report
    and is not computed again."""
    report = check_assumption1(inst)
    if eq is None:
        eq = enumerate_pure_nash(build_payoff_tensor(inst))
    return DiversificationVerdict(
        assumption1_holds=report.holds,
        has_uniform_ne=bool(eq.uniform_equilibria),
        has_diversified_ne=bool(eq.diversified_equilibria),
    )


def _profile_entry(tensor: PayoffTensor, key: tuple[str, ...]) -> dict:
    values = tensor.payoffs[key]
    return {
        "profile": dict(zip(tensor.hospitals, key)),
        "payoffs": {
            h: format_rational(v) for h, v in zip(tensor.hospitals, values)
        },
    }


def equilibrium_report_to_dict(eq: EquilibriumReport, verdict: DiversificationVerdict) -> dict:
    """JSON-ready local-game report: profiles as hospital->ward mappings and
    payoffs as "num/den" strings."""
    tensor = eq.tensor
    doc = {
        "hospitals": list(tensor.hospitals),
        "strategies": list(tensor.strategies),
        "equilibria": [_profile_entry(tensor, p.wards) for p in eq.equilibria],
        "uniform_equilibria": [p.as_dict() for p in eq.uniform_equilibria],
        "diversified_equilibria": [p.as_dict() for p in eq.diversified_equilibria],
        "diversification": {
            "assumption1_holds": verdict.assumption1_holds,
            "has_uniform_equilibrium": verdict.has_uniform_ne,
            "has_diversified_equilibrium": verdict.has_diversified_ne,
            "matches_predicted_pattern": verdict.implication_holds,
        },
    }
    if len(tensor.payoffs) <= REPORT_TABLE_CAP:
        doc["payoff_table"] = [_profile_entry(tensor, key) for key in tensor.payoffs]
    return doc
