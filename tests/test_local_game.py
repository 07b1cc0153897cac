"""Local-financing game tests: payoffs, tensor enumeration, pure equilibria,
and the diversification verdict."""

import itertools
from fractions import Fraction

import pytest

from conftest import (
    RECEPTION_TABLE,
    lpt_choice,
    make_instance,
    small_denominator_instance,
    tie_heavy_instance,
)
from wardalloc import (
    PROFILES,
    DiversificationVerdict,
    InstanceTooLargeError,
    InvalidInstanceError,
    PayoffTensor,
    StrategyProfile,
    build_payoff_tensor,
    diversification_verdict,
    enumerate_pure_nash,
    equilibrium_report_to_dict,
    generate_scenario,
    local_game,
    payoff,
)


def profile_of(inst, *wards):
    return StrategyProfile(hospitals=inst.hospitals, wards=wards)


# ---------------------------------------------------------------------------
# payoffs


def test_payoff_single_hospital_takes_whole_group():
    inst = make_instance((120, 30), (Fraction(1),))
    assert payoff(inst, profile_of(inst, "r1")) == (120,)
    assert payoff(inst, profile_of(inst, "r2")) == (30,)


def test_payoff_three_way_split():
    inst = make_instance(
        (800, 100), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    )
    assert payoff(inst, profile_of(inst, "r1", "r1", "r1")) == (400, 200, 200)


def test_payoff_comparable_market_cells(comparable_market):
    inst = comparable_market
    assert payoff(inst, profile_of(inst, "r1", "r1")) == (250, 750)
    assert payoff(inst, profile_of(inst, "r1", "r2")) == (1000, 400)
    assert payoff(inst, profile_of(inst, "r2", "r1")) == (400, 1000)
    assert payoff(inst, profile_of(inst, "r2", "r2")) == (100, 300)


def test_payoff_rejects_mismatched_profile(comparable_market):
    foreign = StrategyProfile(hospitals=("a", "b"), wards=("r1", "r2"))
    with pytest.raises(InvalidInstanceError, match="profile"):
        payoff(comparable_market, foreign)
    with pytest.raises(InvalidInstanceError, match="unknown ward"):
        payoff(comparable_market, profile_of(comparable_market, "r1", "zz"))


def test_profile_shape_validation():
    with pytest.raises(InvalidInstanceError):
        StrategyProfile(hospitals=("a", "b"), wards=("r1",))
    with pytest.raises(InvalidInstanceError):
        StrategyProfile(hospitals=(), wards=())
    # a bare string would otherwise be split into one id per character
    for hospitals, wards, message in [
        ("ab", ("x", "y"), "profile hospitals: expected a list, got str"),
        (("a", "b"), "xy", "profile wards: expected a list, got str"),
        (None, ("x",), "profile hospitals: expected a list, got NoneType"),
        # the id rule every constructor shares
        (("a", "b"), (["x"], "y"), "profile wards: ids must be non-empty strings"),
        (("a", ""), ("x", "y"), "profile hospitals: ids must be non-empty strings"),
        (("a", "\ud800"), ("x", "y"), "profile hospitals: id '\\\\ud800' cannot be encoded as UTF-8"),
    ]:
        with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
            StrategyProfile(hospitals=hospitals, wards=wards)


def test_profile_uniformity():
    p = StrategyProfile(hospitals=("a", "b"), wards=("r1", "r1"))
    assert p.is_uniform
    q = StrategyProfile(hospitals=("a", "b"), wards=("r1", "r2"))
    assert not q.is_uniform
    assert q.as_dict() == {"a": "r1", "b": "r2"}


# ---------------------------------------------------------------------------
# tensor enumeration


def test_tensor_matches_pointwise_payoff():
    inst = generate_scenario(4, (2, 3))
    tensor = build_payoff_tensor(inst)
    assert len(tensor.payoffs) == 3**2
    for wards in itertools.product(inst.wards, repeat=2):
        assert tensor.payoffs[wards] == payoff(inst, profile_of(inst, *wards))


def test_tensor_shares_conserve_chosen_groups():
    inst = generate_scenario(9, (3, 3))
    tensor = build_payoff_tensor(inst)
    sizes = dict(zip(inst.wards, inst.group_sizes))
    for wards, values in tensor.payoffs.items():
        assert sum(values) == sum(sizes[w] for w in set(wards))


def test_tensor_scales_with_group_sizes():
    base = generate_scenario(2, (2, 2))
    scaled = make_instance(
        tuple(7 * s for s in base.group_sizes),
        base.population,
        hospitals=base.hospitals,
        wards=base.wards,
    )
    t0 = build_payoff_tensor(base)
    t1 = build_payoff_tensor(scaled)
    for key, values in t0.payoffs.items():
        assert t1.payoffs[key] == tuple(7 * v for v in values)
    e0 = enumerate_pure_nash(t0)
    e1 = enumerate_pure_nash(t1)
    assert [p.wards for p in e0.equilibria] == [p.wards for p in e1.equilibria]


def test_tensor_guard_rejects_huge_games():
    # 2 ** 20 joint profiles of 20 payoffs each cross the 6 * 10**6 guard
    inst = make_instance((5, 5), tuple(Fraction(1, 20) for _ in range(20)))
    with pytest.raises(InstanceTooLargeError, match="profiles"):
        build_payoff_tensor(inst)


def test_tensor_guard_counts_payoff_entries(monkeypatch):
    # 4 ** 4 = 256 profiles of 4 payoffs each: 1,024 entries
    monkeypatch.setattr("wardalloc.local_game.PROFILE_ENUMERATION_CAP", 1000)
    inst = make_instance((5, 6, 7, 8), tuple(Fraction(1, 4) for _ in range(4)))
    with pytest.raises(InstanceTooLargeError, match="256 joint profiles .*1024 payoff"):
        build_payoff_tensor(inst)


def test_tensor_rejects_keys_outside_the_strategy_product():
    keys = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    with pytest.raises(InvalidInstanceError, match="not a profile of the strategies"):
        PayoffTensor(
            hospitals=("a", "b"),
            strategies=("a", "b"),
            payoffs={k: (Fraction(1), Fraction(1)) for k in keys},
        )


def test_tensor_rejects_repeated_strategies():
    with pytest.raises(InvalidInstanceError, match="strategies must be distinct"):
        PayoffTensor(
            hospitals=("q",),
            strategies=("a", "a"),
            payoffs={("a",): (Fraction(1),), ("b",): (Fraction(2),)},
        )


def test_tensor_rejects_repeated_hospitals():
    keys = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    with pytest.raises(InvalidInstanceError, match="hospitals must be distinct"):
        PayoffTensor(
            hospitals=("a", "a"),
            strategies=("x", "y"),
            payoffs={k: (Fraction(1), Fraction(1)) for k in keys},
        )


def test_tensor_rejects_no_hospitals():
    # the strategy product of no hospitals is the one empty profile
    with pytest.raises(InvalidInstanceError, match="hospitals must be .*non-empty"):
        PayoffTensor(hospitals=(), strategies=("x", "y"), payoffs={(): ()})


def test_tensor_rejects_no_strategies():
    with pytest.raises(InvalidInstanceError, match="strategies must be .*non-empty"):
        PayoffTensor(hospitals=("a", "b"), strategies=(), payoffs={})


@pytest.mark.parametrize(
    "hospitals, strategies, named",
    [("ab", ("x", "y"), "hospitals"), (("a", "b"), "xy", "strategies"), (3, ("x",), "hospitals")],
    ids=["hospitals", "strategies", "int"],
)
def test_tensor_rejects_ids_not_in_a_list(hospitals, strategies, named):
    keys = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    with pytest.raises(InvalidInstanceError, match=f"^payoff tensor {named}: expected a list"):
        PayoffTensor(
            hospitals=hospitals,
            strategies=strategies,
            payoffs={k: (Fraction(1), Fraction(1)) for k in keys},
        )


# read as numbers the only equilibrium is ('x', 'x'); compared as text,
# "2" > "10" and it would be ('x', 'y')
AS_TEXT = {
    ("x", "x"): ("9", "10"),
    ("x", "y"): ("10", "2"),
    ("y", "x"): ("1", "1"),
    ("y", "y"): ("1", "1"),
}
ONE_HOSPITAL = {"hospitals": ("a",), "strategies": ("x", "y")}


@pytest.mark.parametrize(
    "hospitals, strategies, payoffs, message",
    [
        (("a", "b"), ("x", "y"), AS_TEXT,
         r"payoff tensor payoffs\[\('x', 'x'\)\]\[0\]: expected an int or a Fraction, got str"),
        *[
            (*ONE_HOSPITAL.values(), {("x",): (value,), ("y",): (1,)},
             rf"payoff tensor payoffs\[\('x',\)\]\[0\]: expected an int or a Fraction, got {kind}")
            for value, kind in [(1.5, "float"), (True, "bool"), (None, "NoneType")]
        ],
        (*ONE_HOSPITAL.values(), {("x",): (10**4300,), ("y",): (1,)},
         r"payoff tensor payoffs\[\('x',\)\]\[0\]: more than 4300 digits"),
        (*ONE_HOSPITAL.values(), [(("x",), (1,)), (("y",), (1,))],
         "payoff tensor payoffs: expected a dict, got list"),
        (*ONE_HOSPITAL.values(), {5: (1,), ("y",): (1,)},
         "payoff tensor key 5: expected a list, got int"),
        (*ONE_HOSPITAL.values(), {("x",): 5, ("y",): (1,)},
         r"payoff tensor payoffs\[\('x',\)\]: expected a list, got int"),
        (("a",), ("x", ["y"]), {("x",): (1,)},
         "payoff tensor strategies: ids must be non-empty strings"),
        (("",), ("x", "y"), {("x",): (1,), ("y",): (1,)},
         "payoff tensor hospitals: ids must be non-empty strings"),
    ],
    ids=["text", "float", "bool", "none", "too-long", "list-table", "int-key", "int-row",
         "list-strategy", "empty-hospital"],
)
def test_tensor_takes_ids_and_exact_payoffs_only(hospitals, strategies, payoffs, message):
    with pytest.raises(InvalidInstanceError, match=f"^{message}"):
        PayoffTensor(hospitals=hospitals, strategies=strategies, payoffs=payoffs)


def test_tensor_compares_payoffs_as_numbers():
    numbers = {key: tuple(map(int, values)) for key, values in AS_TEXT.items()}
    tensor = PayoffTensor(hospitals=("a", "b"), strategies=("x", "y"), payoffs=numbers)
    assert tensor.payoffs is numbers  # checked in place, not copied
    assert [p.wards for p in enumerate_pure_nash(tensor).equilibria] == [("x", "x")]


def test_tensor_validates_entry_count():
    with pytest.raises(InvalidInstanceError, match="tensor"):
        PayoffTensor(
            hospitals=("a", "b"),
            strategies=("x", "y"),
            payoffs={("x", "x"): (Fraction(1), Fraction(1))},
        )


def test_tensor_validates_arity():
    keys = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    payoffs = {k: (Fraction(1),) for k in keys}
    with pytest.raises(InvalidInstanceError, match="expected 2 entries, got 1"):
        PayoffTensor(hospitals=("a", "b"), strategies=("x", "y"), payoffs=payoffs)


# ---------------------------------------------------------------------------
# equilibria


def test_reception_game_equilibria(reception_game):
    report = enumerate_pure_nash(reception_game)
    found = {p.wards for p in report.equilibria}
    assert found == {("SW", "WC"), ("WC", "SW")}
    assert report.uniform_equilibria == ()
    assert len(report.diversified_equilibria) == 2


def test_reception_game_payoffs(reception_game):
    for key, (a, b) in RECEPTION_TABLE.items():
        assert reception_game.payoffs[key] == (a, b)
    assert reception_game.payoffs[("SW", "SC")] == (57, 43)


def test_comparable_market_equilibrium(comparable_market):
    # the larger group is worth sharing: the only stable profile sends the
    # high-population hospital to the big group and the other one away
    report = enumerate_pure_nash(build_payoff_tensor(comparable_market))
    assert [p.wards for p in report.equilibria] == [("r2", "r1")]
    assert report.uniform_equilibria == ()


def test_lopsided_market_equilibrium(lopsided_market):
    # the small group is negligible, so both cluster on the big one
    report = enumerate_pure_nash(build_payoff_tensor(lopsided_market))
    assert [p.wards for p in report.equilibria] == [("r1", "r1")]
    assert report.uniform_equilibria == report.equilibria


def test_equilibria_deviation_closure():
    # every reported equilibrium is deviation-proof and every non-equilibrium
    # has a strictly improving unilateral deviation, checked from scratch
    for seed, dims in [(0, (2, 3)), (1, (3, 2)), (2, (2, 2)), (3, (3, 3))]:
        inst = generate_scenario(seed, dims)
        tensor = build_payoff_tensor(inst)
        report = enumerate_pure_nash(tensor)
        stable = {p.wards for p in report.equilibria}
        for key in tensor.payoffs:
            improvable = False
            for qi in range(len(inst.hospitals)):
                for alt in inst.wards:
                    if alt == key[qi]:
                        continue
                    deviated = key[:qi] + (alt,) + key[qi + 1 :]
                    if tensor.payoffs[deviated][qi] > tensor.payoffs[key][qi]:
                        improvable = True
            assert improvable == (key not in stable)


def test_equilibrium_split_by_shape():
    inst = generate_scenario(14, (2, 2))
    report = enumerate_pure_nash(build_payoff_tensor(inst))
    assert set(report.equilibria) == set(
        report.uniform_equilibria + report.diversified_equilibria
    )
    for p in report.uniform_equilibria:
        assert p.is_uniform
    for p in report.diversified_equilibria:
        assert not p.is_uniform


# ---------------------------------------------------------------------------
# diversification verdict


def test_verdict_comparable_market(comparable_market):
    v = diversification_verdict(comparable_market)
    assert v == DiversificationVerdict(
        assumption1_holds=True, has_uniform_ne=False, has_diversified_ne=True
    )
    assert v.implication_holds


def test_verdict_lopsided_market(lopsided_market):
    v = diversification_verdict(lopsided_market)
    assert v.assumption1_holds is False
    assert v.has_uniform_ne is True
    assert v.has_diversified_ne is False
    # the balance condition fails, so the prediction claims nothing
    assert v.implication_holds


def test_verdict_flags_violations():
    broken = DiversificationVerdict(
        assumption1_holds=True, has_uniform_ne=True, has_diversified_ne=True
    )
    assert not broken.implication_holds
    missing = DiversificationVerdict(
        assumption1_holds=True, has_uniform_ne=False, has_diversified_ne=False
    )
    assert not missing.implication_holds


LOCAL_GAME_SAMPLES = {
    "generated": [
        generate_scenario(seed, dims, profile)
        for seed in range(3)
        for dims in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
        for profile in PROFILES
    ],
    "tie-heavy": [tie_heavy_instance(seed) for seed in range(400)],
    "small-denominators": [small_denominator_instance(seed) for seed in range(700)],
    # acceptance 04's balanced markets over its seeds, and 6x2 as in the
    # two-ward test: both judge the game by the verdict alone
    "balanced": [
        generate_scenario(seed, dims, "assumption1-satisfying")
        for seed in range(90)
        for dims in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (6, 2)]
    ],
}


@pytest.mark.parametrize("family", LOCAL_GAME_SAMPLES)
def test_closed_form_and_lpt_match_the_enumeration(family):
    # the local game is load balancing on related machines: ward r has speed
    # G_r and hospital q weight p_q, so the verdict has a closed form and LPT
    # (see conftest) reaches an equilibrium; the enumeration is the oracle
    both = 0
    for inst in LOCAL_GAME_SAMPLES[family]:
        groups, shares = inst.group_sizes, inst.population
        tensor = build_payoff_tensor(inst)
        eq = enumerate_pure_nash(tensor)
        expected = (bool(eq.uniform_equilibria), bool(eq.diversified_equilibria))
        verdict = diversification_verdict(inst)
        got = (verdict.has_uniform_ne, verdict.has_diversified_ne)
        assert got == expected, (groups, shares)
        # the report's own search lists the same equilibria, in table order
        doc = equilibrium_report_to_dict(inst)
        assert (
            [
                (tuple(e["profile"].values()), tuple(map(Fraction, e["payoffs"].values())))
                for e in doc["equilibria"]
            ],
            doc["uniform_equilibria"],
            doc["diversified_equilibria"],
        ) == (
            [(p.wards, tensor.payoffs[p.wards]) for p in eq.equilibria],
            [p.as_dict() for p in eq.uniform_equilibria],
            [p.as_dict() for p in eq.diversified_equilibria],
        ), (groups, shares)
        lpt = tuple(inst.wards[r] for r in lpt_choice(groups, shares))
        assert lpt in {p.wards for p in eq.equilibria}, (groups, shares)
        both += all(got)
    # the sample reaches the hard case
    assert both or family in ("generated", "balanced")


def test_two_ward_prediction_holds_at_any_number_of_hospitals():
    # with wards r and s, assumption 1 gives G_s > G_r * min p, so the
    # smallest hospital leaves "everyone on r" for the empty ward s; a pure
    # equilibrium exists (related machines), so it is diversified. The
    # enumeration is the oracle, and the verdict must agree with it
    generated = [
        generate_scenario(seed, (nq, 2), "assumption1-satisfying")
        for nq in range(2, 7)
        for seed in range(40)
    ]
    tied = [
        small_denominator_instance(seed, (0, 1, 2, 3, 4, 6, 12, 100), wards=2)
        for seed in range(1000)
    ]
    held = 0
    for inst in generated + tied:
        verdict = diversification_verdict(inst)
        if verdict.assumption1_holds:
            held += 1
            eq = enumerate_pure_nash(build_payoff_tensor(inst))
            got = (bool(eq.uniform_equilibria), bool(eq.diversified_equilibria))
            assert got == (False, True), (inst.group_sizes, inst.population)
            assert (verdict.has_uniform_ne, verdict.has_diversified_ne) == got
    assert held > len(generated)  # every generated market, and tie-heavy ones


def test_verdict_at_central_sizes_never_builds_the_game(monkeypatch):
    # the closed form reads the instance alone, so it decides markets whose
    # payoff tensor the enumeration guard refuses (30x20) or takes seconds
    # to build (6x8)
    def refuse(*args):
        raise AssertionError("the verdict built or searched the payoff tensor")

    monkeypatch.setattr(local_game, "build_payoff_tensor", refuse)
    monkeypatch.setattr(local_game, "enumerate_pure_nash", refuse)
    for dims in [(10, 10), (20, 10), (30, 20)]:
        for seed in range(3):
            verdict = diversification_verdict(
                generate_scenario(seed, dims, "assumption1-satisfying")
            )
            assert verdict.assumption1_holds, (seed, dims)
    # the enumeration's own answer at 6x8, seed 0 (about 16 s to enumerate)
    v = diversification_verdict(generate_scenario(0, (6, 8), "assumption1-satisfying"))
    assert (v.assumption1_holds, v.has_uniform_ne, v.has_diversified_ne) == (True, False, True)


def test_verdict_with_a_passing_ward_at_central_sizes():
    # r1 passes (1000 / 30 >= 1), so each of the 30 x 19 profiles with one
    # hospital moved off r1 is checked; every one of them is unstable
    inst = make_instance((1000,) + (1,) * 19, (Fraction(1, 30),) * 30)
    v = diversification_verdict(inst)
    assert (v.assumption1_holds, v.has_uniform_ne, v.has_diversified_ne) == (True, True, False)


# dims -> seeds of the balanced markets scanned below, desk to central sizes
PREDICTION_SCAN = {
    (2, 2): 100, (5, 2): 100, (30, 2): 10,
    (2, 3): 100, (2, 4): 100, (3, 3): 100, (4, 3): 100, (5, 5): 100, (8, 6): 100,
    (10, 10): 30, (20, 10): 30, (30, 20): 10,
}


def test_local_prediction_on_balanced_markets_up_to_central_sizes(capsys):
    # acceptance 04's check carried to central sizes by the closed form: with
    # two wards the prediction is a theorem and is asserted; with three or
    # more a counterexample is logged as a NOTE line, not asserted
    wide, counterexamples = 0, []
    for dims, seeds in PREDICTION_SCAN.items():
        for seed in range(seeds):
            v = diversification_verdict(generate_scenario(seed, dims, "assumption1-satisfying"))
            assert v.assumption1_holds, (seed, dims)
            got = (v.has_uniform_ne, v.has_diversified_ne)
            if dims[1] == 2:  # the closed form matches the game up to 6x2
                assert got == (False, True), (seed, dims)
                continue
            wide += 1
            if got != (False, True):
                counterexamples.append((dims, seed, got))
    with capsys.disabled():
        for dims, seed, (uniform, diversified) in counterexamples:
            print(
                f"[local prediction] NOTE - logged counterexample at dims {dims} "
                f"seed {seed}: uniform={uniform} diversified={diversified}",
                flush=True,
            )
        print(
            f"[local prediction] {len(counterexamples)} counterexample(s) among "
            f"{wide} balanced markets with three or more wards",
            flush=True,
        )


# ---------------------------------------------------------------------------
# report document


def test_report_dict_shape(comparable_market):
    doc = equilibrium_report_to_dict(comparable_market)
    assert doc["hospitals"] == ["q1", "q2"]
    assert doc["strategies"] == ["r1", "r2"]
    assert doc["equilibria"] == [
        {
            "profile": {"q1": "r2", "q2": "r1"},
            "payoffs": {"q1": "400/1", "q2": "1000/1"},
        }
    ]
    assert doc["diversification"]["matches_predicted_pattern"] is True
    assert len(doc["payoff_table"]) == 4


def test_report_dict_omits_large_table():
    inst = make_instance(
        tuple(200 + i for i in range(6)),
        tuple(Fraction(1, 4) for _ in range(4)),
    )
    doc = equilibrium_report_to_dict(inst)
    # 6 ** 4 = 1296 profiles exceed the embedded-table cap
    assert "payoff_table" not in doc
