"""Data model tests: integer splits, demand cells, assumption checkers,
seeded generation, and the JSON scenario format."""

import copy
import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_instance,
    minimax_split,
    reference_a1_failures,
    reference_assumption4,
    reference_rationals,
    reference_split,
    tie_heavy_instance,
)
from wardalloc import (
    GenerationError,
    InstanceTooLargeError,
    InvalidInstanceError,
    ScenarioInstance,
    all_assumptions,
    check_assumption1,
    check_assumption2,
    check_assumption3,
    check_assumption4,
    check_assumption5,
    dumps_scenario,
    format_rational,
    generate_scenario,
    instance_from_dict,
    instance_to_dict,
    largest_remainder_split,
    load_scenario,
    parse_rational,
    save_scenario,
    scenario,
)
from wardalloc.central_plan import evaluate_Z, export_ilp, greedy_solve
from wardalloc.cli import main
from wardalloc.scenario import PROFILES, _a1_failures

THIRDS = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


# ---------------------------------------------------------------------------
# rational parsing


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational(Fraction(1, 7)) == Fraction(1, 7)


@pytest.mark.parametrize("bad", [True, 1.5, None, "x/y", "1/0", [1]])
def test_parse_rational_rejects(bad):
    with pytest.raises(InvalidInstanceError):
        parse_rational(bad, "field")


def test_parse_rational_names_field():
    with pytest.raises(InvalidInstanceError, match="budget"):
        parse_rational("nope", "budget")


@pytest.mark.parametrize(
    "text", ["1e999999999", "1E400000", "2e-4301", "1e+4301", "1e4_301", "5.5E0004301"]
)
def test_load_rejects_huge_decimal_exponents(text):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["excel_cost"][1][0] = text
    with pytest.raises(InvalidInstanceError, match=r"excel_cost\[1\]\[0\]: decimal exponent"):
        instance_from_dict(doc)


def test_parse_rational_keeps_bounded_decimal_exponents():
    assert parse_rational("1.5e3") == 1500
    assert parse_rational("25E-2") == Fraction(1, 4)
    # the exponent bound itself is allowed when the value prints
    assert parse_rational("0.01e4_300") == 10**4298
    assert parse_rational("1e4_299") == 10**4299


@pytest.mark.parametrize(
    "value",
    [10**4300, -(10**4300), Fraction(1, 10**4300), Fraction(10**4300 + 1, 3), "1e4300",
     "-1e-4300", "123.4e4298"],
    ids=["10^4300", "-10^4300", "1/10^4300", "(10^4300+1)/3", "1e4300", "-1e-4300",
         "123.4e4298"],
)
def test_parse_rational_rejects_values_too_long_to_print(value):
    with pytest.raises(InvalidInstanceError, match=r"^field: more than 4300 digits"):
        parse_rational(value, "field")


def test_parse_rational_keeps_the_longest_printable_values():
    for value in (10**4300 - 1, -(10**4300 - 1), Fraction(1, 10**4300 - 1)):
        assert parse_rational(value) == value
        assert parse_rational(format_rational(value)) == value


def parsed_by_fraction(text):
    """What parse_rational makes of a string that has no exponent, by way of
    Fraction(str): the value, or the error message for field "f"."""
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"f: cannot parse rational {text!r}"
    if max(abs(x.numerator), x.denominator) >= 10**4300:
        return "f: more than 4300 digits in the numerator or denominator, too long to print"
    return x


def parsed(text):
    try:
        return parse_rational(text, "f")
    except InvalidInstanceError as exc:
        return str(exc)


LONGEST = "9" * 4300  # the most digits a value may have


@pytest.mark.parametrize(
    "text",
    ["3/ 4", " 3/4", "3/4 ", "+3/4", "-3/4", "3/-4", "3/+4", "3_0/4", "3/4_0", "٣/4", "3/٤",
     "²/4", "0/00", "3/0", "0/1", "03/04", "3/4/5", "3//4", "3/", "/4", "/", "3.5/4", "3",
     LONGEST + "/7", "7/" + LONGEST, LONGEST + "/" + LONGEST, "9" + LONGEST + "/7",
     "7/9" + LONGEST, "0" + LONGEST + "/7", "1" + "0" * 4300 + "/10"],
    ids=lambda text: text if len(text) < 12 else f"{len(text)} chars",
)
def test_plain_fractions_parse_as_fraction_str_does(text):
    # "n/d" strings of ASCII digits are parsed as two ints; every string
    # gives Fraction(str)'s value, or the same message
    assert parsed(text) == parsed_by_fraction(text)


def test_plain_fraction_digit_bounds():
    assert parse_rational(LONGEST + "/7") == Fraction(int(LONGEST), 7)
    with pytest.raises(InvalidInstanceError, match=r"^f: cannot parse rational '9{4301}/7'$"):
        parse_rational("9" + LONGEST + "/7", "f")


@given(st.text(alphabet="0123456789/ +-_.٣²", max_size=10))
@settings(max_examples=400, deadline=None)
def test_any_fraction_string_parses_as_fraction_str_does(text):
    assert parsed(text) == parsed_by_fraction(text)


def test_format_rational_round_trips():
    for x in (Fraction(3, 4), Fraction(5), Fraction(-7, 2), Fraction(0)):
        assert parse_rational(format_rational(x)) == x


def test_format_rational_refuses_a_value_too_long_to_write():
    with pytest.raises(InstanceTooLargeError, match="too long to write"):
        format_rational(Fraction(10**4300))


# ---------------------------------------------------------------------------
# integer splits


def test_split_equal_thirds():
    assert largest_remainder_split(7, THIRDS) == [3, 2, 2]


def test_split_exact_quotas():
    quarters = (Fraction(1, 4), Fraction(3, 4))
    assert largest_remainder_split(1000, quarters) == [250, 750]
    assert largest_remainder_split(400, quarters) == [100, 300]


def test_split_zero_total():
    assert largest_remainder_split(0, THIRDS) == [0, 0, 0]


@pytest.mark.parametrize(
    "total,shares",
    [
        (10, (Fraction(1, 3), Fraction(1, 3))),
        (10, (Fraction(2, 3), Fraction(2, 3))),
        (10, (Fraction(-1, 2), Fraction(3, 2))),
        (-5, (Fraction(1, 2), Fraction(1, 2))),
        (Fraction(5, 2), (Fraction(1, 2), Fraction(1, 2))),
        (True, (Fraction(1),)),
        (10, (float("nan"), 0.5)),
        (10, (float("inf"), 0.5)),
        (10, (float("-inf"), 0.5)),
        (10, ("1/2", "1/2")),
        (10, (None, Fraction(1))),
        (10, None),
    ],
)
def test_split_rejects_what_it_cannot_split_exactly(total, shares):
    # each of these once came back with parts that do not sum to the total
    # or with negative parts, or raised TypeError (a string, None); NaN and
    # the infinities have no integer ratio
    with pytest.raises(InvalidInstanceError):
        largest_remainder_split(total, shares)


@pytest.mark.parametrize(
    "total,weights",
    [
        (7, (1, 1, 1)),
        (10, (1, 3, 2)),
        (13, (2, 4, 1)),
        (1, (9, 1)),
        (3, (1, 1)),
        (17, (5, 2, 2, 5)),
        # equal smallest shares and equal remainders
        (5, (1, 1, 2, 2)),
        (7, (1, 1, 1, 1, 1, 1)),
        (0, (3,)),
        (9, (2, 1, 1, 2)),
    ],
)
def test_split_matches_minimax_enumeration(total, weights):
    shares = [Fraction(w, sum(weights)) for w in weights]
    assert largest_remainder_split(total, shares) == minimax_split(total, shares)


@given(
    weights=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    total=st.integers(0, 25),
)
@settings(max_examples=200, deadline=None)
def test_split_minimax_property(weights, total):
    shares = [Fraction(w, sum(weights)) for w in weights]
    split = largest_remainder_split(total, shares)
    assert sum(split) == total
    assert all(c >= 0 for c in split)
    assert split == minimax_split(total, shares)


# ---------------------------------------------------------------------------
# demand cells


def test_demand_cells_ward_major_remainders_to_lowest_index():
    inst = make_instance((7, 2), (Fraction(1, 2), Fraction(1, 2)))
    cells = inst.demand_cells()
    assert [(c.district, c.ward, c.count) for c in cells] == [
        ("q1", "r1", 4),
        ("q2", "r1", 3),
        ("q1", "r2", 1),
        ("q2", "r2", 1),
    ]


def test_demand_cells_of_instance(comparable_market):
    cells = comparable_market.demand_cells()
    assert [(c.district, c.ward, c.count) for c in cells] == [
        ("q1", "r1", 250),
        ("q2", "r1", 750),
        ("q1", "r2", 100),
        ("q2", "r2", 300),
    ]


def test_demand_cells_conserve_groups():
    for seed in range(10):
        inst = generate_scenario(seed, (3, 4))
        by_ward = {r: 0 for r in inst.wards}
        for cell in inst.demand_cells():
            by_ward[cell.ward] += cell.count
        assert tuple(by_ward[r] for r in inst.wards) == inst.group_sizes


def test_demand_cells_reject_bad_population():
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5,), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5,), (), hospitals=("q1",))


def test_demand_cells_reject_bad_sizes():
    with pytest.raises(InvalidInstanceError, match="group_sizes"):
        make_instance((-1,), (Fraction(1),))
    with pytest.raises(InvalidInstanceError, match="group_sizes"):
        make_instance((True,), (Fraction(1),))


# ---------------------------------------------------------------------------
# instance validation


def test_instance_rejects_population_sum():
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5, 5), (Fraction(1, 2), Fraction(2, 5)))


def test_instance_rejects_nonpositive_population():
    with pytest.raises(InvalidInstanceError, match="population"):
        make_instance((5, 5), (Fraction(0), Fraction(1)))


def test_instance_rejects_duplicate_ids():
    with pytest.raises(InvalidInstanceError, match="hospitals"):
        make_instance(
            (5, 5), (Fraction(1, 2), Fraction(1, 2)), hospitals=("a", "a")
        )


@pytest.mark.parametrize(
    "field, value",
    [("hospitals", "ab"), ("wards", "r1"), ("group_sizes", 5)],
)
def test_instance_rejects_fields_that_are_not_lists(field, value):
    kwargs = instance_to_dict(generate_scenario(0, (2, 2)))
    del kwargs["schema"]
    kwargs[field] = value
    with pytest.raises(InvalidInstanceError, match=f"^{field}: expected a list"):
        ScenarioInstance(**kwargs)


def test_instance_rejects_negative_cost():
    with pytest.raises(InvalidInstanceError, match=r"excel_cost\[1\]\[0\]"):
        make_instance(
            (5, 5),
            (Fraction(1, 2), Fraction(1, 2)),
            excel=[[1, 1], [-1, 1]],
        )


def test_instance_names_the_first_bad_element():
    # the sign of out_cost[0][0] is checked before out_cost[0][1] is parsed
    with pytest.raises(InvalidInstanceError) as info:
        make_instance((5, 5), (Fraction(1),), out=[["-1", "abc"]])
    assert str(info.value) == "out_cost[0][0]: must be non-negative, got -1"


def test_instance_rejects_ragged_matrix():
    with pytest.raises(InvalidInstanceError, match="out_cost"):
        make_instance(
            (5, 5),
            (Fraction(1, 2), Fraction(1, 2)),
            out=[[1, 2], [3]],
        )


def test_instance_rejects_negative_budget():
    with pytest.raises(InvalidInstanceError, match="budget"):
        make_instance((5,), (Fraction(1),), budget=-1)


def test_instance_index_lookups(comparable_market):
    assert comparable_market.hospital_index("q2") == 1
    assert comparable_market.ward_index("r1") == 0
    with pytest.raises(InvalidInstanceError, match="unknown hospital"):
        comparable_market.hospital_index("zz")
    with pytest.raises(InvalidInstanceError, match="unknown ward"):
        comparable_market.ward_index("zz")


# ---------------------------------------------------------------------------
# assumption checkers


def test_assumption1_holds_for_comparable_market(comparable_market):
    report = check_assumption1(comparable_market)
    assert report.assumption == 1
    assert report.holds
    assert report.violations == ()


def test_assumption1_fails_for_lopsided_market(lopsided_market):
    report = check_assumption1(lopsided_market)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.code == "group-not-above-smallest-district-slice"
    assert v.where == {"ward": "r2", "other_ward": "r1", "district": "q1"}
    assert v.lhs == 4
    assert v.rhs == 250


def test_assumption1_vacuous_with_single_ward():
    inst = make_instance((5,), (Fraction(1),))
    assert check_assumption1(inst).holds


# Group sizes that make empty and equal smallest groups common.
TIE_SIZES = (0, 1, 2, 3, 4, 6, 12)


def tie_heavy_shares(rng, nq):
    """nq positive shares over one denominator from 2 to 12, so that equal
    smallest shares are common."""
    den = rng.randint(max(2, nq), 12)
    cuts = sorted(rng.sample(range(1, den), nq - 1))
    return [Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


def tie_heavy_costs(rng, nr):
    """One (district, hospital) pair's internal costs in 0..2, equal across
    the wards seven times in ten."""
    if rng.random() < 0.7:
        return [rng.randint(0, 2)] * nr
    return [rng.randint(0, 2) for _ in range(nr)]


def assert_rules_match_fraction_forms(inst):
    """Assumption 1's failures, each ward's split and assumption 4's report
    equal what their Fraction forms give, messages included; assumption 4
    also on the instance loaded back from its file, whose internal costs
    are parsed straight into ratios."""
    sizes, population = inst.group_sizes, inst.population
    assert list(_a1_failures(sizes, population)) == list(
        reference_a1_failures(sizes, population)
    )
    for size in sizes:
        assert largest_remainder_split(size, population) == reference_split(size, population)
    expected = reference_assumption4(inst)
    for checked in (inst, instance_from_dict(json.loads(dumps_scenario(inst)))):
        got = check_assumption4(checked)
        assert got == expected
        assert [v.message for v in got.violations] == [v.message for v in expected.violations]
        assert all(type(v.lhs) is type(v.rhs) is Fraction for v in got.violations)


@pytest.mark.parametrize("profile", PROFILES)
def test_rules_match_fraction_forms_on_generated_instances(profile):
    for dims in [(1, 1), (2, 2), (3, 4), (4, 1), (6, 6), (5, 8)]:
        for seed in range(10):
            assert_rules_match_fraction_forms(generate_scenario(seed, dims, profile))


def test_rules_match_fraction_forms_on_tie_heavy_instances():
    # one hospital and one ward included
    rng = random.Random(16)
    for _ in range(1500):
        nq, nr = rng.randint(1, 4), rng.randint(1, 4)
        inst = make_instance(
            [rng.choice(TIE_SIZES) for _ in range(nr)],
            tie_heavy_shares(rng, nq),
            internal=[[tie_heavy_costs(rng, nr) for _ in range(nq)] for _ in range(nq)],
        )
        assert_rules_match_fraction_forms(inst)


@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (2, 2), (3, 3), (2, 4)])
def test_assumption4_matches_fraction_form_at_every_planted_difference(dims):
    # internal costs equal across wards, then one cost changed at each
    # (district, hospital, ward) position in turn; a cost written with
    # another numerator and denominator of the same value is no difference
    nq, nr = dims
    constant = [[[f"{d * nq + q + 1}/3"] * nr for q in range(nq)] for d in range(nq)]
    cases = [constant]
    for d, q, r in itertools.product(range(nq), range(nq), range(nr)):
        for value in ("1/7", f"{2 * (d * nq + q + 1)}/6"):
            planted = copy.deepcopy(constant)
            planted[d][q][r] = value
            cases.append(planted)
    failing = []
    for internal in cases:
        inst = make_instance([1] * nr, [Fraction(1, nq)] * nq, internal=internal)
        assert_rules_match_fraction_forms(inst)
        failing.append(not check_assumption4(inst).holds)
    assert failing == [False] + [nr > 1, False] * (nq * nq * nr)


def a2_instance(budget=10, out=25):
    return make_instance(
        (10, 10),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[5, 10], [10, 15]],
        internal=[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        out=[[out, out], [out, out]],
        budget=budget,
    )


def test_assumption2_holds():
    # benefit: 4 cells x 5 patients x (25 - 0) summed over both hospitals
    # = 1000, well above the 40 total upgrade cost; budget 10 >= min cost 5
    assert check_assumption2(a2_instance()).holds


def test_assumption2_budget_below_cheapest():
    report = check_assumption2(a2_instance(budget=4))
    assert not report.holds
    v = report.violations[0]
    assert v.code == "budget-below-cheapest-upgrade"
    assert (v.lhs, v.rhs) == (4, 5)


def test_assumption2_benefit_not_above_cost():
    # out cost 1 makes the benefit 4 x 5 x 2 = 40, equal to the upgrade
    # total, and the comparison is strict
    report = check_assumption2(a2_instance(out=1))
    assert not report.holds
    v = report.violations[0]
    assert v.code == "inside-benefit-not-above-upgrade-cost"
    assert (v.lhs, v.rhs) == (40, 40)


def test_assumption3_always_holds(comparable_market, lopsided_market):
    assert check_assumption3(comparable_market).holds
    assert check_assumption3(lopsided_market).holds


def test_assumption4_reports_first_difference():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        internal=[[[3, 3], [4, 9]], [[5, 5], [6, 6]]],
    )
    report = check_assumption4(inst)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.code == "internal-cost-depends-on-ward"
    assert v.where == {
        "district": "q1",
        "hospital": "q2",
        "ward": "r1",
        "other_ward": "r2",
    }
    assert (v.lhs, v.rhs) == (4, 9)


def test_assumption4_holds_when_constant():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        internal=[[[3, 3], [4, 4]], [[5, 5], [6, 6]]],
    )
    assert check_assumption4(inst).holds


def test_assumption5_reports_first_difference():
    inst = make_instance(
        (6, 6),
        (Fraction(1, 2), Fraction(1, 2)),
        excel=[[7, 7], [7, 8]],
    )
    report = check_assumption5(inst)
    assert not report.holds
    v = report.violations[0]
    assert v.code == "upgrade-cost-not-uniform"
    assert v.where == {
        "hospital": "q1",
        "ward": "r1",
        "other_hospital": "q2",
        "other_ward": "r2",
    }
    assert (v.lhs, v.rhs) == (7, 8)


def test_assumption5_holds_when_uniform():
    inst = make_instance(
        (6, 6), (Fraction(1, 2), Fraction(1, 2)), excel=[[7, 7], [7, 7]]
    )
    assert check_assumption5(inst).holds


def test_all_assumptions_order(comparable_market):
    reports = all_assumptions(comparable_market)
    assert [r.assumption for r in reports] == [1, 2, 3, 4, 5]


def test_violations_restate_instance_data():
    # every reported violation must be reproducible from the raw instance
    seen = set()
    for seed, dims, profile in itertools.product(
        range(20), [(2, 3), (3, 2), (4, 3)], PROFILES
    ):
        inst = generate_scenario(seed, dims, profile)
        for report in all_assumptions(inst):
            for v in report.violations:
                seen.add(v.code)
                if v.code == "group-not-above-smallest-district-slice":
                    k = inst.ward_index(v.where["ward"])
                    i = inst.ward_index(v.where["other_ward"])
                    j = inst.hospital_index(v.where["district"])
                    assert v.lhs == inst.group_sizes[k]
                    assert v.rhs == inst.group_sizes[i] * inst.population[j]
                    assert v.lhs <= v.rhs
                elif v.code == "budget-below-cheapest-upgrade":
                    assert v.lhs == inst.budget
                    assert v.rhs == min(min(row) for row in inst.excel_cost)
                    assert v.lhs < v.rhs
                elif v.code == "inside-benefit-not-above-upgrade-cost":
                    benefit = 0
                    for cell in inst.demand_cells():
                        d = inst.hospital_index(cell.district)
                        r = inst.ward_index(cell.ward)
                        for q in range(inst.num_hospitals):
                            out, c_in = inst.out_cost[d][r], inst.internal_cost[d][q][r]
                            benefit += cell.count * (out - c_in)
                    assert v.lhs == benefit
                    assert v.rhs == sum(sum(row) for row in inst.excel_cost)
                    assert v.lhs <= v.rhs
                elif v.code == "internal-cost-depends-on-ward":
                    d = inst.hospital_index(v.where["district"])
                    q = inst.hospital_index(v.where["hospital"])
                    r1 = inst.ward_index(v.where["ward"])
                    r2 = inst.ward_index(v.where["other_ward"])
                    assert v.lhs == inst.internal_cost[d][q][r1]
                    assert v.rhs == inst.internal_cost[d][q][r2]
                    assert v.lhs != v.rhs
                elif v.code == "upgrade-cost-not-uniform":
                    q1 = inst.hospital_index(v.where["hospital"])
                    r1 = inst.ward_index(v.where["ward"])
                    q2 = inst.hospital_index(v.where["other_hospital"])
                    r2 = inst.ward_index(v.where["other_ward"])
                    assert v.lhs == inst.excel_cost[q1][r1]
                    assert v.rhs == inst.excel_cost[q2][r2]
                    assert v.lhs != v.rhs
                else:
                    raise AssertionError(f"unknown violation code {v.code}")
    # the sample reaches the benefit violation, so its lhs is checked
    assert "inside-benefit-not-above-upgrade-cost" in seen


# One market that fails every data assumption: a lopsided group, a budget
# below every price, outside care cheaper than inside, one internal cost that
# changes with the ward at (north -> south), and one off-price upgrade.
EVERY_VIOLATION = make_instance(
    (10, 400),
    (Fraction(1, 4), Fraction(3, 4)),
    excel=[[5, 5], [Fraction(15, 2), 5]],
    internal=[[[1, 1], [1, Fraction(1, 2)]], [[2, 2], [1, 1]]],
    out=[[1, 2], [2, 1]],
    budget=Fraction(3, 2),
    hospitals=("north", "south"),
    wards=("icu", "er"),
)


@pytest.mark.parametrize(
    "code,message",
    [
        (
            "group-not-above-smallest-district-slice",
            "group icu has 10 patients, not more than the 100 patients of group er "
            "living in district north",
        ),
        ("budget-below-cheapest-upgrade", "budget 3/2 is below the cheapest upgrade cost 5"),
        (
            "inside-benefit-not-above-upgrade-cost",
            "total inside-treatment benefit -43 does not exceed the total upgrade cost 45/2",
        ),
        (
            "internal-cost-depends-on-ward",
            "internal cost from district north to hospital south differs across ward "
            "types: 1 for icu vs 1/2 for er",
        ),
        (
            "upgrade-cost-not-uniform",
            "upgrade cost is not uniform: (north, icu) costs 5 but (south, icu) costs 15/2",
        ),
    ],
)
def test_violation_message_text(tmp_path, capsys, code, message):
    [v] = [
        v for report in all_assumptions(EVERY_VIOLATION) for v in report.violations
        if v.code == code
    ]
    assert v.message == message
    assert str(v) == message
    path = tmp_path / "market.json"
    save_scenario(EVERY_VIOLATION, path)
    assert main(["check", "--input", str(path), "--format", "text"]) == 0
    assert f"  - {message}" in capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# seeded generation


def test_generate_deterministic():
    for profile in PROFILES:
        a = generate_scenario(11, (2, 3), profile)
        b = generate_scenario(11, (2, 3), profile)
        assert a == b
        assert dumps_scenario(a) == dumps_scenario(b)


def test_generate_seed_sensitivity():
    instances = {dumps_scenario(generate_scenario(s, (2, 2))) for s in range(5)}
    assert len(instances) == 5


def test_generate_profiles_meet_contracts():
    for seed in range(100):
        inst = generate_scenario(seed, (2, 3), "assumption1-satisfying")
        assert check_assumption1(inst).holds
        inst = generate_scenario(seed, (3, 2), "assumption4&5-satisfying")
        assert check_assumption4(inst).holds
        assert check_assumption5(inst).holds
        # unconstrained only has to validate, which the constructor enforces
        generate_scenario(seed, (3, 2))


def test_generate_rejects_bad_dims():
    with pytest.raises(InvalidInstanceError, match="dims"):
        generate_scenario(0, (0, 2))
    with pytest.raises(InvalidInstanceError, match="dims"):
        generate_scenario(0, (2, 0))
    # the count rule group sizes and splits share
    for dims, message in [
        (5, "dims: expected a list, got int"),
        ((2, 3, 4), "dims: expected 2 entries, got 3"),
        (("2", "3"), "dims[0]: must be a non-negative integer, got '2'"),
        ((2.0, 3), "dims[0]: must be a non-negative integer, got 2.0"),
        ((True, True), "dims[0]: must be a non-negative integer, got True"),
        ((2, -1), "dims[1]: must be a non-negative integer, got -1"),
        ((-(10**5000), 1), "dims[0]: must be a non-negative integer, got -10**4300 or less"),
    ]:
        with pytest.raises(InvalidInstanceError, match=rf"^{re.escape(message)}$"):
            generate_scenario(0, dims)


def test_generate_guards_size_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError, match="dims: 1000000x1000000"):
            generate_scenario(0, (10**6, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the largest size the benchmark generates stays allowed
    assert generate_scenario(0, (30, 20)).num_hospitals == 30


@pytest.mark.parametrize("dims", [(10**2200, 1), (10**5000, 1), (2, 10**5000)])
def test_generate_guard_message_prints_for_any_dims(dims):
    # |Q|^2 * |R| here has more digits than Python prints, and so may a dim
    with pytest.raises(InstanceTooLargeError, match="generator's cap") as info:
        generate_scenario(0, dims)
    assert str(info.value) == (
        "dims: need at least 10**4300 internal costs, over the generator's cap of 1000000"
    )


def test_generate_refuses_assumption1_with_one_hospital(monkeypatch):
    # one district makes every slice a whole group, so the smallest group
    # never exceeds another: refused before the generator draws anything
    monkeypatch.setattr("wardalloc.scenario._gen_default", None)
    for nr in (2, 4):
        with pytest.raises(
            GenerationError, match=f"cannot hold with one hospital and {nr} ward types"
        ):
            generate_scenario(0, (1, nr), "assumption1-satisfying")
    # group sizes are distinct draws from 1,100 values, too few for 1,101 wards
    with pytest.raises(GenerationError, match="1101 ward types need distinct group sizes"):
        generate_scenario(0, (2, 1101), "assumption1-satisfying")
    monkeypatch.undo()
    assert check_assumption1(generate_scenario(0, (1, 1), "assumption1-satisfying")).holds
    assert check_assumption1(generate_scenario(0, (2, 4), "assumption1-satisfying")).holds


def test_generate_rejects_unknown_profile():
    with pytest.raises(InvalidInstanceError, match="profile"):
        generate_scenario(0, (2, 2), "nope")


# ---------------------------------------------------------------------------
# JSON format


def test_round_trip_preserves_instance():
    inst = generate_scenario(3, (3, 2))
    doc = instance_to_dict(inst)
    again = instance_from_dict(doc)
    assert again == inst
    assert dumps_scenario(again) == dumps_scenario(inst)


def test_dump_is_json_with_rational_strings():
    inst = generate_scenario(3, (2, 2))
    doc = json.loads(dumps_scenario(inst))
    assert doc["schema"] == 1
    assert all("/" in v for v in doc["population"])
    assert "/" in doc["budget"]


# Characters json's escaper treats specially: quotes, backslashes, control
# characters, DEL, non-ASCII, a line separator, a non-BMP character and lone
# surrogates of both halves.
_TRICKY = st.sampled_from(
    ['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", "\udfff"]
)
_JSON_STRINGS = st.lists(_TRICKY | st.characters(exclude_categories=()), max_size=6).map("".join)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(max_value=-1)
    | st.integers(min_value=2**64, max_value=2**200)
    | _JSON_STRINGS
)


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_JSON_STRINGS, children, max_size=4),
        max_leaves=30,
    )
)
def test_json_text_matches_json_dumps_with_indent(doc):
    assert scenario._json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [1.5, Fraction(1, 2), {1}, {1: "a"}, {"a": [1, {"b": 0.0}]}, [(None, Fraction(3))]],
    ids=["float", "fraction", "set", "int-key", "nested-float", "nested-fraction"],
)
def test_json_text_refuses_what_no_report_holds(doc):
    with pytest.raises(TypeError):
        scenario._json_text(doc)


def test_save_and_load(tmp_path):
    inst = generate_scenario(5, (2, 3))
    path = tmp_path / "scenario.json"
    save_scenario(inst, path)
    assert load_scenario(path) == inst
    # the file itself is byte-stable
    save_scenario(inst, tmp_path / "again.json")
    assert (tmp_path / "scenario.json").read_bytes() == (
        tmp_path / "again.json"
    ).read_bytes()


def test_save_overwrites_a_longer_file_in_place(tmp_path, monkeypatch):
    inst = generate_scenario(5, (2, 3))
    path = tmp_path / "scenario.json"
    path.write_bytes(b"x" * (len(dumps_scenario(inst)) * 3))
    flags = []
    real_open = os.open

    def counting_open(file, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    save_scenario(inst, path)
    # the file holds exactly the new text, written without O_TRUNC
    assert path.read_text() == dumps_scenario(inst)
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


def test_load_accepts_bare_integers(tmp_path):
    doc = instance_to_dict(make_instance((4,), (Fraction(1),), budget=2))
    doc["budget"] = 2
    doc["population"] = [1]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    inst = load_scenario(path)
    assert inst.budget == 2
    assert inst.population == (1,)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInstanceError, match="malformed JSON"):
        load_scenario(path)


@pytest.mark.parametrize(
    "data",
    [
        b'{"schema": ' + b"9" * 5000 + b"}",
        b"[" * 200_000 + b"]" * 200_000,
        b'{"schema": "\xff\xfe"}',
    ],
    ids=["int-over-4300-digits", "nested-200000-deep", "not-utf8"],
)
def test_load_rejects_undecodable_files(tmp_path, data):
    path = tmp_path / "odd.json"
    path.write_bytes(data)
    with pytest.raises(InvalidInstanceError, match="malformed JSON"):
        load_scenario(path)


@pytest.mark.parametrize("field", ["hospitals", "wards"])
def test_load_rejects_ids_not_encodable_as_utf8(tmp_path, field):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc[field][1] = "\ud800"  # a lone surrogate: valid JSON, not UTF-8
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match=f"{field}: id .* UTF-8"):
        load_scenario(path)


def test_load_rejects_wrong_schema(tmp_path):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["schema"] = 99
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="schema"):
        load_scenario(path)


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_load_rejects_schema_that_only_equals_one(tmp_path, schema):
    # True == 1.0 == 1 in Python; only the integer 1 is schema version 1
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["schema"] = schema
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="schema"):
        load_scenario(path)


@pytest.mark.parametrize("missing", ["hospitals", "population", "budget"])
def test_load_rejects_missing_field(tmp_path, missing):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    del doc[missing]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match=missing):
        load_scenario(path)


def test_load_rejects_population_not_summing(tmp_path):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["population"] = ["1/2", "2/5"]
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="population"):
        load_scenario(path)


def test_load_rejects_non_string_ids(tmp_path):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["wards"] = [1, 2]
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="wards"):
        load_scenario(path)


def test_instance_from_dict_rejects_non_object():
    with pytest.raises(InvalidInstanceError, match="object"):
        instance_from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("excel_cost", 5, "excel_cost"),
        ("internal_cost", [[1, 2], [3, 4]], "internal_cost[0][0]"),
        ("population", None, "population"),
        ("out_cost", [[1, 2], 3], "out_cost[1]"),
    ],
)
def test_load_rejects_wrong_nesting(field, value, named):
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc[field] = value
    with pytest.raises(InvalidInstanceError) as caught:
        instance_from_dict(doc)
    assert str(caught.value).startswith(f"{named}: expected a list")


# Any JSON value: scalars, lists and objects nested a few levels deep.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)
DOCUMENT_FIELDS = tuple(instance_to_dict(generate_scenario(0, (2, 2))))


def loads_or_rejects(doc):
    """A JSON document either becomes a usable instance or is rejected with
    an invalid-instance error; nothing else escapes."""
    try:
        inst = instance_from_dict(json.loads(json.dumps(doc)))
    except InvalidInstanceError:
        return
    assert sum(cell.count for cell in inst.demand_cells()) == sum(inst.group_sizes)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_json_document_loads_or_is_rejected(doc):
    loads_or_rejects(doc)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(DOCUMENT_FIELDS),
    st.lists(st.integers(0, 3), max_size=2),
    JSON_VALUES,
)
def test_any_field_value_loads_or_is_rejected(field, path, value):
    # replace one field, or one element nested inside it, by any JSON value
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    owner, key = doc, field
    for index in path:
        if not isinstance(owner[key], list) or not owner[key]:
            break
        owner, key = owner[key], index % len(owner[key])
    owner[key] = value
    loads_or_rejects(doc)


# ---------------------------------------------------------------------------
# the loader's leaf walk

# Leaf values a scenario file may hold: plain "n/d" strings, strings that
# only Fraction(str) parses or nothing parses, a negative, ints, booleans,
# floats and null.
LEAF_POOL = (
    "1/2", "7/4", "0/1", "12/5",
    "3/6", "1.5e3", "0.25", " 1/2", "１/2", "1/00", "1/0",
    "-1", 0, 3, -2, True, False, 1.5, 0.0, None,
)
RATIONAL_FIELDS = ("population", "excel_cost", "internal_cost", "out_cost", "budget")


def load_outcome(doc):
    """dumps_scenario of the loaded document, or "<error type>: <message>"."""
    try:
        return dumps_scenario(instance_from_dict(doc))
    except InvalidInstanceError as exc:
        return f"{type(exc).__name__}: {exc}"


def replaced_documents(count):
    """`count` seeded scenario files: a generated 2x2, 3x3 or 2x4 document
    with one element, or a run of elements along the ward axis, replaced by
    one value from LEAF_POOL."""
    rng = random.Random(0)
    bases = [
        dumps_scenario(generate_scenario(seed, dims, profile))
        for dims in [(2, 2), (3, 3), (2, 4)]
        for profile in PROFILES
        for seed in range(3)
    ]
    for _ in range(count):
        doc = json.loads(rng.choice(bases))
        field, value = rng.choice(RATIONAL_FIELDS), rng.choice(LEAF_POOL)
        if field == "budget":
            doc[field] = value
        else:
            row = doc[field]
            while isinstance(row[0], list):
                row = rng.choice(row)
            start = rng.randrange(len(row))
            end = rng.randint(start + 1, len(row))
            row[start:end] = [value] * (end - start)
        yield json.loads(json.dumps(doc))


# SHA-256 of load_outcome of every document replaced_documents(1200) makes,
# one after another: which value loads, and which element an error names.
LOAD_OUTCOMES_SHA256 = "bf6bb2ea47dccef15b03cfa5d141eb8317c07926e655f5417ccbadc71d55d676"


def test_load_outcomes_are_pinned():
    digest = hashlib.sha256()
    for doc in replaced_documents(1200):
        digest.update(load_outcome(doc).encode() + b"\0")
    assert digest.hexdigest() == LOAD_OUTCOMES_SHA256


def leaf_outcome(build):
    """build()'s instance with its document bytes, or "<error type>: <message>"."""
    try:
        inst = build()
    except InvalidInstanceError as exc:
        return f"{type(exc).__name__}: {exc}"
    return inst, dumps_scenario(inst)


def assert_leaf_walk_matches_reference(build):
    # the reference parses every leaf on its own, internal costs included:
    # with no bulk parse, they go through _rationals like the other fields
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "_rationals", reference_rationals)
        patch.setattr(scenario, "_plain_ratios", lambda table, nq, nr: None)
        expected = leaf_outcome(build)
    assert leaf_outcome(build) == expected


@pytest.mark.parametrize("profile", PROFILES)
def test_leaf_walk_matches_reference_on_generated_instances(profile):
    for dims in [(1, 1), (2, 4), (3, 3), (5, 3), (4, 6)]:
        for seed in range(3):
            text = dumps_scenario(generate_scenario(seed, dims, profile))
            assert_leaf_walk_matches_reference(lambda: generate_scenario(seed, dims, profile))
            assert_leaf_walk_matches_reference(lambda: instance_from_dict(json.loads(text)))


def test_leaf_walk_matches_reference_on_tie_heavy_instances():
    for seed in range(60):
        text = dumps_scenario(tie_heavy_instance(seed))
        assert_leaf_walk_matches_reference(lambda: tie_heavy_instance(seed))
        assert_leaf_walk_matches_reference(lambda: instance_from_dict(json.loads(text)))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(RATIONAL_FIELDS[:-1]),
    st.integers(0, 3),
    st.lists(st.tuples(st.sampled_from(LEAF_POOL), st.integers(1, 4)), min_size=1, max_size=4),
    st.booleans(),
)
def test_leaf_walk_matches_reference_on_repeated_values(field, where, runs, as_file):
    # one row of a generated 2x4 document becomes runs of pool values: the
    # same object repeated, or equal but distinct objects as a file holds them
    doc = instance_to_dict(generate_scenario(where, (2, 4), PROFILES[where % 3]))
    row = doc[field]
    while isinstance(row[0], list):
        row = row[where % 2]
    row[:] = ([v for v, count in runs for _ in range(count)] + row)[: len(row)]
    if as_file:
        doc = json.loads(json.dumps(doc))
    assert_leaf_walk_matches_reference(lambda: instance_from_dict(doc))


@pytest.mark.parametrize(
    "row, message",
    [
        ([1, "1/0", "1/0"], r"\[1\]: cannot parse rational '1/0'"),
        (["-1", "-1", "-1"], r"\[0\]: must be non-negative, got -1"),
        (["1/2", None, None], r"\[1\]: expected int or 'num/den' string, got NoneType"),
        ([1, 1, True], r"\[2\]: expected a rational, got a boolean"),
    ],
)
def test_repeated_bad_value_is_named_at_its_first_index(row, message):
    doc = instance_to_dict(generate_scenario(0, (2, 3)))
    doc["internal_cost"][0][0] = row
    with pytest.raises(InvalidInstanceError, match=rf"^internal_cost\[0\]\[0\]{message}$"):
        instance_from_dict(json.loads(json.dumps(doc)))


def test_loaded_a45_file_holds_one_fraction_per_internal_cost_row(tmp_path):
    # assumption 4 writes each internal cost once per ward type; the loader
    # parses the first copy and reuses it along the row
    path = tmp_path / "a45.json"
    save_scenario(generate_scenario(0, (4, 5), "assumption4&5-satisfying"), path)
    inst = load_scenario(path)
    assert [len({id(x) for x in row}) for plane in inst.internal_cost for row in plane] == [1] * 16


# ---------------------------------------------------------------------------
# internal costs parsed in bulk, and their Fraction table built on first read

# Plain "n/d" strings, leading zeros, zero numerators and zero denominators
# included; a few fixed ones make repeats along a row and across rows common.
PLAIN_LEAVES = st.sampled_from(["1/2", "3/6", "0/5", "007/0010"]) | st.builds(
    lambda zeros, num, den: f"{'0' * zeros[0]}{num}/{'0' * zeros[1]}{den}",
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 10**12),
    st.integers(0, 10**6),
)
# Values the bulk parse must leave to the walk, and plain ones at its digit
# bound, in four kinds: separators inside a value, digit counts and digits,
# other strings, and values that are not strings.
ODD_VALUES = (
    ("1/2\n3/4", "1/2\n", "\n", "1/2/3", "1/2\n3", "4\n1/2"),
    (
        "3/0", "0/0", "1" * 4300 + "/7", "7/" + "9" * 4300, "0" * 4300 + "/1",
        "1" * 4301 + "/7", "7/" + "9" * 4301, "١/٢", "1/２", "²/3",
    ),
    (
        "/2", "1/", "", " 1/2", "1/2 ", "1 /2", "1/ 2", "1.5", "0.25", "2.5e-3", "1e3",
        "1E+2", "1e5000", "-1/2", "+1/2", "1_000/3",
    ),
    (True, False, None, 0, 7, -3, Fraction(3, 4), Fraction(-1, 2), 1.5, [], ["1/2"], {}),
)
ODD_LEAVES = st.one_of(*map(st.sampled_from, ODD_VALUES))


def reshaped(table, edit, d, q):
    """The table with one shape edit at plane d, row q."""
    if edit == "short row":
        table[d][q].pop()
    elif edit == "long row":
        table[d][q].append("1/2")
    elif edit == "short plane":
        table[d].pop()
    elif edit == "string row":  # as many characters as the row had values
        table[d][q] = "7" * len(table[d][q])
    elif edit == "tuple plane":
        table[d] = tuple(map(tuple, table[d]))
    elif edit == "tuple table":
        table = tuple(table)
    return table


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bulk_parse_matches_the_reference_walk(data):
    # a generated document whose internal costs are drawn: plain strings with
    # up to two odd values planted and at most one shape edit; the outcome,
    # instance and file bytes or error message, is the reference walk's
    nq, nr = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, nq - 1), st.integers(0, nq - 1), st.integers(0, nr - 1))
    table = [[[data.draw(PLAIN_LEAVES) for _ in range(nr)] for _ in range(nq)] for _ in range(nq)]
    for d, q, r in data.draw(st.lists(cell, max_size=2)):
        table[d][q][r] = data.draw(ODD_LEAVES)
    edit = data.draw(
        st.just("none")
        | st.sampled_from(
            ["short row", "long row", "short plane", "string row", "tuple plane", "tuple table"]
        )
    )
    d, q, _ = data.draw(cell)
    doc = instance_to_dict(generate_scenario(0, (nq, nr)))
    doc["internal_cost"] = reshaped(table, edit, d, q)
    assert_leaf_walk_matches_reference(lambda: instance_from_dict(doc))


@pytest.mark.parametrize("profile", [PROFILES[0], PROFILES[2]])
def test_each_odd_value_in_a_plain_table_matches_the_reference_walk(profile):
    # each odd value at the first and at the last internal cost of a file
    # otherwise plain, with repeated values (assumption 4&5) and without
    base = instance_to_dict(generate_scenario(0, (2, 3), profile))
    for value in itertools.chain.from_iterable(ODD_VALUES):
        for d, q, r in [(0, 0, 0), (1, 1, 2)]:
            doc = copy.deepcopy(base)
            doc["internal_cost"][d][q][r] = value
            assert_leaf_walk_matches_reference(lambda: instance_from_dict(doc))


@pytest.mark.parametrize("limit", [0, 1000, 5000])
def test_digit_bound_matches_the_reference_walk_under_any_int_limit(limit):
    # the interpreter's int-string limit unset, below and above _MAX_DIGITS:
    # in each rational field, both loaders refuse more digits alike, with an
    # invalid-instance error naming the field, never a bare ValueError
    base = instance_to_dict(generate_scenario(0, (2, 2)))
    places = [  # the path to one value of each rational field
        ("budget",),
        ("population", 1),
        ("excel_cost", 0, 1),
        ("internal_cost", 1, 0, 1),
        ("out_cost", 1, 0),
    ]
    too_long = "1" * 2000 + "/7"
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for value in [*ODD_VALUES[1], too_long]:
            for field, *path in places:
                doc = copy.deepcopy(base)
                holder, key = doc, field
                for index in path:
                    holder, key = holder[key], index
                holder[key] = value
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(scenario, "_plain_ratios", lambda table, nq, nr: None)
                    expected = leaf_outcome(lambda: instance_from_dict(doc))
                assert leaf_outcome(lambda: instance_from_dict(doc)) == expected
                if limit == 1000 and value == too_long:
                    assert expected.startswith(f"InvalidInstanceError: {field}")
                    assert "cannot parse rational" in expected
    finally:
        sys.set_int_max_str_digits(default)


def test_commands_on_a_loaded_file_build_no_internal_cost_table(tmp_path, monkeypatch):
    # every instance loaded by a command, or here for evaluate_Z and
    # export_ilp, still holds its internal costs as ratios alone
    loaded = []
    load = scenario.load_scenario

    def kept(path):
        loaded.append(load(path))
        return loaded[-1]

    monkeypatch.setattr(scenario, "load_scenario", kept)
    codes = []
    for dims in [(3, 3), (20, 20)]:
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(0, dims), path)
        for command in ("central-greedy", "central-exact", "check", "compare"):
            argv = [command, "--input", str(path), "--format", "json"]
            codes.append(main([*argv, "--output", str(tmp_path / "report.json")]))
        inst = scenario.load_scenario(path)
        chosen = greedy_solve(inst).excellence
        assert evaluate_Z(chosen, inst).z_value > 0
        assert export_ilp(inst, chosen)
    # at 20x20, central-exact and the local game of compare stop at their caps
    assert codes == [0, 0, 0, 0, 0, 2, 0, 2]
    assert len(loaded) == 10
    assert not any("internal_cost" in vars(inst) for inst in loaded)


def test_loaded_instance_behaves_as_one_built_from_fractions(tmp_path):
    built = generate_scenario(0, (3, 4))
    path = tmp_path / "scenario.json"
    save_scenario(built, path)
    copies = {
        "itself": lambda inst: inst,
        "replace": dataclasses.replace,
        "deepcopy": copy.deepcopy,
        "pickle": lambda inst: pickle.loads(pickle.dumps(inst)),
    }
    # every instance holds its internal costs as ratios from the start: one
    # built from Fractions, and one loaded from a file whose internal costs
    # also hold an int and a decimal string, each kept with its table
    doc = instance_to_dict(built)
    doc["internal_cost"][0][0][0], doc["internal_cost"][2][1][3] = 3, "2.25"
    (tmp_path / "mixed.json").write_text(json.dumps(doc))
    mixed = load_scenario(tmp_path / "mixed.json")
    written = json.loads(dumps_scenario(mixed))["internal_cost"]
    assert (written[0][0][0], written[2][1][3]) == ("3/1", "9/4")
    for inst in (built, mixed):
        for name, copied in copies.items():
            got = copied(inst)
            assert "_internal_ratios" in vars(got) and "internal_cost" in vars(got), name
            assert got == inst and dumps_scenario(got) == dumps_scenario(inst), name
    for read_first in (False, True):
        for name, copied in copies.items():
            inst = load_scenario(path)
            if read_first:
                assert inst.internal_cost == built.internal_cost
            got = copied(inst)
            assert "_internal_ratios" in vars(got), name
            assert ("internal_cost" in vars(got)) == (read_first or name == "replace"), name
            assert got == built and built == got, name
            assert repr(got) == repr(built), name
            assert hash(got) == hash(built), name
            assert dumps_scenario(got) == dumps_scenario(built), name
            assert check_assumption4(got) == check_assumption4(built), name
    for name in ("internal_costs", "_internal_cost", "__setstate__"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(load_scenario(path), name)
    # an instance without state, as unpickling makes it first, lacks it too
    with pytest.raises(AttributeError, match="has no attribute 'internal_cost'"):
        ScenarioInstance.__new__(ScenarioInstance).internal_cost


def test_loaded_internal_cost_table_holds_one_fraction_per_distinct_value(tmp_path):
    path = tmp_path / "scenario.json"
    doc = instance_to_dict(generate_scenario(0, (2, 2)))
    doc["internal_cost"] = [[["1/2", "2/4"], ["0/5", "1/2"]], [["0/1", "3/4"], ["6/8", "1/2"]]]
    path.write_text(json.dumps(doc))
    table = load_scenario(path).internal_cost
    values = [x for plane in table for row in plane for x in row]
    assert values == [Fraction(n, d) for n, d in [(1, 2), (1, 2), (0, 1), (1, 2), (0, 1),
                                                   (3, 4), (3, 4), (1, 2)]]
    assert all(type(x) is Fraction for x in values)
    assert len({id(x) for x in values}) == len(set(values)) == 3


def test_loading_a_30x20_file_peaks_no_higher_than_the_fraction_walk(tmp_path):
    # the walk is the loader without the bulk parse: one Fraction per value
    path = tmp_path / "30x20.json"
    save_scenario(generate_scenario(0, (30, 20)), path)

    def peak():
        tracemalloc.start()
        try:
            load_scenario(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "_plain_ratios", lambda table, nq, nr: None)
        walked = peak()
    assert peak() <= walked
