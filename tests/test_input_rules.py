"""Every public constructor takes any JSON-like value and either returns a
usable object or refuses it with one of the package's errors: ids, counts
and payoffs each pass one rule, written once in the scenario module."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from wardalloc import (
    PROFILES,
    DiversificationVerdict,
    ExcellenceSet,
    GenerationError,
    InstanceTooLargeError,
    InvalidInstanceError,
    PayoffTensor,
    StrategyProfile,
    enumerate_pure_nash,
    equilibrium_report_to_dict,
    evaluate_Z,
    generate_scenario,
    largest_remainder_split,
)

REFUSALS = (InvalidInstanceError, InstanceTooLargeError, GenerationError)

# ids that pass, an empty one and a lone surrogate, which UTF-8 cannot encode
IDS = st.sampled_from(["x", "y", "", "\ud800"])
SMALL_INTS = st.integers(-2, 3)  # dims stay this small, so nothing large is generated
LEAVES = (
    st.none()
    | st.booleans()
    | SMALL_INTS
    | st.floats()  # NaN and both infinities included
    | st.just(Fraction(1, 3))
    | IDS
)
KEYS = st.tuples(IDS) | st.tuples(IDS, IDS) | IDS | SMALL_INTS | st.none()
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.tuples(children, children)
    | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=6,
)
ID_LISTS = st.lists(IDS, max_size=2) | st.tuples(IDS, IDS) | VALUES
PAIRS = st.tuples(IDS, IDS) | st.tuples(VALUES, IDS) | VALUES


def hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@st.composite
def tensor_args(draw):
    hospitals, strategies = draw(ID_LISTS), draw(ID_LISTS)
    id_lists = all(isinstance(ids, list) and hashable(tuple(ids)) for ids in (hospitals, strategies))
    if id_lists and draw(st.booleans()):
        # a table over every profile of the drawn ids, so the checks after
        # the profile count run too
        keys = itertools.product(strategies, repeat=len(hospitals))
        payoffs = {key: tuple(draw(VALUES) for _ in hospitals) for key in keys}
    else:
        payoffs = draw(st.dictionaries(KEYS, VALUES, max_size=4) | VALUES)
    return hospitals, strategies, payoffs


def use_tensor(hospitals, strategies, payoffs):
    tensor = PayoffTensor(hospitals=hospitals, strategies=strategies, payoffs=payoffs)
    report = enumerate_pure_nash(tensor)
    verdict = DiversificationVerdict(False, False, False)
    return equilibrium_report_to_dict(report, verdict)


def use_profile(hospitals, wards):
    profile = StrategyProfile(hospitals=hospitals, wards=wards)
    return profile.is_uniform, profile.as_dict()


# hospitals and wards named like the drawn ids, so some members match
MARKET = make_instance(
    (3, 4), (Fraction(1, 2), Fraction(1, 2)), budget=4, hospitals=("x", "y"), wards=("x", "y")
)

CALLS = {
    "PayoffTensor": (tensor_args(), lambda args: use_tensor(*args)),
    "StrategyProfile": (st.tuples(ID_LISTS, ID_LISTS), lambda args: use_profile(*args)),
    "ExcellenceSet": (
        st.frozensets(PAIRS.filter(hashable), max_size=3) | VALUES,
        lambda members: evaluate_Z(ExcellenceSet(members), MARKET),
    ),
    "ExcellenceSet.of": (  # lists are passed as generators, as the benchmark passes them
        st.lists(PAIRS, max_size=3).map(lambda pairs: (p for p in pairs)) | VALUES,
        lambda pairs: evaluate_Z(ExcellenceSet.of(pairs), MARKET),
    ),
    "generate_scenario": (
        st.tuples(st.tuples(LEAVES, LEAVES) | VALUES, st.sampled_from(PROFILES)),
        lambda args: generate_scenario(0, *args),
    ),
    "largest_remainder_split": (
        st.tuples(VALUES, VALUES | st.just((Fraction(1, 3),) * 3)),
        lambda args: largest_remainder_split(*args),
    ),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_public_constructor_returns_or_refuses(name, data):
    values, call = CALLS[name]
    try:
        call(data.draw(values))
    except REFUSALS:
        pass
