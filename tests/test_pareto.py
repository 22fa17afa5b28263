import math
import random
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optimin
from optimin import EmptyInputError, NormalFormGame, ResourceLimitError
from optimin.errors import IMPUTATION_GRID_MAX_POINTS
from optimin import coop, decisions, matching, noncoop, pareto, pareto_filter
from optimin.pareto import pareto_positions
from conftest import brute_pareto, brute_value_pure, zero_game

# Few distinct values, negatives and halves among them, so that ties in single
# coordinates and in coordinate sums are common.
COORDINATES = st.sampled_from([F(-2), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(3)])


@st.composite
def vector_lists(draw):
    width = draw(st.integers(min_value=1, max_value=10))
    vector = st.tuples(*[COORDINATES] * width)
    pool = draw(st.lists(vector, min_size=1, max_size=60))
    # Drawing the list from a pool repeats whole vectors at every width.
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


class TestParetoFilter:
    def test_simple(self):
        assert pareto_filter([(1, 0), (0, 1), (1, 1)]) == [(1, 1)]

    def test_ties_all_retained(self):
        assert pareto_filter([(1, 1), (1, 1)]) == [(1, 1), (1, 1)]

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            pareto_filter([])

    def test_order_preserved(self):
        out = pareto_filter([(0, 5), (3, 3), (5, 0)])
        assert out == [(0, 5), (3, 3), (5, 0)]

    def test_matches_brute_force(self):
        rng = random.Random(16)
        for _ in range(300):
            dim = rng.randint(1, 4)
            vecs = [
                tuple(F(rng.randint(0, 4)) for _ in range(dim))
                for _ in range(rng.randint(1, 12))
            ]
            assert pareto_filter(vecs) == brute_pareto(vecs)

    def test_mixed_widths_raise(self):
        with pytest.raises(ValueError):
            pareto_filter([(1, 2, 3), (1, 2)])

    def test_key_returns_items_not_vectors(self):
        items = [("low", (0, 0, 0)), ("high", (1, 1, 1)), ("side", (2, 0, 0))]
        assert pareto_filter(items, key=lambda it: it[1]) == items[1:]

    def test_one_kernel_behind_every_name(self):
        # The solvers import the filter or its kernel by name; each name they
        # bind must be the one function.  Matching streams into the kernel.
        assert optimin.pareto_filter is pareto.pareto_filter
        for module in (noncoop, coop, decisions, matching):
            names = [name for name in ("pareto_filter", "pareto_positions") if hasattr(module, name)]
            assert names, module.__name__
            for name in names:
                assert getattr(module, name) is getattr(pareto, name), (module.__name__, name)
        assert not hasattr(matching, "pareto_filter")
        assert matching.pareto_positions is pareto.pareto_positions

    def test_float_sums_that_round_to_a_tie(self):
        # 1e16 + 1.0 rounds to 1e16, so both sums are equal; the dominator
        # must still win whichever comes first.
        low, high = (1e16, 0.0, 0.0), (1e16, 1.0, 0.0)
        assert pareto_filter([low, high]) == [high]
        assert pareto_filter([high, low]) == [high]

    def test_matches_brute_force_on_large_inputs(self):
        rng = random.Random(31)
        for _ in range(6):
            dim = rng.randint(3, 6)
            vecs = [
                tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
                for _ in range(rng.randint(150, 300))
            ]
            assert pareto_filter(vecs) == brute_pareto(vecs)

    def test_anti_diagonal_2d_keeps_all_in_sweep_time(self):
        # Every vector is Pareto optimal, the worst case of a skyline (13 s
        # on a 2-core host); the 2-D sweep takes 0.04 s.
        vecs = [(F(i), F(4999 - i)) for i in range(5000)]
        start = time.perf_counter()
        kept = pareto_filter(vecs)
        elapsed = time.perf_counter() - start
        assert kept == vecs
        assert elapsed < 3.0


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_matches_quadratic_definition(vecs):
    expected = brute_pareto(vecs)
    assert pareto_filter(vecs) == expected
    labelled = list(enumerate(vecs))
    survivors = set(expected)
    assert pareto_filter(labelled, key=lambda it: it[1]) == [it for it in labelled if it[1] in survivors]


@st.composite
def int_vector_lists(draw):
    """Up to 200 vectors of width 2-5 with coordinates in 0..3, whole vectors repeated."""
    width = draw(st.integers(min_value=2, max_value=5))
    vector = st.tuples(*[st.integers(min_value=0, max_value=3)] * width)
    pool = draw(st.lists(vector, min_size=1, max_size=60))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200))


@settings(max_examples=300, deadline=None)
@given(int_vector_lists())
def test_positions_match_quadratic_definition(vecs):
    survivors = set(brute_pareto(vecs))
    positions = pareto_positions(vecs)
    assert positions == [i for i, v in enumerate(vecs) if v in survivors]
    assert [vecs[i] for i in positions] == brute_pareto(vecs)


def assert_matches_definition(vecs):
    """Values and positions both agree with the quadratic definition."""
    expected = brute_pareto(vecs)
    survivors = set(expected)
    positions = pareto_positions(vecs)
    assert positions == [i for i, v in enumerate(vecs) if v in survivors]
    assert [vecs[i] for i in positions] == expected


@st.composite
def tied_vector_lists(draw):
    """Vectors of 3 or 4 coordinates drawn from 2-4 values, so ties are many."""
    width = draw(st.sampled_from([3, 4]))
    values = draw(st.lists(COORDINATES, min_size=2, max_size=4, unique=True))
    vector = st.tuples(*[st.sampled_from(values)] * width)
    pool = draw(st.lists(vector, min_size=1, max_size=40))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))


@settings(max_examples=300, deadline=None)
@given(tied_vector_lists())
def test_few_values_in_three_and_four_coordinates(vecs):
    assert_matches_definition(vecs)


@st.composite
def equal_sum_lists(draw):
    """Vectors on one plane of equal coordinate sum, where none dominates another."""
    width = draw(st.integers(min_value=2, max_value=5))
    total = draw(st.integers(min_value=-4, max_value=4))
    head = st.tuples(*[st.integers(min_value=-3, max_value=3)] * (width - 1))
    return [(*h, total - sum(h)) for h in draw(st.lists(head, min_size=1, max_size=60))]


@settings(max_examples=200, deadline=None)
@given(equal_sum_lists())
def test_one_plane_of_equal_sum_is_all_kept(vecs):
    assert_matches_definition(vecs)
    assert pareto_positions(vecs) == list(range(len(vecs)))


@pytest.mark.parametrize(
    "vecs",
    [
        [(1, 2, 3), (3, 2, 1), (1, 2, 3), (0, 0, 0), (3, 2, 1), (0, 0, 0)],
        [(2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 1), (1, 3, 1, 1), (1, 3, 1, 1)],
        [(5,), (5,), (4,), (5,)],
    ],
    ids=["3-d", "4-d", "1-d"],
)
def test_whole_vector_duplicates_are_kept_or_dropped_together(vecs):
    assert_matches_definition(vecs)


@pytest.mark.parametrize(
    "vecs",
    [
        [(F(-1, 3), F(-2), F(1, 2)), (F(-1, 3), F(-5, 2), F(1, 2)), (F(-1, 2), F(-1), F(-7, 3))],
        [(-1, F(1, 2), -3, F(-9, 4)), (-1, F(1, 3), -3, F(-9, 4)), (-2, 1, F(-3, 2), -5), (-2, 1, -2, -5)],
        [(F(-3, 4), -1), (-1, F(-1, 2)), (F(-3, 4), F(-3, 2))],
    ],
    ids=["3-d", "4-d", "2-d"],
)
def test_negative_and_fraction_coordinates(vecs):
    assert_matches_definition(vecs)


def test_three_player_lattice_at_the_bound_keeps_all_in_staircase_time():
    # The int vectors `optimin_coop` filters on the 3-player imputation
    # lattice of 4 950 points, u(N) = 98 and every other worth 0: every point
    # is Pareto optimal.  Scanning the front for each vector takes seconds;
    # the staircase takes about 0.01 s.
    vecs = [(a, b, 98 - a - b) for a in range(99) for b in range(99 - a)]
    assert len(vecs) == 4950
    start = time.perf_counter()
    kept = pareto_filter(vecs)
    elapsed = time.perf_counter() - start
    assert kept == vecs
    assert elapsed < 0.5


def test_four_player_lattice_at_the_bound_keeps_all_in_sum_skip_time():
    # The int vectors `optimin_coop` filters on the largest 4-player
    # imputation lattice within the bound, 4 960 points (u(N) = 29 and every
    # other worth 0): every point is Pareto optimal, and all but the
    # staircase's are covered by it.  They share one sum, so none is checked
    # against a kept vector; checking each against all of them takes seconds.
    free = max(f for f in range(100) if math.comb(f + 3, 3) <= IMPUTATION_GRID_MAX_POINTS)
    vecs = [
        (a, b, c, free - a - b - c)
        for a in range(free + 1) for b in range(free + 1 - a) for c in range(free + 1 - a - b)
    ]
    assert len(vecs) == 4960
    start = time.perf_counter()
    kept = pareto_filter(vecs)
    elapsed = time.perf_counter() - start
    assert kept == vecs
    assert elapsed < 0.5


# -- the equal-sum skip: exact sums only -------------------------------------
#
# From 4 coordinates on, a vector the staircase covers is checked only
# against kept vectors of larger sum, which is sound only when sums are
# exact.  Each pair below is (dominated, dominator), and their sums are equal
# once rounded: 1e16 + 1.0 == 1e16 in floats, and a Decimal sum keeps 28
# digits.  Python 3.12 and later sum floats with compensation, so the second
# pair ties on 3.10 and 3.11 only; the others tie on every version.

INEXACT_TIES = [
    ((1e16, 0.0, 0.0, 0.0), (1e16, 0.0, 0.0, 1.0)),
    ((1e16, 0.0, 1.0, 0.0), (1e16, 1.0, 1.0, 0.0)),
    ((1e16, 0.0, 0.0, 0.0, 0.0), (1e16, 0.0, 0.0, 0.0, 1.0)),
    ((1e16, 0.0, 0.0, 0.0, 0.0), (1e16, 0.0, 0.0, 1.0, 1.0)),
    ((10**16, 0, 0, 0), (1e16, 0.0, 0.0, 1.0)),
    ((Decimal("1e30"), 0, 0, 0), (Decimal("1e30"), 0, 0, 1)),
]


@pytest.mark.parametrize(
    "low, high", INEXACT_TIES, ids=["w4", "w4-compensated", "w5", "w5-two", "w4-int-under-float", "decimal"]
)
def test_inexact_sums_that_round_to_a_tie(low, high):
    assert pareto_filter([low, high]) == [high]
    assert pareto_filter([high, low]) == [high]
    assert pareto_positions(iter([low, high, low])) == [1]
    assert pareto_positions(iter([high, low, high])) == [0, 2]


DECIMALS = st.sampled_from([Decimal(-2), Decimal("-0.5"), Decimal(0), Decimal(1), Decimal("1e30"), Decimal("1e30") + 2])
INT_OR_FLOAT = st.sampled_from([-1, 0, 0.0, 0.5, 1, 1.0, 2, 1e16, 10**16 + 1, 1e16 + 2])


@st.composite
def inexact_vector_lists(draw):
    """Up to 80 vectors of width 4-6 over Decimals or a mix of ints and
    floats, from a pool of at most 12, so that rounded sums tie often."""
    width = draw(st.integers(min_value=4, max_value=6))
    coordinates = draw(st.sampled_from([DECIMALS, INT_OR_FLOAT]))
    pool = draw(st.lists(st.tuples(*[coordinates] * width), min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))


@settings(max_examples=300, deadline=None)
@given(inexact_vector_lists())
def test_decimal_and_mixed_vectors_match_the_definition(vecs):
    assert_matches_definition(vecs)
    assert pareto_positions(v for v in vecs) == pareto_positions(vecs)


# -- the top-sum pass ------------------------------------------------------
#
# From 4 coordinates on, `_front` first drops what the distinct vector of
# largest sum weakly dominates.  A float or Decimal sum may pick that vector
# wrongly (1e16 + 1.0 == 1e16); the pass must still drop only dominated ones.

KERNEL_POOLS = [
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([-1.0, 0.0, 1.0, 2.0, 1e16, 1e16 + 2]),
    COORDINATES,
    st.sampled_from([Decimal(-1), Decimal(0), Decimal(1), Decimal("1e30")]),
]


@st.composite
def wide_sets(draw):
    """Up to 60 distinct vectors of width 4-16 over 2-4 values of one type:
    ints, floats near 1e16, `Fraction`s or Decimals near 1e30."""
    width = draw(st.integers(min_value=4, max_value=16))
    values = draw(st.lists(draw(st.sampled_from(KERNEL_POOLS)), min_size=2, max_size=4, unique=True))
    return set(draw(st.lists(st.tuples(*[st.sampled_from(values)] * width), min_size=1, max_size=60)))


@settings(max_examples=300, deadline=None)
@given(wide_sets())
@example({(1e16, 0.0, 0.0, 0.0), (1e16, 0.0, 0.0, 1.0)})
@example({(1e16, 1.0, 0.0, 0.0), (1e16, 0.0, 0.0, 1.0), (1e16, 0.0, 0.0, 0.0)})
def test_the_wide_front_matches_the_quadratic_scan(vecs):
    assert pareto._front(vecs) == set(brute_pareto(list(vecs)))


# -- the one-pass contract ------------------------------------------------
#
# `pareto_positions` reads its input once, so the solvers can hand it a
# generator or a `zip` and keep no table of value tuples.

INTS = st.integers(min_value=-3, max_value=3)
FLOATS = st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.25, 1e16, 1e16 + 2])
# Equal values of different types among them (1, F(1) and 1.0 are one key).
MIXED = st.sampled_from([-2, F(-1, 2), -0.5, 0, 0.0, F(1), 1.0, 1, F(7, 3), 3])


@st.composite
def one_pass_inputs(draw):
    """Up to 80 vectors of width 1-6 over ints, Fractions, floats or a mix,
    drawn from a pool of at most 12 so that whole vectors repeat often."""
    width = draw(st.integers(min_value=1, max_value=6))
    coordinates = draw(st.sampled_from([INTS, COORDINATES, FLOATS, MIXED]))
    pool = draw(st.lists(st.tuples(*[coordinates] * width), min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))


@settings(max_examples=300, deadline=None)
@given(one_pass_inputs())
def test_a_one_shot_generator_reads_as_its_list(vecs):
    positions = pareto_positions(vecs)
    assert pareto_positions(v for v in vecs) == positions
    survivors = brute_pareto(vecs)
    assert positions == [i for i, v in enumerate(vecs) if v in survivors]
    assert [vecs[i] for i in positions] == survivors


def test_float_sums_that_round_to_a_tie_in_a_stream():
    low, high = (1e16, 0.0, 0.0), (1e16, 1.0, 0.0)
    assert pareto_positions(iter([low, high, low])) == [1]
    assert pareto_positions(iter([high, low, high])) == [0, 2]


class ReadOnce:
    """An iterable whose second iteration fails."""

    def __init__(self, vecs):
        self.vecs = vecs
        self.read = False

    def __iter__(self):
        assert not self.read, "read a second time"
        self.read = True
        return iter(self.vecs)


def test_the_input_is_read_once():
    vecs = [(1, 0, 2), (0, 0, 1), (1, 0, 2), (2, 0, 0)]
    assert pareto_positions(ReadOnce(vecs)) == [0, 2, 3]
    assert pareto_filter(ReadOnce(vecs)) == [(1, 0, 2), (1, 0, 2), (2, 0, 0)]


def test_an_empty_or_ragged_stream_is_refused():
    with pytest.raises(EmptyInputError):
        pareto_positions(iter([]))
    with pytest.raises(ValueError, match="same length"):
        pareto_positions(iter([(1, 2), (1, 2), (0, 1, 2)]))


# -- the swap closure -----------------------------------------------------
#
# A symmetric two-player game streams one cell per orbit {(a, b), (b, a)},
# and the kernel filters each distinct vector together with its image (y, x).

# Floats 2 apart, the spacing near 1e16, where a sum can round to a tie.
NEAR_1E16 = st.sampled_from([1e16 - 2, 1e16, 1e16 + 2, 1e16 + 4])


@st.composite
def swap_streams(draw):
    """Up to 60 2-D vectors over tied ints, `Fraction`s or floats near 1e16,
    drawn from a pool of at most 10 so that whole vectors repeat; a pool
    vector is often its own swap."""
    coordinates = draw(st.sampled_from([INTS, COORDINATES, NEAR_1E16]))
    vector = st.tuples(coordinates, coordinates) | coordinates.map(lambda x: (x, x))
    pool = draw(st.lists(vector, min_size=1, max_size=10))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(swap_streams())
@example([(3, 1), (1, 2), (3, 1)])  # the image (1, 3) dominates (1, 2)
def test_the_swap_closure_matches_the_definition(vecs):
    closed = brute_pareto(vecs + [(y, x) for x, y in vecs])
    expected = [i for i, v in enumerate(vecs) if v in closed]
    assert pareto_positions(iter(vecs), swap_closed=True) == expected


def test_the_swap_closure_refuses_vectors_that_are_not_2d():
    for vecs in ([(1,), (0,)], [(1, 2, 3)]):
        with pytest.raises(ValueError, match="2-D"):
            pareto_positions(iter(vecs), swap_closed=True)


def test_the_streamed_two_player_table_with_many_ties_matches_definition():
    # 30x30 with payoffs in -2..2: `_values_2p` hands out a `zip`, which
    # reuses its result tuple whenever the consumer has let the last one go.
    rng = random.Random(2727)
    for _ in range(2):
        payoffs = [[[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(30)] for _ in range(30)]
        game = NormalFormGame(["a", "b"], [[f"s{k}" for k in range(30)]] * 2, payoffs)
        brute = {profile: brute_value_pure(game, profile) for profile in game.profiles()}
        assert noncoop.value_table(game) == brute
        survivors = set(brute_pareto(list(set(brute.values()))))
        assert [e.profile for e in noncoop.optimin_pure(game)] == [p for p, v in brute.items() if v in survivors]


def test_the_value_bound_is_checked_when_the_stream_is_made():
    with pytest.raises(ResourceLimitError):
        noncoop._scaled_values(zero_game((12, 12, 11, 11)))
