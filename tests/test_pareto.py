import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optimin
from optimin import EmptyInputError, coop, decisions, matching, noncoop, pareto, pareto_filter
from optimin.pareto import pareto_positions
from conftest import brute_pareto

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
        # The solvers import the filter by name; all must bind the one function.
        for module in (optimin, noncoop, coop, decisions, matching):
            assert module.pareto_filter is pareto.pareto_filter

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
