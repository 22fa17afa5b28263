import hashlib
import itertools
import math
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from optimin import Constraint, LinearProgram, NormalFormGame, TUGame, solve_lp
from optimin import coop, zerosum
from optimin import lp as lp_module
from optimin.lp import fraction_free_pivot
from optimin.zerosum import StatisticalGame


class TestBasics:
    @pytest.mark.parametrize(
        "objective, bounds, message",
        [
            ([], None, "an LP needs at least one variable"),
            ([1, 1], [(0, None)], "one bound pair per variable required"),
            ([1], [(0, None), (0, None)], "one bound pair per variable required"),
        ],
    )
    def test_shape_refused(self, objective, bounds, message):
        with pytest.raises(ValueError) as info:
            LinearProgram(objective, True, [], bounds)
        assert str(info.value) == message

    def test_bounded_single_variable(self):
        sol = solve_lp(LinearProgram([1], True, [([1], "<=", 3)]))
        assert sol.status == "optimal"
        assert sol.point == (F(3),)
        assert sol.objective_value == F(3)

    def test_infeasible(self):
        sol = solve_lp(LinearProgram([1], True, [([1], ">=", 1), ([1], "<=", 0)]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve_lp(LinearProgram([1], True, [([1], ">=", 1)]))
        assert sol.status == "unbounded"

    def test_equality_and_bounds(self):
        sol = solve_lp(
            LinearProgram([2, 3], False, [([1, 1], "=", 10)], bounds=[(0, None), (0, 8)])
        )
        assert sol.status == "optimal"
        assert sol.objective_value == F(20)
        assert sol.point == (F(10), F(0))

    def test_conflicting_bounds_infeasible(self):
        sol = solve_lp(LinearProgram([1], False, [], bounds=[(2, 1)]))
        assert sol.status == "infeasible"

    def test_exact_fractions_survive(self):
        # max x + y st 3x + 5y <= 1, x,y >= 0 -> vertex (1/3, 0)
        sol = solve_lp(
            LinearProgram([1, 1], True, [([3, 5], "<=", 1)], bounds=[(0, None), (0, None)])
        )
        assert sol.objective_value == F(1, 3)

    def test_coin_game_guarantee_lp(self):
        # Guarantee-maximization form of the 4x2 coin-guessing game.
        cols = [(F(0), F(1), F(1, 4), F(3, 4)), (F(1), F(0), F(1, 2), F(1, 2))]
        constraints = [(list(col) + [-1], ">=", 0) for col in cols]
        constraints.append(([1, 1, 1, 1, 0], "=", 1))
        sol = solve_lp(
            LinearProgram(
                [0, 0, 0, 0, 1],
                True,
                constraints,
                bounds=[(0, None)] * 4 + [(None, None)],
            )
        )
        assert sol.objective_value == F(3, 5)
        assert sol.point[:4] == (F(1, 5), F(0), F(0), F(4, 5))

    def test_degenerate_lp_terminates(self):
        # Classic cycling-prone instance; Bland's rule must terminate.
        sol = solve_lp(
            LinearProgram(
                [F(-3, 4), 150, F(-1, 50), 6],
                False,
                [
                    ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
                    ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
                    ([0, 0, 1, 0], "<=", 1),
                ],
                bounds=[(0, None)] * 4,
            )
        )
        assert sol.status == "optimal"
        assert sol.objective_value == F(-1, 20)


RELATIONS = ("<=", ">=", "=")
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def fraction_holds(coefficients, relation, rhs, point):
    """The definition: sum(c * x) (relation) rhs, in Fractions."""
    lhs = sum((F(c) * x for c, x in zip(coefficients, point)), F(0))
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[relation]


class TestConstraint:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_holds_at_matches_the_fraction_definition(self, data):
        n = data.draw(st.integers(1, 5))
        values = st.one_of(st.just(F(0)), st.integers(-4, 4).map(F), small_fractions)
        coefficients = data.draw(st.lists(values, min_size=n, max_size=n))
        point = data.draw(st.lists(values, min_size=n, max_size=n))
        relation = data.draw(st.sampled_from(RELATIONS))
        # a rhs at the point's own value makes equality and the boundary likely
        exact = sum((c * x for c, x in zip(coefficients, point)), F(0))
        rhs = data.draw(st.one_of(st.just(exact), values))
        row = Constraint(coefficients, relation, rhs)
        assert row.holds_at(point) == fraction_holds(coefficients, relation, rhs, point)

    def test_round_trip_equality_and_hash(self):
        spellings = [
            ([1, -2, 0], 3),
            (["1", "-2", "0"], "3"),
            ([F(1), F(-2), F(0)], F(3)),
            (["2/2", "-4/2", "0/5"], "6/2"),
        ]
        rows = [Constraint(coeffs, "<=", rhs) for coeffs, rhs in spellings]
        for row in rows:
            assert row.coefficients == (F(1), F(-2), F(0))
            assert row.rhs == F(3)
            assert all(type(c) is F for c in (*row.coefficients, row.rhs))
        assert all(row == rows[0] and hash(row) == hash(rows[0]) for row in rows)
        fractional = [
            Constraint(["1/2", "-2/3"], "=", "5/6"),
            Constraint([F(1, 2), F(-2, 3)], "=", F(5, 6)),
            Constraint(["3/6", "-4/6"], "=", F(10, 12)),
        ]
        for row in fractional:
            assert row.coefficients == (F(1, 2), F(-2, 3))
            assert row.rhs == F(5, 6)
        assert len(set(fractional)) == 1
        assert Constraint([1, 2], "=", 3) != Constraint([1, 2], ">=", 3)
        assert Constraint([1, 2], "=", 3) != Constraint([2, 4], "=", 6)
        lp = LinearProgram([1, 1], True, [(["1/2", 1], "<=", "3/4")])
        assert lp.constraints == (Constraint([F(1, 2), 1], "<=", F(3, 4)),)
        with pytest.raises(AttributeError):
            lp.constraints[0].rhs = F(1)

    def test_build_checks_rows(self):
        with pytest.raises(ValueError, match="unknown relation"):
            LinearProgram([1], True, [([1], "<", 1)])
        with pytest.raises(ValueError, match="constraint has 2 coefficients, expected 1"):
            LinearProgram([1], True, [([1, 1], "<=", 1)])
        with pytest.raises(ValueError, match="point has 1 entries, expected 2"):
            Constraint([1, 1], "<=", 1).holds_at([F(1)])

    @pytest.mark.parametrize(
        "point, fault",
        [
            ([3, 2], "constraint 0 violated"),  # x + y = 5 > 4
            ([2, 0], "constraint 1 violated"),  # x - y = 2, not 1
            ([1, 0], "upper bound of variable 0 violated"),  # both rows hold, x > 1/2
            ([0, -1], "lower bound of variable 1 violated"),  # both rows hold, y < 0
        ],
    )
    def test_verify_refuses_a_bad_point(self, monkeypatch, point, fault):
        rows = [([1, 1], "<=", 4), ([1, -1], "=", 1)]
        lp = LinearProgram([1, 1], True, rows, bounds=[(None, F(1, 2)), (0, None)])
        # the solver's point comes as ints over one denominator, here 2
        bad = ([2 * x for x in point], 2, ((0, 1), (0, 1)))
        monkeypatch.setattr(lp_module, "_solve", lambda program: bad)
        with pytest.raises(AssertionError, match=f"solver bug: {fault}"):
            solve_lp(lp)

    def test_verify_passes_a_good_point(self, monkeypatch):
        rows = [([1, 1], "<=", 4), ([1, -1], "=", 1)]
        lp = LinearProgram([1, 1], True, rows, bounds=[(None, 3), (0, None)])
        monkeypatch.setattr(lp_module, "_solve", lambda program: ([5, 3], 2, ((1, 1), (0, 1))))
        sol = solve_lp(lp)
        assert sol.point == (F(5, 2), F(3, 2))
        assert sol.objective_value == 4


def enumerate_optimum(objective, maximize, constraints, box):
    """Oracle: visit every basic point of the constraint system inside the box."""
    nvars = len(objective)
    rows = []
    for coeffs, rel, rhs in constraints:
        rows.append((tuple(F(c) for c in coeffs), rel, F(rhs)))
    for j in range(nvars):
        unit = tuple(F(1) if k == j else F(0) for k in range(nvars))
        rows.append((unit, ">=", F(0)))
        rows.append((unit, "<=", F(box)))

    def feasible(pt):
        for coeffs, rel, rhs in rows:
            lhs = sum(c * x for c, x in zip(coeffs, pt))
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    best = None
    for active in itertools.combinations(range(len(rows)), nvars):
        matrix = [list(rows[k][0]) + [rows[k][2]] for k in active]
        pt = _solve_square(matrix, nvars)
        if pt is None or not feasible(pt):
            continue
        val = sum(c * x for c, x in zip(objective, pt))
        if best is None or (val > best if maximize else val < best):
            best = val
    return best


def _solve_square(matrix, n):
    rows = [row[:] for row in matrix]
    for col in range(n):
        pivot = next((k for k in range(col, n) if rows[k][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = F(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for k in range(n):
            if k != col and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [v - f * p for v, p in zip(rows[k], rows[col])]
    return tuple(rows[k][-1] for k in range(n))


class TestAgainstEnumeration:
    def test_random_small_lps(self):
        rng = random.Random(7)
        box = 10
        agree = 0
        for _ in range(250):
            nvars = rng.randint(1, 3)
            ncons = rng.randint(1, 5)
            objective = [rng.randint(-5, 5) for _ in range(nvars)]
            maximize = rng.random() < 0.5
            constraints = [
                (
                    [rng.randint(-4, 4) for _ in range(nvars)],
                    rng.choice(["<=", ">="]),
                    rng.randint(-6, 12),
                )
                for _ in range(ncons)
            ]
            lp = LinearProgram(objective, maximize, constraints, bounds=[(0, box)] * nvars)
            sol = solve_lp(lp)
            oracle = enumerate_optimum(objective, maximize, constraints, box)
            if oracle is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective_value == oracle
                agree += 1
        assert agree > 100  # the sample should be mostly feasible

    def test_no_basic_point_beats_the_reported_optimum(self):
        # Free variables and equalities: enumerate basic points of the raw
        # constraint system and check none improves on the solver's optimum.
        rng = random.Random(9)
        checked = 0
        for _ in range(250):
            nvars = rng.randint(1, 3)
            ncons = rng.randint(nvars, 5)
            objective = [rng.randint(-5, 5) for _ in range(nvars)]
            maximize = rng.random() < 0.5
            constraints = [
                (
                    [rng.randint(-4, 4) for _ in range(nvars)],
                    rng.choice(["<=", ">=", "="]),
                    rng.randint(-6, 6),
                )
                for _ in range(ncons)
            ]
            sol = solve_lp(LinearProgram(objective, maximize, constraints))
            if sol.status != "optimal":
                continue
            checked += 1
            rows = [
                (tuple(F(c) for c in coeffs), rel, F(rhs))
                for coeffs, rel, rhs in constraints
            ]

            def feasible(pt):
                for coeffs, rel, rhs in rows:
                    lhs = sum(c * x for c, x in zip(coeffs, pt))
                    if rel == "<=" and lhs > rhs:
                        return False
                    if rel == ">=" and lhs < rhs:
                        return False
                    if rel == "=" and lhs != rhs:
                        return False
                return True

            for active in itertools.combinations(range(len(rows)), nvars):
                matrix = [list(rows[k][0]) + [rows[k][2]] for k in active]
                pt = _solve_square(matrix, nvars)
                if pt is None or not feasible(pt):
                    continue
                val = sum(c * x for c, x in zip(objective, pt))
                if maximize:
                    assert val <= sol.objective_value
                else:
                    assert val >= sol.objective_value
        assert checked > 60

    def test_solutions_satisfy_constraints_exactly(self):
        rng = random.Random(8)
        for _ in range(100):
            nvars = rng.randint(1, 3)
            constraints = [
                (
                    [rng.randint(-3, 3) for _ in range(nvars)],
                    rng.choice(["<=", ">=", "="]),
                    rng.randint(-4, 8),
                )
                for _ in range(rng.randint(1, 4))
            ]
            lp = LinearProgram(
                [rng.randint(-5, 5) for _ in range(nvars)],
                rng.random() < 0.5,
                constraints,
                bounds=[(0, 10)] * nvars,
            )
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            for row in lp.constraints:
                assert row.holds_at(sol.point)  # exact, no epsilon anywhere


# -- differential suite: hypothesis-drawn programs against the enumeration ----------

# Far beyond every basic point of the drawn systems (Cramer's rule and
# Hadamard's bound keep their coordinates below 10**7), so boxing each
# variable into [-BIG, BIG] keeps every feasible system feasible and every
# finite optimum in place, while an unbounded program gains by doubling
# the box.
BIG = 10**9

coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def programs(draw, relations=("<=", ">=", "=")):
    nvars = draw(st.integers(1, 3))
    constraints = [
        (
            [draw(coefficient) for _ in range(nvars)],
            draw(st.sampled_from(relations)),
            draw(st.fractions(min_value=-8, max_value=12, max_denominator=3)),
        )
        for _ in range(draw(st.integers(0 if "=" not in relations else 1, 5)))
    ]
    bounds = []
    for _ in range(nvars):
        lo = draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
        hi = lo + draw(st.fractions(min_value=0, max_value=8, max_denominator=2))
        bounds.append(draw(st.sampled_from([(0, None), (None, None), (lo, None), (None, hi), (lo, hi)])))
    objective = [draw(coefficient) for _ in range(nvars)]
    return objective, draw(st.booleans()), constraints, bounds


def boxed_optimum(objective, maximize, constraints, bounds, big):
    """`enumerate_optimum` over the program with each missing bound set to +-big.

    Shifting x = low + z puts every variable in [0, high - low]; the widest
    such range is the enumeration's box and the others become rows.
    """
    lows = [F(-big) if lo is None else F(lo) for lo, _ in bounds]
    highs = [F(big) if hi is None else F(hi) for _, hi in bounds]
    nvars = len(objective)
    shifted = [
        (coeffs, rel, F(rhs) - sum(F(c) * low for c, low in zip(coeffs, lows)))
        for coeffs, rel, rhs in constraints
    ]
    box = max(high - low for low, high in zip(lows, highs))
    for j in range(nvars):
        unit = [1 if k == j else 0 for k in range(nvars)]
        shifted.append((unit, "<=", highs[j] - lows[j]))
    best = enumerate_optimum(objective, maximize, shifted, box)
    if best is None:
        return None
    return best + sum(F(c) * low for c, low in zip(objective, lows))


def check_duals(lp, sol):
    """Dual feasibility, complementary slackness and strong duality, exactly."""
    sense = -1 if lp.maximize else 1  # turns a maximum's duals into a minimum's
    duals = sol.duals
    assert len(duals) == len(lp.constraints)
    total = F(0)
    for dual, row in zip(duals, lp.constraints):
        if row.relation == ">=":
            assert sense * dual >= 0
        elif row.relation == "<=":
            assert sense * dual <= 0
        if dual != 0:
            lhs = sum(c * x for c, x in zip(row.coefficients, sol.point))
            assert lhs == row.rhs
        total += dual * row.rhs
    for j, (lo, hi) in enumerate(lp.bounds):
        reduced = lp.objective[j] - sum(d * row.coefficients[j] for d, row in zip(duals, lp.constraints))
        if sense * reduced > 0:
            assert lo is not None and sol.point[j] == lo
            total += reduced * lo
        elif sense * reduced < 0:
            assert hi is not None and sol.point[j] == hi
            total += reduced * hi
    assert total == sol.objective_value


def check_against_enumeration(objective, maximize, constraints, bounds):
    lp = LinearProgram(objective, maximize, constraints, bounds)
    sol = solve_lp(lp)
    near = boxed_optimum(objective, maximize, constraints, bounds, BIG)
    far = boxed_optimum(objective, maximize, constraints, bounds, 2 * BIG)
    if near is None:
        assert far is None
        assert sol.status == "infeasible"
        assert sol.point is None and sol.duals is None
    elif near != far:
        assert sol.status == "unbounded"
        assert sol.point is None and sol.duals is None
    else:
        assert sol.status == "optimal"
        assert sol.objective_value == near
        check_duals(lp, sol)
    return sol


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_mixed_programs(self, program):
        check_against_enumeration(*program)

    @settings(max_examples=100, deadline=None)
    @given(programs(relations=("=",)))
    def test_equality_only_programs(self, program):
        check_against_enumeration(*program)

    def test_every_status_and_bound_kind_occurs(self):
        # The drawn programs above are random; these fixed ones pin each case.
        cases = [
            ([1, -1], True, [([1, 1], "<=", F(7, 2))], [(0, None), (None, None)]),  # unbounded
            ([1], False, [([F(1, 2)], ">=", 3), ([1], "<=", 5)], [(None, None)]),  # infeasible
            ([1, -1], False, [([1, 2], "=", F(5, 3)), ([3, -1], "=", 1)], [(None, None)] * 2),
            ([2, 3], True, [([1, 1], "<=", 4)], [(F(-1, 2), F(5, 2)), (None, F(1, 3))]),
            # One optimal program per kind of own column that a row can have,
            # each with a nonzero dual read there; nonnegative variables keep
            # the rhs signs.  A <= row with a negative rhs needs an artificial,
            ([1, 2], False, [([-1, -1], "<=", -2)], [(0, None)] * 2),
            # a >= row with a negative rhs starts with its slack basic,
            ([1, 3], True, [([1, 1], "<=", 4), ([1, -1], ">=", -2)], [(0, None)] * 2),
            # a >= row with a nonnegative rhs needs an artificial,
            ([1, 1], False, [([1, 2], ">=", 3)], [(0, None)] * 2),
            # and an = row with a negative rhs is flipped, so its artificial reads
            # its dual with the sign turned.
            ([1, 1], False, [([1, -1], "=", -1)], [(0, None)] * 2),
        ]
        statuses = [check_against_enumeration(*case).status for case in cases]
        assert statuses == ["unbounded", "infeasible"] + ["optimal"] * 6

    def test_duals_of_a_known_program(self):
        # max 3x + 2y st x + y <= 4, x + 3y <= 9, x <= 3: optimum (3, 1) = 11,
        # with shadow prices 2 on the first row and 1 on the last.
        sol = solve_lp(
            LinearProgram([3, 2], True, [([1, 1], "<=", 4), ([1, 3], "<=", 9), ([1, 0], "<=", 3)],
                          bounds=[(0, None), (0, None)])
        )
        assert sol.point == (F(3), F(1))
        assert sol.duals == (F(2), F(0), F(1))


class TestVertexChoice:
    """Where several vertices are optimal, pivoting picks one deterministically,
    and reports print it (core witnesses, maximin mixtures).  These pin the
    vertex on two such programs: one whose rows have fractional data, where
    phase 1 is the plain sum of the artificial rows at the program's one row
    multiple, one decided by the ratio-test tie-break on the lowest basic
    index."""

    def test_core_witness_with_fractional_worths(self):
        from optimin import TUGame, core

        worth = {
            0b0001: 4, 0b0010: F(9, 4), 0b0011: F(37, 4), 0b0100: -15,
            0b0101: -7, 0b0110: F(-73, 4), 0b0111: F(-7, 4), 0b1000: F(37, 4),
            0b1001: F(93, 4), 0b1010: F(75, 2), 0b1011: F(52, 3), 0b1100: F(-59, 12),
            0b1101: F(33, 4), 0b1110: F(-5, 2), 0b1111: F(89, 2),
        }
        result = core(TUGame(4, worth))
        assert result.witness == (F(79, 6), F(145, 4), F(-15), F(121, 12))

    def test_maximin_mixture_among_tied_optima(self):
        from optimin import NormalFormGame, maximin_lp
        from optimin.zerosum import StatisticalGame

        rows = [[F(1, 4), 5, -1, F(7, 3)], [F(7, 3), F(-3, 2), -1, 1]]
        payoffs = [[(u, -u) for u in row] for row in rows]
        game = NormalFormGame(("row", "column"), (("a", "b"), ("w", "x", "y", "z")), payoffs)
        solution = maximin_lp(StatisticalGame(game), 0)
        assert solution.value == -1  # column y holds every mixture to -1
        assert solution.mixture == (F(1), F(0))


def test_duals_are_built_on_first_read(count_fractions):
    # The solver keeps each dual as ints; no Fraction is built until `duals` is read.
    lp = LinearProgram([3, 2], True, [([1, 1], "<=", 4), ([1, 3], "<=", 9), ([1, 0], "<=", 3)],
                       bounds=[(0, None), (0, None)])
    with count_fractions() as built:
        sol = solve_lp(lp)
        solved = len(built)
        duals = sol.duals
    assert len(built) - solved == 3  # one per row, on the first read only
    assert duals == (F(2), F(0), F(1)) and sol.duals is duals


# -- the fraction-free pivot against its dense formula ------------------------------


def dense_pivot(rows, r, c, d):
    """Reference: every other row becomes (p*v - f*q) // d, over the whole width."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * v - f * q) // d for v, q in zip(row, prow)]
    return p


def checked_pivot(rows, r, c, d):
    """`fraction_free_pivot` on `rows`, checked against `dense_pivot` on a copy.

    Returns the new denominator and whether the pivot equalled the old one."""
    assert len({id(row) for row in rows}) == len(rows)  # no row is another's list
    expected = [row[:] for row in rows]
    expected_d = dense_pivot(expected, r, c, d)
    sparse = rows[r][c] == d
    new_d = fraction_free_pivot(rows, r, c, d)
    assert (new_d, rows) == (expected_d, expected)
    return new_d, sparse


def pivot_sequence(rows, choose):
    """Pivot an int tableau (d = 1, an implicit identity basis) on entries picked
    by `choose` from the nonzero ones, negating the pivot row as the simplex
    does; every such sequence is a basis change, so each division is exact.
    Returns how many pivots had p == d and how many had p != d."""
    d = 1
    kinds = [0, 0]
    for _ in range(8):
        nonzero = [(r, c) for r, row in enumerate(rows) for c, v in enumerate(row) if v]
        if not nonzero:
            break
        r, c = choose(nonzero)
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        d, sparse = checked_pivot(rows, r, c, d)
        kinds[not sparse] += 1
    return kinds


entries = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-9, 9))  # sparse, as tableaus are


class TestFractionFreePivot:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_dense_formula(self, data):
        m = data.draw(st.integers(1, 5))
        width = data.draw(st.integers(1, 7))
        rows = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=m, max_size=m))
        pivot_sequence(rows, lambda nonzero: data.draw(st.sampled_from(nonzero)))

    def test_both_branches_occur(self):
        # p == d in most pivots of a sparse tableau, p != d in the rest
        rng = random.Random(17)
        kinds = [0, 0]
        for _ in range(300):
            width = rng.randint(1, 7)
            rows = [[rng.choice([0, 0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(width)]
                    for _ in range(rng.randint(1, 5))]
            kinds = [a + b for a, b in zip(kinds, pivot_sequence(rows, rng.choice))]
        assert min(kinds) > 200

    def test_solver_tableaus_match_the_dense_formula(self, monkeypatch):
        # Every pivot of real solves, phase 1 and the pinned nucleolus systems
        # included, on rows that are distinct lists.
        from optimin import TUGame, coop, core, nucleolus

        kinds = [0, 0]

        def pivot(rows, r, c, d):
            new_d, sparse = checked_pivot(rows, r, c, d)
            kinds[not sparse] += 1
            return new_d

        monkeypatch.setattr(lp_module, "fraction_free_pivot", pivot)
        monkeypatch.setattr(coop, "fraction_free_pivot", pivot)
        rng = random.Random(23)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            constraints = [
                ([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)],
                 rng.choice(RELATIONS), rng.randint(-6, 8))
                for _ in range(rng.randint(1, 4))
            ]
            objective = [rng.randint(-5, 5) for _ in range(nvars)]
            bounds = [rng.choice([(0, None), (None, None), (-2, 3)]) for _ in range(nvars)]
            solve_lp(LinearProgram(objective, rng.random() < 0.5, constraints, bounds))
        for n in (3, 4):
            for _ in range(5):
                singles = [rng.randint(0, 5) for _ in range(n)]
                worth = {
                    mask: sum(singles[i] for i in range(n) if mask >> i & 1)
                    + F(rng.randint(0, 4 * bin(mask).count("1") - 4), rng.randint(1, 3))
                    for mask in range(1, 1 << n)
                }
                core(TUGame(n, worth))
                nucleolus(TUGame(n, worth))
        assert min(kinds) > 50


# -- a golden digest over programs whose rows carry factors ------------------------


def solve_counted(program):
    """`solve_lp` and the number of pivots it took."""
    pivot = lp_module.fraction_free_pivot
    pivots = 0

    def counted(*args):
        nonlocal pivots
        pivots += 1
        return pivot(*args)

    lp_module.fraction_free_pivot = counted
    try:
        sol = solve_lp(program)
    finally:
        lp_module.fraction_free_pivot = pivot
    return sol, pivots


def golden_program(rng):
    """A program with rational rows over different denominators, some of
    them a common factor times a smaller row, and every kind of bound."""
    nvars = rng.randint(1, 4)
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coefficients = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(nvars)]
        rhs = F(rng.randint(-4, 12), rng.choice((1, 2, 3, 5)))
        factor = rng.choice((1, 1, 2, 6, F(3, 4), F(5, 2)))
        relation = rng.choice(("<=", "<=", ">=", "="))
        constraints.append(([factor * c for c in coefficients], relation, factor * rhs))
    bounds = []
    for _ in range(nvars):
        lo = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        hi = lo + F(rng.randint(0, 8), rng.choice((1, 2, 4)))
        bounds.append(rng.choice(((0, None), (None, None), (lo, None), (None, hi), (lo, hi))))
    objective = [F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(nvars)]
    return LinearProgram(objective, rng.random() < 0.5, constraints, bounds)


def golden_tu_game(rng, n):
    """A TU game over a denominator of 2 to 6 whose imputation set is not empty."""
    den = rng.randint(2, 6)
    worth = {mask: F(rng.randint(-4, 8 * bin(mask).count("1")), den) for mask in range(1, 1 << n)}
    full = (1 << n) - 1
    worth[full] = max(worth[full], sum(worth[1 << i] for i in range(n)) + F(rng.randint(0, 6), den))
    return TUGame(n, worth)


def golden_zero_sum_game(rng):
    """A zero-sum game over 12 whose columns' payoffs share a factor of 12."""
    shape = (rng.randint(2, 3), rng.randint(2, 4))
    factors = [rng.choice((1, 2, 3, 4, 6)) for _ in range(shape[1])]
    rows = [[F(factors[t] * rng.randint(-5, 5), 12) for t in range(shape[1])] for _ in range(shape[0])]
    payoffs = [[(u, -u) for u in row] for row in rows]
    strategies = tuple(tuple(f"s{k}" for k in range(m)) for m in shape)
    return NormalFormGame(("row", "column"), strategies, payoffs)


def test_golden_solves_of_rows_with_factors(monkeypatch):
    # Each solve's status, point, value, duals and pivot count, over seeded
    # programs, core and nucleolus rounds of TU games over a denominator,
    # and the maximin LPs of zero-sum games whose payoffs share a factor.
    # The rows that reach the solver differ in their denominators and share
    # factors, so a change to how rows are scaled inside the tableau must
    # leave every record, and so this digest, as it is.
    records, rows, dens = [], [], set()

    def recorded(program):
        sol, pivots = solve_counted(program)
        records.append((sol.status, sol.point, sol.objective_value, sol.duals, pivots))
        rows.extend(row._num for row in program.constraints)
        dens.update(row._den for row in program.constraints)
        return sol

    monkeypatch.setattr(coop, "solve_lp", recorded)
    monkeypatch.setattr(zerosum, "solve_lp", recorded)
    rng = random.Random(44)
    for _ in range(150):
        recorded(golden_program(rng))
    for n in (2, 3, 3, 4, 4):
        game = golden_tu_game(rng, n)
        records.append(("core", coop.core(game)))
        records.append(("nucleolus", coop.nucleolus(game)))
    for _ in range(12):
        sg = StatisticalGame(golden_zero_sum_game(rng))
        records.append(("maximin", zerosum.maximin_lp(sg, 0), zerosum.maximin_lp(sg, 1)))
    statuses = [record[0] for record in records]
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses)
    assert sum(math.gcd(*row) > 1 for row in rows) > 100 and len(dens) > 10
    digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()
    assert digest == "39574dbca2ce2bb5070b8dcb13e88a2721f9b20fbe29145753f25966604d4c61"


@settings(max_examples=150, deadline=None)
@given(programs(), st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12))
def test_rescaled_rows_take_the_same_pivots(program, c):
    # One positive factor c on every row, right-hand sides included, moves
    # no pivot and no vertex; each row's dual, its rate per unit of rhs,
    # is divided by c.
    objective, maximize, constraints, bounds = program
    scaled = [([c * a for a in coefficients], rel, c * rhs) for coefficients, rel, rhs in constraints]
    sol, pivots = solve_counted(LinearProgram(objective, maximize, constraints, bounds))
    other, other_pivots = solve_counted(LinearProgram(objective, maximize, scaled, bounds))
    assert (other.status, other.point, other.objective_value, other_pivots) == (
        sol.status, sol.point, sol.objective_value, pivots
    )
    assert other.duals == (None if sol.duals is None else tuple(dual / c for dual in sol.duals))
