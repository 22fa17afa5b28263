import contextlib
import importlib.util
import io
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimin import (
    DomainError,
    LinearProgram,
    ResourceLimitError,
    TUGame,
    coop_value,
    core,
    dominating_coalitions,
    gen_named,
    matches_characterization,
    nucleolus,
    optimin_coop,
    shapley,
    solve_lp,
)
import optimin
from optimin import cli, coop
from optimin.coop import (
    CORE_MAX_PLAYERS,
    IMPUTATION_GRID_MAX_POINTS,
    NUCLEOLUS_MAX_PLAYERS,
    SHAPLEY_MAX_PLAYERS,
    coalition_sum,
    imputation_grid,
    is_imputation,
)
from optimin.fileio import dump_tu_game, parse_tu_game
from optimin.rational import json_number


def additive_game(weights):
    n = len(weights)
    worth = {}
    for mask in range(1, 1 << n):
        worth[mask] = sum(weights[i] for i in range(n) if mask >> i & 1)
    return TUGame(n, worth)


def _direct_value(game, x):
    """Definition-direct worst case, independent of the library path."""
    full = game.grand_coalition
    out = []
    for i in range(game.n):
        best = x[i]
        for mask in game.proper_coalitions():
            if mask >> i & 1:
                continue
            if coalition_sum(x, mask) < game.worth(mask):
                rest = full ^ mask
                short = coalition_sum(x, rest) - game.worth(rest)
                cand = x[i] - F(short, bin(rest).count("1"))
                best = min(best, cand)
        out.append(best)
    return tuple(out)


def random_convex_game(rng):
    """Supermodular worths built from nonnegative pair synergies."""
    w = [rng.randint(0, 3) for _ in range(3)]
    a12, a13, a23 = (rng.randint(0, 4) for _ in range(3))
    t = max(a12 + a13, a12 + a23, a13 + a23) + rng.randint(0, 4)
    return TUGame(
        3,
        {
            0b001: w[0], 0b010: w[1], 0b100: w[2],
            0b011: w[0] + w[1] + a12,
            0b101: w[0] + w[2] + a13,
            0b110: w[1] + w[2] + a23,
            0b111: w[0] + w[1] + w[2] + t,
        },
    )


class TestTUGame:
    def test_construction_requires_all_coalitions(self):
        with pytest.raises(ValueError):
            TUGame(2, {0b01: 1, 0b11: 3})

    def test_completeness_bound(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                TUGame(40, {1: 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any per-coalition table exists
        assert str(info.value) == f"worth missing for {2**40 - 2} coalitions, e.g. mask 2"
        with pytest.raises(ValueError, match="worth missing for 1 coalitions, e.g. mask 5$"):
            TUGame(3, {m: 1 for m in range(1, 8) if m != 5})

    def test_boolean_masks_are_refused(self):
        # True == 1, but a boolean is no coalition, as it is no player count
        with pytest.raises(ValueError, match="coalition mask True out of range"):
            TUGame(1, {True: 5})
        with pytest.raises(ValueError, match="coalition mask True out of range"):
            TUGame(2, {True: 1, 0b10: 2, 0b11: 4})

    def test_empty_core_instance_is_not_cohesive(self):
        # u({1,2}) + u({3}) = 115 > 110: one partition beats the grand coalition.
        assert not gen_named("coop_empty_core").cohesive

    def test_capped_variant_is_cohesive(self):
        assert gen_named("coop_120").cohesive

    def test_additive_games_are_cohesive(self):
        assert additive_game([3, 1, 4]).cohesive

    def test_cohesion_is_checked_only_when_read(self, monkeypatch):
        calls = []
        original = TUGame._check_cohesive
        monkeypatch.setattr(TUGame, "_check_cohesive", lambda g: calls.append(g) or original(g))
        game = gen_named("coop_empty_core")
        assert calls == []
        assert not game.cohesive
        assert calls == [game]


class TestDominatingCoalitions:
    def test_empty_core_no_deviation_against_player1(self):
        g = gen_named("coop_empty_core")
        assert dominating_coalitions(g, (40, 30, 40), excluding=0).coalitions == ()

    def test_empty_core_pair_12_deviates_on_player3(self):
        g = gen_named("coop_empty_core")
        dev = dominating_coalitions(g, (40, 30, 40), excluding=2)
        assert dev.coalitions == (0b011,)

    def test_core_allocations_have_no_deviations(self):
        g = gen_named("coop_120")
        for player in range(3):
            assert not dominating_coalitions(g, (50, 40, 30), excluding=player)

    def test_infeasible_allocation_rejected(self):
        g = gen_named("coop_120")
        with pytest.raises(DomainError):
            dominating_coalitions(g, (100, 100, 100), excluding=0)


class TestCoopValue:
    def test_empty_core_at_40_30_40(self):
        g = gen_named("coop_empty_core")
        assert coop_value(g, (40, 30, 40)) == (F(40), F(30), F(25))

    def test_empty_core_at_shapley_point(self):
        g = gen_named("coop_empty_core")
        point = (F(265, 6), F(110, 3), F(175, 6))
        assert coop_value(g, point) == (F(35), F(30), F(25))

    def test_core_point_is_fixed(self):
        g = gen_named("coop_120")
        assert coop_value(g, (50, 40, 30)) == (F(50), F(40), F(30))

    def test_value_never_exceeds_allocation(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_convex_game(rng)
            total = g.worth(g.grand_coalition)
            cut1 = rng.randint(0, int(total)) if total > 0 else 0
            cut2 = rng.randint(0, int(total) - cut1) if total - cut1 > 0 else 0
            x = (F(cut1), F(cut2), total - cut1 - cut2)
            value = coop_value(g, x)
            assert all(v <= xi for v, xi in zip(value, x))

    def test_equal_loss_accounting_identity(self):
        # The non-deviating side's reduced values sum exactly to its worth.
        rng = random.Random(42)
        checked = 0
        for _ in range(300):
            g = random_convex_game(rng)
            total = g.worth(g.grand_coalition)
            lows = g.singletons()
            slack = total - sum(lows)
            if slack <= 0:
                continue
            a = rng.randint(0, int(slack))
            b = rng.randint(0, int(slack) - a)
            x = (lows[0] + a, lows[1] + b, lows[2] + slack - a - b)
            full = g.grand_coalition
            for mask in g.proper_coalitions():
                if coalition_sum(x, mask) < g.worth(mask):
                    rest = full ^ mask
                    share = F(
                        coalition_sum(x, rest) - g.worth(rest), bin(rest).count("1")
                    )
                    reduced = sum(
                        x[i] - share for i in range(3) if rest >> i & 1
                    )
                    assert reduced == g.worth(rest)
                    checked += 1
        assert checked > 20


class TestImputationGrid:
    def test_empty_core_grid_size(self):
        g = gen_named("coop_empty_core")
        # slack 110 - 90 = 20 over 3 coordinates
        assert len(imputation_grid(g, 1)) == 231

    def test_all_points_are_imputations(self):
        g = gen_named("coop_empty_core")
        for x in imputation_grid(g, 1):
            assert is_imputation(g, x)

    def test_empty_imputation_set_raises(self):
        g = TUGame(2, {0b01: 5, 0b10: 5, 0b11: 7})
        with pytest.raises(DomainError):
            imputation_grid(g, 1)

    def test_point_bound(self, monkeypatch):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                imputation_grid(gen_named("coop_120"), F(1, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any point exists
        message = str(info.value)
        assert str(IMPUTATION_GRID_MAX_POINTS) in message
        # 30 free units of 1/1000 shared among 3 players
        assert str(math.comb(30_000 + 2, 2)) in message
        assert "--step" in message
        # A 2-player lattice with zero floors has worth/step + 1 points.
        past = TUGame(2, {0b01: 0, 0b10: 0, 0b11: IMPUTATION_GRID_MAX_POINTS})
        with pytest.raises(ResourceLimitError):
            imputation_grid(past, 1)
        monkeypatch.setattr(coop, "IMPUTATION_GRID_MAX_POINTS", 5)
        assert len(imputation_grid(TUGame(2, {0b01: 0, 0b10: 0, 0b11: 4}), 1)) == 5
        with pytest.raises(ResourceLimitError):
            imputation_grid(TUGame(2, {0b01: 0, 0b10: 0, 0b11: 5}), 1)


class TestOptiminCoop:
    def test_empty_core_segment(self):
        g = gen_named("coop_empty_core")
        result = optimin_coop(g, 1)
        assert result.kind == "grid-approximate"
        expected = {(F(40), F(x2), F(70 - x2)) for x2 in range(30, 46)}
        assert set(result.allocations) == expected
        for _, value in result.entries:
            assert value == (F(40), F(30), F(25))

    def test_empty_core_characterization_check(self):
        g = gen_named("coop_empty_core")
        assert matches_characterization(
            g,
            1,
            lambda x: x[0] == 40 and x[1] + x[2] == 70 and x[1] >= 30 and x[2] >= 25,
        )
        assert not matches_characterization(g, 1, lambda x: x[0] == 41)

    def test_capped_variant_unique_point(self):
        g = gen_named("coop_120")
        result = optimin_coop(g, 1)
        assert result.allocations == ((F(50), F(40), F(30)),)

    def test_widened_floors_enlarge_the_lattice(self):
        g = gen_named("coop_120")
        default = imputation_grid(g, 10)
        widened = imputation_grid(g, 10, floors=(0, 0, 0))
        assert set(default) < set(widened)
        # the core point survives any widening: its value is itself and sums
        # to the full grand-coalition worth, so nothing can dominate it
        result = optimin_coop(g, 10, floors=(0, 0, 0))
        assert (F(50), F(40), F(30)) in result.allocations

    def test_raised_grand_coalition_family(self):
        # Between the empty-core and capped variants the surplus accrues to
        # players 1 and 2: for small c the unique survivor is
        # (40+c, 30+c, 40-c), whose pair sums sit exactly on the {1,3} and
        # {2,3} worths.  Verified against a definition-direct re-computation.
        from conftest import brute_pareto

        for c in (1, 3, 5, 9):
            g = TUGame(
                3,
                {
                    0b001: 35, 0b010: 30, 0b100: 25,
                    0b011: 90, 0b101: 80, 0b110: 70,
                    0b111: 110 + c,
                },
            )
            result = optimin_coop(g, 1)
            # independent oracle: Definition-direct values over the lattice
            points = imputation_grid(g, 1)
            values = {x: _direct_value(g, x) for x in points}
            frontier = set(brute_pareto(list(values.values())))
            expected = {x for x in points if values[x] in frontier}
            assert set(result.allocations) == expected
            if c <= 5:
                assert result.allocations == ((F(40 + c), F(30 + c), F(40 - c)),)


class TestCore:
    def test_empty_core_example(self):
        assert core(gen_named("coop_empty_core")).empty

    def test_capped_variant_witness(self):
        result = core(gen_named("coop_120"))
        assert not result.empty
        assert result.witness == (F(50), F(40), F(30))

    def test_additive_game_core_contains_weights(self):
        g = additive_game([3, 1, 4])
        result = core(g)
        assert not result.empty
        assert result.witness == (F(3), F(1), F(4))


class TestShapley:
    def test_empty_core_example(self):
        assert shapley(gen_named("coop_empty_core")) == (F(265, 6), F(110, 3), F(175, 6))

    def test_capped_variant(self):
        assert shapley(gen_named("coop_120")) == (F(95, 2), F(40), F(65, 2))

    def test_symmetric_game_splits_equally(self):
        g = TUGame(3, {m: (12 if m == 0b111 else 2 * bin(m).count("1")) for m in range(1, 8)})
        assert shapley(g) == (F(4), F(4), F(4))

    def test_matches_ordering_average_on_random_games(self):
        import itertools

        rng = random.Random(43)
        for _ in range(40):
            g = random_convex_game(rng)
            totals = [F(0)] * 3
            for order in itertools.permutations(range(3)):
                mask = 0
                for i in order:
                    before = g.worth(mask) if mask else F(0)
                    mask |= 1 << i
                    totals[i] += g.worth(mask) - before
            expected = tuple(t / 6 for t in totals)
            assert shapley(g) == expected

    def test_player_bound(self):
        with pytest.raises(ResourceLimitError) as info:
            shapley(TUGame(13, {m: 0 for m in range(1, 1 << 13)}))
        message = str(info.value)
        assert str(SHAPLEY_MAX_PLAYERS) in message
        assert "13 players" in message
        assert "SHAPLEY_MAX_PLAYERS" in message


class TestNucleolus:
    def test_empty_core_example(self):
        assert nucleolus(gen_named("coop_empty_core")) == (F(140, 3), F(110, 3), F(80, 3))

    def test_capped_variant(self):
        assert nucleolus(gen_named("coop_120")) == (F(50), F(40), F(30))

    def test_additive_game_returns_weights(self):
        assert nucleolus(additive_game([3, 1, 4])) == (F(3), F(1), F(4))

    def test_lexicographic_optimality_against_grid(self):
        # No lattice imputation has a lexicographically smaller sorted excess
        # vector than the nucleolus.
        rng = random.Random(44)
        for _ in range(15):
            g = random_convex_game(rng)
            nuc = nucleolus(g)

            def excesses(x):
                return sorted(
                    (g.worth(m) - coalition_sum(x, m) for m in g.proper_coalitions()),
                    reverse=True,
                )

            base = excesses(nuc)
            for x in imputation_grid(g, 1):
                assert base <= excesses(x)

    def test_player_bound(self):
        with pytest.raises(ResourceLimitError) as info:
            nucleolus(TUGame(9, {m: 0 for m in range(1, 1 << 9)}))
        message = str(info.value)
        assert str(NUCLEOLUS_MAX_PLAYERS) in message
        assert "9 players" in message
        assert "NUCLEOLUS_MAX_PLAYERS" in message

    def test_core_player_bound(self):
        n = CORE_MAX_PLAYERS + 1
        game = TUGame(n, {m: 0 for m in range(1, 1 << n)})
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                core(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any of the 2^n - 1 rows is built
        message = str(info.value)
        assert f"{n} players" in message
        assert f"{CORE_MAX_PLAYERS}-player bound" in message
        assert "CORE_MAX_PLAYERS" in message


class TestCoreEquivalences:
    def test_grid_optimin_equals_core_on_convex_games(self):
        rng = random.Random(45)
        for _ in range(60):
            g = random_convex_game(rng)
            survivors = set(optimin_coop(g, 1).allocations)
            grid_core = {
                x
                for x in imputation_grid(g, 1)
                if all(
                    coalition_sum(x, m) >= g.worth(m) for m in g.proper_coalitions()
                )
            }
            assert survivors == grid_core

    def test_nucleolus_in_core_and_undominated(self):
        rng = random.Random(46)
        for _ in range(25):
            g = random_convex_game(rng)
            nuc = nucleolus(g)
            assert coop_value(g, nuc) == nuc
            entries = [(x, coop_value(g, x)) for x in imputation_grid(g, 1)]
            entries.append((nuc, nuc))
            from optimin import pareto_filter

            kept = pareto_filter(entries, key=lambda e: e[1])
            assert any(x == nuc for x, _ in kept)


# -- the dual-pinned nucleolus against the probe-LP scheme -------------------------


def probe_nucleolus(game):
    """Reference: the sequential-LP nucleolus that probes each tight coalition.

    Each round minimizes the maximum excess eps, then, for every free
    coalition tight at the optimum found, solves one more LP that maximizes
    its sum with eps held; the coalition is pinned when even that leaves its
    excess at eps.  The pinned equalities are solved by Fraction Gauss-Jordan.
    """
    n = game.n
    total = game.worth(game.grand_coalition)
    lows = game.singletons()
    free = game.proper_coalitions()
    pinned = []
    x_bounds = [(lows[i], None) for i in range(n)]

    def mask_coeffs(mask, extra=0):
        return [F(mask >> i & 1) for i in range(n)] + [F(0)] * extra

    def base_constraints(with_eps, cap=None):
        extra = 1 if with_eps else 0
        cons = [(mask_coeffs(game.grand_coalition, extra), "=", total)]
        for mask, level in pinned:
            cons.append((mask_coeffs(mask, extra), "=", game.worth(mask) - level))
        for mask in free:
            coeffs = mask_coeffs(mask, extra)
            if with_eps:
                coeffs[n] = F(1)
                cons.append((coeffs, ">=", game.worth(mask)))
            else:
                cons.append((coeffs, ">=", game.worth(mask) - cap))
        return cons

    def solve_pinned():
        rows = [[F(1)] * n + [total]]
        rows += [mask_coeffs(mask) + [game.worth(mask) - level] for mask, level in pinned]
        r = 0
        for col in range(n):
            pivot = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
            if pivot is None:
                return None
            rows[r], rows[pivot] = rows[pivot], rows[r]
            rows[r] = [v / rows[r][col] for v in rows[r]]
            for k in range(len(rows)):
                if k != r and rows[k][col] != 0:
                    rows[k] = [v - rows[k][col] * p for v, p in zip(rows[k], rows[r])]
            r += 1
        return tuple(rows[k][-1] for k in range(n))

    while free:
        lp = LinearProgram.build([0] * n + [1], False, base_constraints(True), x_bounds + [(None, None)])
        sol = solve_lp(lp)
        eps = sol.objective_value
        at_optimum = sol.point[:n]
        newly = []
        for mask in free:
            if game.worth(mask) - coalition_sum(at_optimum, mask) < eps:
                continue
            probe = LinearProgram.build(mask_coeffs(mask), True, base_constraints(False, eps), x_bounds)
            if game.worth(mask) - solve_lp(probe).objective_value == eps:
                newly.append(mask)
        assert newly
        for mask in newly:
            pinned.append((mask, eps))
            free.remove(mask)
        point = solve_pinned()
        if point is not None:
            return point
    raise AssertionError("pinned system never became determined")


def primal_nucleolus(game):
    """Reference: the sequential-LP nucleolus on each round's primal LP.

    Each round minimizes the maximum excess eps over the free coalitions,
    with individual rationality in the variable bounds, and pins every free
    coalition whose excess row has a positive dual value, at level eps; the
    pinned equalities are solved by `coop._pinned_solution`.
    """
    n = game.n
    total = game.worth(game.grand_coalition)
    free = game.proper_coalitions()
    pinned = []
    bounds = [(low, None) for low in game.singletons()] + [(None, None)]

    def mask_coeffs(mask):
        return [mask >> i & 1 for i in range(n)]

    while True:
        constraints = [(mask_coeffs(game.grand_coalition) + [0], "=", total)]
        for mask, level in pinned:
            constraints.append((mask_coeffs(mask) + [0], "=", game.worth(mask) - level))
        for mask in free:
            constraints.append((mask_coeffs(mask) + [1], ">=", game.worth(mask)))
        sol = solve_lp(LinearProgram.build([0] * n + [1], False, constraints, bounds))
        assert sol.is_optimal
        duals = sol.duals[1 + len(pinned) :]
        newly = [mask for mask, dual in zip(free, duals) if dual > 0]
        assert newly
        for mask in newly:
            pinned.append((mask, sol.objective_value))
            free.remove(mask)
        point = coop._pinned_solution(game, pinned)
        if point is not None:
            return point


def _bench_workloads():
    """perfbench/workloads.py, loaded by path and only read from."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("optimin_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def tu_games(draw, max_players=5):
    """3 to `max_players` players, worths with denominators up to 6; a
    coalition's bonus over its members' singletons may exceed the grand
    coalition's, which empties the core, but the imputation set is never
    empty."""
    n = draw(st.integers(3, max_players))
    worth_value = st.fractions(min_value=-6, max_value=12, max_denominator=6)
    singles = [draw(worth_value) for _ in range(n)]
    surplus = draw(st.fractions(min_value=0, max_value=20, max_denominator=6))
    worth = {}
    for mask in range(1, 1 << n):
        base = sum((singles[i] for i in range(n) if mask >> i & 1), F(0))
        if mask == (1 << n) - 1:
            worth[mask] = base + surplus
        elif mask & (mask - 1):
            worth[mask] = base + draw(st.fractions(min_value=-4, max_value=24, max_denominator=6))
        else:
            worth[mask] = base
    return TUGame(n, worth)


class TestDualPinnedNucleolus:
    @settings(max_examples=100, deadline=None)
    @given(tu_games())
    def test_matches_the_probe_scheme(self, game):
        assert nucleolus(game) == probe_nucleolus(game)

    def test_symmetric_empty_core_game(self):
        # Every 3-player coalition is worth more than 3/4 of u(N), so the core
        # is empty; symmetry puts the nucleolus at the equal split.
        worth = {m: (10 if bin(m).count("1") == 3 else 0) for m in range(1, 16)}
        worth[15] = 12
        game = TUGame(4, worth)
        assert core(game).empty
        assert nucleolus(game) == probe_nucleolus(game) == (F(3),) * 4

    @settings(max_examples=30, deadline=None)
    @given(tu_games(max_players=7))
    def test_matches_the_primal_scheme(self, game):
        assert nucleolus(game) == primal_nucleolus(game)

    def test_matches_the_primal_scheme_on_the_benchmark_pool(self):
        # The 80 4-player games of the benchmark's nucleolus4 pool, each drawn
        # by workloads.nucleolus4_data from its own seeded generator.
        workloads = _bench_workloads()
        for index in range(workloads.POOL_SIZE["nucleolus4"]):
            data = workloads.pool_instance("nucleolus4", index).data
            game = TUGame(data["n"], data["worth"])
            assert nucleolus(game) == primal_nucleolus(game)

    @settings(max_examples=40, deadline=None)
    @given(tu_games())
    def test_one_lp_per_round(self, game):
        lps = []
        rounds = []
        solve, pinned_solution = coop.solve_lp, coop._pinned_solution

        def counting_solve(lp):
            lps.append(lp)
            return solve(lp)

        def counting_rounds(g, pinned):
            rounds.append(len(pinned))
            return pinned_solution(g, pinned)

        coop.solve_lp, coop._pinned_solution = counting_solve, counting_rounds
        try:
            nucleolus(game)
        finally:
            coop.solve_lp, coop._pinned_solution = solve, pinned_solution
        assert len(lps) == len(rounds) >= 1
        # every LP is a round's dual, with no probes: a maximum over one
        # equality row per player and the row sum(λ) = 1, with a free column
        # for the grand and each pinned coalition, then a λ column per free
        # coalition and a μ column per player
        n = game.n
        for lp, pinned_before in zip(lps, [0] + rounds):
            free_columns = 1 + pinned_before
            lam = len(lp.objective) - free_columns - n
            assert lp.maximize
            assert lam == (1 << n) - 2 - pinned_before
            assert lp.bounds == ((None, None),) * free_columns + ((0, None),) * (lam + n)
            assert len(lp.constraints) == n + 1
            assert all(row.relation == "=" for row in lp.constraints)
            assert all(row.rhs == 0 for row in lp.constraints[:n])
            last = lp.constraints[-1]
            assert last.coefficients == (0,) * free_columns + (1,) * lam + (0,) * n
            assert last.rhs == 1
        # and every round pins at least one more coalition
        assert all(a < b for a, b in zip([0] + rounds, rounds))


# -- the integer kernel against definition-direct Fraction oracles ----------------

GRID_STEPS = (F(1), F(1, 2), F(1, 3))


@st.composite
def lattice_games(draw):
    """2 to 4 players, worths with denominators up to 6, a grid step of 1,
    1/2 or 1/3, and floors at the singletons (None) or up to a step below
    them.  u(N) lies a few steps above the singletons' sum, on the step
    lattice or, now and then, 1/6 off it, so every lattice stays small."""
    n = draw(st.integers(2, 4))
    step = draw(st.sampled_from(GRID_STEPS))
    singles = [draw(st.fractions(min_value=-6, max_value=12, max_denominator=6)) for _ in range(n)]
    units = -(-sum(singles, F(0)) // step) + draw(st.integers(0, 6 if n < 4 else 3))
    total = units * step + draw(st.sampled_from((F(0), F(0), F(0), F(1, 6))))
    worth = {}
    for mask in range(1, 1 << n):
        base = sum((singles[i] for i in range(n) if mask >> i & 1), F(0))
        if mask == (1 << n) - 1:
            worth[mask] = total
        elif mask & (mask - 1):
            worth[mask] = base + draw(st.fractions(min_value=-4, max_value=8, max_denominator=6))
        else:
            worth[mask] = base
    below = draw(
        st.none() | st.lists(st.sampled_from((F(0), F(1, 6), step)), min_size=n, max_size=n)
    )
    floors = None if below is None else [s - b for s, b in zip(singles, below)]
    return TUGame(n, worth), step, floors


@st.composite
def games_and_allocations(draw):
    """A lattice game and an allocation with denominators up to 6 that
    overshoots u(N) whenever the drawn slack is negative."""
    game, _, _ = draw(lattice_games())
    head = [draw(st.fractions(min_value=-8, max_value=16, max_denominator=6)) for _ in range(game.n - 1)]
    slack = draw(st.fractions(min_value=-1, max_value=5, max_denominator=6))
    x = tuple(head) + (game.worth(game.grand_coalition) - sum(head, F(0)) - slack,)
    return game, x


def brute_lattice(game, step, floors):
    """Every efficient multiple-of-step allocation at or above the floors, in
    lexicographic order, by filtering a product of ranges."""
    lows = game.singletons() if floors is None else floors
    units = game.worth(game.grand_coalition) / step
    mins = [math.ceil(low / step) for low in lows]
    ranges = [range(m, math.floor(units) - sum(mins) + m + 1) for m in mins]
    return [
        tuple(u * step for u in point)
        for point in itertools.product(*ranges)
        if sum(point) == units
    ]


def brute_cohesive(game):
    """No partition of the grand coalition is worth more than it, checked
    over every partition."""

    def partitions(mask):
        if not mask:
            yield []
            return
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            for tail in partitions(rest ^ sub):
                yield [sub | low] + tail
            if not sub:
                return
            sub = (sub - 1) & rest

    full = game.grand_coalition
    return all(
        sum((game.worth(block) for block in blocks), F(0)) <= game.worth(full)
        for blocks in partitions(full)
    )


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(games_and_allocations())
    def test_value_and_deviations_match_the_definitions(self, case):
        game, x = case
        if coalition_sum(x, game.grand_coalition) > game.worth(game.grand_coalition):
            with pytest.raises(DomainError):
                coop_value(game, x)
            with pytest.raises(DomainError):
                dominating_coalitions(game, x, 0)
            assert not coop.is_feasible(game, x)
            return
        assert coop.is_feasible(game, x)
        assert coop_value(game, x) == _direct_value(game, x)
        for i in range(game.n):
            expected = tuple(
                m
                for m in game.proper_coalitions()
                if not m >> i & 1 and coalition_sum(x, m) < game.worth(m)
            )
            assert dominating_coalitions(game, x, i).coalitions == expected
        assert is_imputation(game, x) == (
            coalition_sum(x, game.grand_coalition) == game.worth(game.grand_coalition)
            and all(x[i] >= game.worth(1 << i) for i in range(game.n))
        )

    @settings(max_examples=150, deadline=None)
    @given(lattice_games())
    def test_optimin_matches_the_quadratic_scan(self, case):
        game, step, floors = case
        points = brute_lattice(game, step, floors)
        assert imputation_grid(game, step, floors) == points
        values = [_direct_value(game, x) for x in points]
        expected = tuple(
            (x, v)
            for x, v in zip(points, values)
            if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in values)
        )
        result = optimin_coop(game, step, floors)
        assert result.step == step
        assert result.entries == expected

    @settings(max_examples=100, deadline=None)
    @given(lattice_games())
    def test_cohesion_matches_every_partition(self, case):
        game, _, _ = case
        assert game.cohesive == brute_cohesive(game)

    @settings(max_examples=100, deadline=None)
    @given(lattice_games())
    def test_dump_round_trips_bytes(self, case):
        game, _, _ = case
        text = dump_tu_game(game)
        assert parse_tu_game(text) == game
        assert dump_tu_game(parse_tu_game(text)) == text
        # the bytes of a writer that reads every worth as a Fraction
        masks = sorted(game.proper_coalitions() + [game.grand_coalition], key=lambda m: (bin(m).count("1"), m))
        doc = {
            "n": game.n,
            "worth": {
                ",".join(str(i + 1) for i in range(game.n) if m >> i & 1): json_number(game.worth(m))
                for m in masks
            },
        }
        assert text == json.dumps(doc, indent=2) + "\n"

    def test_oracles_on_known_games(self):
        # Convex games are superadditive, so every one is cohesive.
        rng = random.Random(47)
        for _ in range(30):
            g = random_convex_game(rng)
            assert g.cohesive and brute_cohesive(g)
        assert brute_cohesive(gen_named("coop_120"))
        assert not brute_cohesive(gen_named("coop_empty_core"))
        # A partition that beats u(N) by the smallest unit of the worths.
        barely = TUGame(3, {1: F(1, 6), 2: 0, 3: F(1, 6), 4: F(1, 3), 5: F(1, 2), 6: F(1, 3), 7: F(1, 3)})
        assert not barely.cohesive and not brute_cohesive(barely)
        # u(N) off the step lattice leaves no lattice point at all.
        off = TUGame(2, {0b01: 0, 0b10: 0, 0b11: F(7, 6)})
        assert brute_lattice(off, F(1, 2), None) == imputation_grid(off, F(1, 2)) == []
        assert optimin_coop(off, F(1, 2)).entries == ()


class TestPlayerCount:
    def test_boolean_player_count_refused(self):
        with pytest.raises(ValueError, match="player count must be an int, got True$"):
            TUGame(True, {1: 1})

    def test_player_count_checked_before_any_shift(self):
        # 2^n - 1 worths cannot fit any mapping past sys.maxsize's bit length,
        # so such a count is refused before 2^n, 2 MiB here, is built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                TUGame(1 << 24, {1: 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(info.value) == (
            "a 16777216-player game needs 2^16777216 - 1 worths, more than any mapping holds; got 1"
        )
        at = sys.maxsize.bit_length()
        with pytest.raises(ValueError, match=f"worth missing for {2**at - 2} coalitions"):
            TUGame(at, {1: 1})
        with pytest.raises(ValueError, match=f"a {at + 1}-player game needs"):
            TUGame(at + 1, {1: 1})


def brute_shapley(game):
    """Oracle: each player's marginal contribution averaged over all orders."""
    total = [F(0)] * game.n
    orders = list(itertools.permutations(range(game.n)))
    for order in orders:
        mask = 0
        for i in order:
            total[i] += game.worth(mask | 1 << i) - game.worth(mask)
            mask |= 1 << i
    return tuple(t / len(orders) for t in total)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.fractions(-50, 50, max_denominator=12),
                       min_size=(1 << n) - 1, max_size=(1 << n) - 1).map(lambda ws: (n, ws))
))
def test_shapley_matches_its_definition(case):
    n, worths = case
    game = TUGame(n, {m: w for m, w in enumerate(worths, start=1)})
    assert shapley(game) == brute_shapley(game)


# -- Fractions built per op: the solvers run on ints ------------------------------

BENCH_OP_KINDS = ("claim", "game3", "match5", "coop4", "mixed3", "nucleolus4", "core5")
# How many more `Fraction`s than printed values an op of any kind may build on
# average; the ints-to-Fraction conversion of a solver's rows would cost
# 2^n - 1 of them per LP, 31 at core5 and 14 per nucleolus4 round.
FRACTIONS_OVER_VALUES = 20
# An exact number in a report; the "(~0.333)" decimal hints are cut first, and
# labels such as "s3", "stop@2" or "a1=b4" hold none.
_DECIMAL_HINT = re.compile(r" \(~[^)]*\)")
_EXACT_NUMBER = re.compile(r"(?<![\w@./=-])-?\d+(?:/\d+)?(?![\w./])")


def _pool(workloads, kind, workdir):
    """Every instance of the benchmark's `kind`, its input files written to `workdir`."""
    if kind == "claim":
        return [workloads.claim_instance(reward) for reward in workloads.CLAIM_REWARDS]
    instances = [workloads.pool_instance(kind, i) for i in range(workloads.POOL_SIZE[kind])]
    workloads.write_inputs(optimin, instances, workdir)
    return instances


@pytest.mark.parametrize("kind", BENCH_OP_KINDS)
def test_fractions_per_benchmark_op(kind, count_fractions, tmp_path):
    # Over the whole pool of each benchmark op kind, run as the benchmark runs
    # it (`cli.main` on the op's argv), the `Fraction`s built per op are at most
    # the exact values its report prints plus FRACTIONS_OVER_VALUES.
    workdir = str(tmp_path)
    instances = _pool(_bench_workloads(), kind, workdir)
    built = values = 0
    for instance in instances:
        out = io.StringIO()
        with count_fractions() as made, contextlib.redirect_stdout(out):
            code = cli.main(instance.argv(workdir, 1))
        assert code == 0
        built += len(made)
        values += len(_EXACT_NUMBER.findall(_DECIMAL_HINT.sub("", out.getvalue())))
    assert built <= values + FRACTIONS_OVER_VALUES * len(instances), (built, values, len(instances))


def _symmetric_game(n, worth_of_size):
    return TUGame(n, {mask: worth_of_size(mask.bit_count()) for mask in range(1, 1 << n)})


@pytest.mark.parametrize("n", [3, 5, 7])
def test_core_builds_fractions_for_its_witness_only(n, count_fractions):
    # k^2/3 is convex in the coalition size k, so the core holds the equal
    # split; capping u(N) at 0 empties it.  Neither count grows with the
    # 2^n - 1 coalition rows.
    convex = _symmetric_game(n, lambda k: F(k * k, 3))
    empty = _symmetric_game(n, lambda k: F(k * k, 3) if k < n else F(0))
    with count_fractions() as built:
        witness = core(convex).witness
    assert len(built) <= n + 1  # the witness and the LP's value
    assert sum(witness) == F(n * n, 3)
    with count_fractions() as built:
        assert core(empty).empty
    assert built == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_nucleolus_builds_a_bounded_number_of_fractions_per_round(n, count_fractions, monkeypatch):
    # Per round: the dual's point, at most n + 1 of whose entries are basic
    # and nonzero, its value and the level; then the n entries returned.
    rng = random.Random(f"nucleolus-fractions/{n}")
    solve = coop.solve_lp
    for _ in range(5):
        worth = {
            mask: F(rng.randint(0, 12 * mask.bit_count()), rng.randint(1, 6))
            for mask in range(1, 1 << n)
        }
        worth[(1 << n) - 1] += 12 * n  # keeps the imputation set nonempty
        rounds = []
        monkeypatch.setattr(coop, "solve_lp", lambda lp: rounds.append(lp) or solve(lp))
        with count_fractions() as built:
            nucleolus(TUGame(n, worth))
        assert len(built) <= len(rounds) * (n + 3) + n
