"""Exact linear programming: a fraction-free two-phase simplex with Bland's rule.

The API speaks `Fraction`s; the solver works in ints.  `LinearProgram(...)`
reads the objective, the bounds and each constraint's coefficients and
right-hand side once, straight to ints (through
`rational.over_common_denominator`, so an int builds no `Fraction`): the
objective over one positive denominator, the bounds over one positive
scale, and each row over its own (`Constraint`).  The builders in `coop`
and `zerosum` hand over their games' ints.  Every constraint's tableau row
is its row as given times one multiple per program, M = the lcm of the
rows' denominators times the bounds' scale, and no row is reduced further:
rows rescaled by one positive factor take the same pivots, so phase 1 is
the plain sum of the artificials and a dual is M times its int row's.  A
two-sided bound adds the row scale * y <= width at the bounds' scale alone;
it starts on its slack, needs no artificial and reports no dual.  The
tableau then holds ints over one common denominator `D > 0` (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968): see `fraction_free_pivot`.  Each tableau
row has one own column, its slack or, for an equality row, its phase-1
artificial, and the row's dual is read from the final cost row at that
column.  The returned point is brought over one denominator once, and
every constraint and bound is checked at it in ints.  The point and the
optimal value stay ints over one scale, and the duals int pairs, until they
are read: `LPSolution` builds their `Fraction`s on first read, so a caller
that needs only signs or one ratio, as `coop.nucleolus` does, reads the ints
and builds none.  There is no epsilon anywhere.  Bland's rule (always
pivot on the lowest eligible index) makes the method cycling-proof, and
degenerate ratio ties are broken by the lowest basic-variable index, so the
returned vertex is deterministic.  Problem sizes here are desk scale, so
the tableau is stored dense, as one list of ints per row.  Most pivots of
the sparse core and nucleolus tableaus have p = D, and those touch only the
pivot row's nonzero columns; a pivot with p != D rewrites every row at full
width.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .rational import Record, over_common_denominator

ZERO = Fraction(0)

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class Constraint(Record):
    """One row ``coefficients · x (relation) rhs``, held as ints.

    ``_num`` holds the coefficients and then the right-hand side as ints over
    the one positive denominator ``_den``, the lcm of their reduced
    denominators, so equal rows have equal ints.  `coefficients` and `rhs`
    are read-only properties that give them back as `Fraction`s.
    """

    __slots__ = ("_num", "_den", "relation")

    def __init__(self, coefficients: Sequence, relation: str, rhs) -> None:
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        self._num, self._den = over_common_denominator([*coefficients, rhs])
        self.relation = relation

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._num[:-1])

    @property
    def rhs(self) -> Fraction:
        return Fraction(self._num[-1], self._den)

    def holds_at(self, point: Sequence[Fraction]) -> bool:
        if len(point) != len(self._num) - 1:
            raise ValueError(f"point has {len(point)} entries, expected {len(self._num) - 1}")
        return self._holds(*over_common_denominator(point))

    def _holds(self, point: Sequence[int], scale: int) -> bool:
        """Whether the row holds at ``point / scale`` (one int per coefficient),
        in ints: ``sum(a * x) (relation) b * scale`` over the row's ints."""
        lhs = sum(map(operator.mul, self._num, point))
        rhs = self._num[-1] * scale
        if self.relation == LESS_EQUAL:
            return lhs <= rhs
        if self.relation == GREATER_EQUAL:
            return lhs >= rhs
        return lhs == rhs

    def _key(self) -> tuple:
        return self.relation, self._den, tuple(self._num)

    def __repr__(self) -> str:
        return f"Constraint({self.coefficients!r}, {self.relation!r}, {self.rhs!r})"


class LinearProgram:
    """min/max c.x subject to linear constraints and optional variable bounds.

    Bounds default to free variables; pass ``(0, None)`` for nonnegativity.
    The objective is read once, to the ints ``_obj_num`` over one positive
    denominator ``_obj_den``, and the given bounds once, to ``_bound_num``
    pairs of ints (``None`` for a missing side) over one positive scale
    ``_bound_den``.  `objective` and `bounds` are read-only properties that
    give them back as `Fraction`s.
    """

    __slots__ = ("_obj_num", "_obj_den", "maximize", "constraints", "_bound_num", "_bound_den")

    def __init__(self, objective, maximize, constraints, bounds=None) -> None:
        self._obj_num, self._obj_den = over_common_denominator(objective)
        n = len(self._obj_num)
        if not n:
            raise ValueError("an LP needs at least one variable")
        self.maximize = bool(maximize)
        self.constraints = tuple(Constraint(coeffs, rel, rhs) for coeffs, rel, rhs in constraints)
        for row in self.constraints:
            if len(row._num) != n + 1:
                raise ValueError(f"constraint has {len(row._num) - 1} coefficients, expected {n}")
        bounds = [(None, None)] * n if bounds is None else list(bounds)
        if len(bounds) != n:
            raise ValueError("one bound pair per variable required")
        ints, self._bound_den = over_common_denominator(
            b for pair in bounds for b in pair if b is not None
        )
        ints = iter(ints)
        self._bound_num = [
            (None if lo is None else next(ints), None if hi is None else next(ints))
            for lo, hi in bounds
        ]

    @property
    def objective(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._obj_den) for c in self._obj_num)

    @property
    def bounds(self) -> tuple[tuple[Fraction | None, Fraction | None], ...]:
        d = self._bound_den
        return tuple(
            tuple(b if b is None else Fraction(b, d) for b in pair) for pair in self._bound_num
        )


class LPSolution(Record):
    """Status, and for an optimal LP its point, value and dual values.

    `duals[k]` belongs to `constraints[k]`: the rate at which the optimal
    value moves with that row's right-hand side, at the returned basis.  So
    with reduced costs `r = objective - sum_k duals[k] * coefficients[k]`,
    the optimal value is `sum_k duals[k] * rhs[k] + sum_j r[j] * bound[j]`,
    where `bound[j]` is the lower bound of variable j when r[j] pushes it
    down (r[j] > 0 when minimizing, r[j] < 0 when maximizing) and its upper
    bound when r[j] pushes it up; r[j] is 0 for a free variable.

    `solve_lp` keeps the point and the value as ints over one positive
    scale, ``point[j] = point_ints[j] / scale`` and ``objective_value =
    value_int / scale``, and each dual as an int ``(num, den)`` pair,
    `dual_ratios`.  None of these takes part in `==`, `hash` or `repr`;
    `point`, `objective_value` and `duals` build their `Fraction`s on first
    read.  A solution built from `Fraction`s has no ints.
    """

    __slots__ = ("status", "point_ints", "value_int", "scale", "dual_ratios", "_point", "_value", "_duals")

    def __init__(
        self,
        status: str,  # "optimal" | "infeasible" | "unbounded"
        point: tuple[Fraction, ...] | None = None,
        objective_value: Fraction | None = None,
        dual_ratios: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        self.status = status
        self._point = point
        self._value = objective_value
        self.dual_ratios = dual_ratios
        self._duals = None
        self.point_ints = self.value_int = self.scale = None

    @classmethod
    def _optimal(cls, point_ints, value_int: int, scale: int, dual_ratios) -> LPSolution:
        """An optimal solution held as `solve_lp` holds it, in ints."""
        sol = cls("optimal", dual_ratios=dual_ratios)
        sol.point_ints, sol.value_int, sol.scale = point_ints, value_int, scale
        return sol

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def point(self) -> tuple[Fraction, ...] | None:
        if self._point is None and self.point_ints is not None:
            scale = self.scale
            self._point = tuple(Fraction(x, scale) if x else ZERO for x in self.point_ints)
        return self._point

    @property
    def objective_value(self) -> Fraction | None:
        if self._value is None and self.value_int is not None:
            self._value = Fraction(self.value_int, self.scale)
        return self._value

    @property
    def duals(self) -> tuple[Fraction, ...] | None:
        if self._duals is None and self.dual_ratios is not None:
            self._duals = tuple(Fraction(num, den) for num, den in self.dual_ratios)
        return self._duals

    def _key(self) -> tuple:
        return self.status, self.point, self.objective_value

    def __repr__(self) -> str:
        return (
            f"LPSolution(status={self.status!r}, point={self.point!r}, "
            f"objective_value={self.objective_value!r})"
        )


class _Infeasible(Exception):
    pass


class _Unbounded(Exception):
    pass


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve exactly; the returned point is re-verified against every constraint."""
    try:
        point, scale, duals = _solve(lp)
    except _Infeasible:
        return LPSolution("infeasible")
    except _Unbounded:
        return LPSolution("unbounded")
    _verify(lp, point, scale)
    value = sum(map(operator.mul, lp._obj_num, point))
    if lp._obj_den != 1:  # the value is over obj_den * scale; bring the point there too
        point = [x * lp._obj_den for x in point]
        scale *= lp._obj_den
    return LPSolution._optimal(tuple(point), value, scale, duals)


def _verify(lp: LinearProgram, point: Sequence[int], scale: int) -> None:
    """Check every constraint and bound, exactly, at the point ``point / scale``."""
    for k, row in enumerate(lp.constraints):
        if not row._holds(point, scale):
            raise AssertionError(f"solver bug: constraint {k} violated at {point} / {scale}")
    for j, (lo, hi) in enumerate(lp._bound_num):
        x = point[j] * lp._bound_den
        if lo is not None and x < lo * scale:
            raise AssertionError(f"solver bug: lower bound of variable {j} violated")
        if hi is not None and x > hi * scale:
            raise AssertionError(f"solver bug: upper bound of variable {j} violated")


def _solve(lp: LinearProgram) -> tuple[list[int], int, tuple[tuple[int, int], ...]]:
    """The optimal point as ints over one positive denominator, that
    denominator, and each dual as an int ``(num, den)`` pair."""
    # Rewrite onto nonnegative internal variables:
    #   lb only      x = lb + y
    #   ub only      x = ub - y
    #   both         x = lb + y plus a row y <= ub - lb
    #   free         x = y+ - y-
    # columns[j] = (sign, offset, column, negative column or None) with
    # x_j = sign*y_col + offset/scale; every offset is an int over `scale`.
    scale = lp._bound_den
    columns: list[tuple[int, int, int, int | None]] = []
    widths: list[tuple[int, int]] = []  # (column, (ub - lb) * scale)
    n_internal = 0
    for lo, hi in lp._bound_num:
        if lo is not None:
            columns.append((1, lo, n_internal, None))
            if hi is not None:
                if hi < lo:
                    raise _Infeasible
                widths.append((n_internal, hi - lo))
            n_internal += 1
        elif hi is not None:
            columns.append((-1, hi, n_internal, None))
            n_internal += 1
        else:
            columns.append((1, 0, n_internal, n_internal + 1))
            n_internal += 2

    # Each tableau row is written once, at full width: the internal
    # variables, one own column per row (which `_simplex` sets) and the rhs.
    # Every constraint row is the row as given times one multiple M, the lcm
    # of the rows' denominators times the bounds' scale, so all rows are ints.
    size = n_internal + len(lp.constraints) + len(widths) + 1
    lcm = math.lcm(*(con._den for con in lp.constraints))
    rows: list[list[int]] = []
    rels: list[str] = []
    for con in lp.constraints:
        ints, m = con._num, lcm // con._den
        row = [0] * size
        b = ints[-1] * m * scale
        for a, (sign, offset, col, neg) in zip(ints, columns):
            if a:
                a *= m
                row[col] += a * sign * scale
                if neg is not None:
                    row[neg] -= a * scale
                b -= a * offset
        row[-1] = b
        rows.append(row)
        rels.append(con.relation)
    # A two-sided bound's row scale * y <= width stays at the bounds' scale:
    # it starts on its slack, never enters phase 1 and reports no dual.
    for col, width in widths:
        row = [0] * size
        row[col], row[-1] = scale, width
        rows.append(row)
        rels.append(LESS_EQUAL)

    obj, obj_den = lp._obj_num, lp._obj_den
    cost = [0] * size
    for a, (sign, _, col, neg) in zip(obj, columns):
        cost[col] += a * sign
        if neg is not None:
            cost[neg] -= a
    if lp.maximize:
        cost = [-c for c in cost]

    y, prices, d = _simplex(rows, rels, cost)

    # x_j = sign * y/d + offset/scale, over the one denominator d * scale.
    point = []
    for sign, offset, col, neg in columns:
        val = y[col] if neg is None else y[col] - y[neg]
        point.append(sign * val * scale + offset * d)
    # prices/d are the duals of the int rows for the int cost row; undo the
    # multiple, the objective's denominator and the sign flip of a maximum.
    sense = (-lcm if lp.maximize else lcm) * scale
    duals = tuple((sense * price, obj_den * d) for price in prices[: len(lp.constraints)])
    return point, d * scale, duals


def fraction_free_pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Fraction-free Gauss-Jordan step on `rows[r][c] > 0`; returns the new `d`.

    `rows` holds D * t as ints, where t is the exact rational tableau and
    `d` = D > 0 is its common denominator.  Pivoting on p = rows[r][c] keeps
    row r and replaces each other entry v by (p*v - f*q) // d, f being that
    row's entry in column c and q the pivot row's entry in v's column; the
    new common denominator is p.  By Sylvester's identity every result is,
    up to sign, a determinant of the starting int matrix, so the division is
    exact and no entry outgrows those determinants.  Negating a row before
    pivoting on it keeps all of this true.

    When p = d, as in most pivots of a sparse tableau, the new entry is
    v - f*q // d, and f*q // d is exact since it is the difference of two
    ints.  So an entry changes only where f and q are both nonzero: rows
    with f = 0 are left alone, and the others are updated in place at the
    pivot row's nonzero columns only.  The rows must be distinct lists.
    """
    prow = rows[r]
    p = prow[c]
    if p == d:
        pairs = [(k, q) for k, q in enumerate(prow) if q]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for k, q in pairs:
                    row[k] -= f * q // d
        return p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * v - f * q) // d for v, q in zip(row, prow)]
        else:
            rows[i] = [p * v // d for v in row]
    return p


def _simplex(rows, rels, cost) -> tuple[list[int], list[int], int]:
    """Two-phase tableau simplex over y >= 0 on int data.

    Each row and the cost come at the tableau's full width: the n
    variables, one zero column per row and the rhs last.  `rows` becomes the
    tableau: each row's own column is set in place, and a row whose rhs is
    negative is replaced by its negation.  Returns an optimal y and each
    row's dual value (for the int rows and the int cost), both as ints over
    the returned common denominator, and that denominator; or raises.  The
    caller hands over every row that may need an artificial as the row it
    started from times one positive multiple: then phase 1, the plain sum of
    the artificials, is a positive multiple of the sum over the rows as
    given, and the pivots are theirs.
    """
    m = len(rows)
    width = len(cost) - 1
    n = width - m

    # Equality form, rhs made nonnegative.  Every row gets one own column,
    # its slack or, for an equality row, its artificial, with a +-1
    # coefficient whatever the row's scale: that only rescales the variable
    # and changes no sign that Bland's rule reads.  The columns are the
    # variables, the slacks in row order, the equality artificials in row
    # order and the rhs, and the final cost row reads each row's dual at its
    # own column.  A row whose slack reads +1 once its rhs is nonnegative
    # starts with that slack basic.  The others start with an artificial,
    # which comes after the slacks in Bland's order and never enters; the
    # k-th of them gets the basis id total + k.  Only an equality row's
    # artificial is a stored column, so the other ids lie past the columns.
    total = n + sum(rel != EQUAL for rel in rels)
    basis: list[int] = []
    own: list[tuple[int, int]] = []  # (column, its coefficient in the row as given)
    needs_artificial: list[int] = []
    slack_at, artificial_at = n, total
    for r, (row, rel) in enumerate(zip(rows, rels)):
        negative = row[-1] < 0
        if rel == EQUAL:
            col, coefficient = artificial_at, -1 if negative else 1
            artificial_at += 1
        else:
            col, coefficient = slack_at, 1 if rel == LESS_EQUAL else -1
            slack_at += 1
        row[col] = coefficient
        if negative:
            rows[r] = row = [-v for v in row]
        own.append((col, coefficient))
        if col < total and row[col] == 1:
            basis.append(col)
        else:
            basis.append(total + len(needs_artificial))
            needs_artificial.append(r)

    # The phase-2 cost row rides along as one more row from the start, so
    # every pivot keeps it over the same denominator; the starting basis
    # costs nothing, so it needs no elimination.
    d = 1
    rows.append(cost)
    if needs_artificial:
        # Reduced costs of min(sum of artificials); the last entry tracks
        # minus the current objective value.
        phase1 = [-sum(column) for column in zip(*map(rows.__getitem__, needs_artificial))]
        phase1[total:width] = [0] * (width - total)
        rows.append(phase1)

        d = _pivot_until_optimal(rows, basis, m + 1, total, d)
        if rows.pop()[-1] != 0:
            raise _Infeasible

        # Drive leftover artificials out of the basis; a zero row is redundant.
        drop_rows = []
        for r in range(m):
            if basis[r] >= total:
                col = next((k for k in range(total) if rows[r][k] != 0), None)
                if col is None:
                    drop_rows.append(r)
                    continue
                if rows[r][col] < 0:
                    rows[r] = [-v for v in rows[r]]
                d = fraction_free_pivot(rows, r, col, d)
                basis[r] = col
        for r in reversed(drop_rows):
            del rows[r]
            del basis[r]

    # Phase 2 on the original cost.
    d = _pivot_until_optimal(rows, basis, len(basis), total, d)

    y = [0] * n
    for r, b in enumerate(basis):
        if b < n:
            y[b] = rows[r][-1]
    # The cost row is D*(c - pi*A) over the rows as given, so a row's own
    # column reads -pi_r times that column's coefficient in the row as given.
    cost_row = rows[-1]
    prices = [-coefficient * cost_row[col] for col, coefficient in own]
    return y, prices, d


def _pivot_until_optimal(tableau, basis, cost, limit, d) -> int:
    """Bland's rule on the cost row `tableau[cost]`; returns the new denominator."""
    while True:
        # Entering column: lowest index with a negative reduced cost.
        cost_row = tableau[cost]
        enter = next((k for k in range(limit) if cost_row[k] < 0), None)
        if enter is None:
            return d
        # Leaving row: least rhs/a over a > 0, compared by cross-multiplying.
        # The ratio starts at 1/0, an infinite one: rhs * 0 < 1 * a for every
        # a > 0, so the first candidate always replaces it, never by a tie.
        leave, top, bottom = None, 1, 0
        for r, b in enumerate(basis):
            row = tableau[r]
            a = row[enter]
            if a > 0:
                new, best = row[-1] * bottom, top * a
                if new < best or (new == best and b < basis[leave]):
                    leave, top, bottom = r, row[-1], a
        if leave is None:
            raise _Unbounded
        d = fraction_free_pivot(tableau, leave, enter, d)
        basis[leave] = enter
