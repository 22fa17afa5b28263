"""Definition-direct oracles that render each op's expected report.

Nothing here imports optimin.  Each oracle recomputes the op's answer from
the definitions: pure values by enumerating deviation profiles, Pareto sets
by the quadratic domination scan, LP optima by vertex enumeration, the
nucleolus by sequential LPs solved by vertex enumeration, and core claims by
checking the witness or a balanced-collection certificate.  The result is the
report text the CLI must print, byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

# -- formatting (mirrors the documented table format) ----------------------------


def fmt(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator} (~{float(value):.3f})"


def vec(values) -> str:
    return "(" + ", ".join(fmt(v) for v in values) + ")"


# -- shared definitions ---------------------------------------------------------------


def pareto_keep(vectors: list[tuple]) -> list[bool]:
    """Quadratic scan: keep v unless some w >= v coordinatewise with w != v."""
    distinct = list(dict.fromkeys(vectors))
    dominated = {
        v for v in distinct for w in distinct if w != v and all(a >= b for a, b in zip(w, v))
    }
    return [v not in dominated for v in vectors]


def pure_value(cells: dict, shape: tuple[int, ...], profile: tuple[int, ...]) -> tuple:
    """Each player's minimum payoff over the agreement and every profile in
    which the others play their agreed strategy or a strictly better reply."""
    n = len(shape)
    values = []
    for i in range(n):
        factors = []
        for j in range(n):
            if j == i:
                factors.append([profile[j]])
                continue
            base = cells[profile][j]
            opts = [profile[j]]
            for s in range(shape[j]):
                alt = profile[:j] + (s,) + profile[j + 1 :]
                if cells[alt][j] > base:
                    opts.append(s)
            factors.append(opts)
        values.append(min(cells[full][i] for full in product(*factors)))
    return tuple(values)


def nash_cells(cells: dict, shape: tuple[int, ...]) -> list[tuple]:
    out = []
    for prof in product(*(range(k) for k in shape)):
        stable = True
        for i in range(len(shape)):
            for s in range(shape[i]):
                alt = prof[:i] + (s,) + prof[i + 1 :]
                if cells[alt][i] > cells[prof][i]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(prof)
    return out


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Unique solution of a square system by exact elimination, else None."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def vertices(equalities, inequalities, dim: int):
    """Every vertex of {x : a.x = b for equalities, a.x >= b for inequalities}.

    Each is the unique solution of the equalities plus `dim - len(equalities)`
    tight inequalities that also satisfies all inequalities.
    """
    free = dim - len(equalities)
    seen = set()
    for tight in combinations(range(len(inequalities)), free):
        rows = [a for a, _ in equalities] + [inequalities[k][0] for k in tight]
        rhs = [b for _, b in equalities] + [inequalities[k][1] for k in tight]
        x = solve_square(rows, rhs)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(a, x)) >= b for a, b in inequalities):
            key = tuple(x)
            if key not in seen:
                seen.add(key)
                yield key


# -- claim-sweep ------------------------------------------------------------------------


def claim_report(reward: Fraction, low: int = 2, high: int = 100) -> str:
    claims = list(range(low, high + 1))
    size = len(claims)
    cells = {}
    for a, ca in enumerate(claims):
        for b, cb in enumerate(claims):
            if ca == cb:
                cells[(a, b)] = (Fraction(ca), Fraction(cb))
            elif ca < cb:
                cells[(a, b)] = (ca + reward, ca - reward)
            else:
                cells[(a, b)] = (cb - reward, cb + reward)
    shape = (size, size)
    profiles = list(product(range(size), range(size)))
    values = [pure_value(cells, shape, p) for p in profiles]
    kept = [p for p, keep in zip(profiles, pareto_keep(values)) if keep]
    nash = nash_cells(cells, shape)

    def label_set(profs) -> str:
        return "; ".join("(" + ",".join(str(claims[s]) for s in p) + ")" for p in profs)

    return f"r\toptimin\tnash\n{fmt(reward)}\t{label_set(kept)}\t{label_set(nash)}\nthreshold: none\n"


# -- normal-form games in pure mode -------------------------------------------------------


def pure_optimin_report(data: dict) -> str:
    shape = tuple(len(s) for s in data["strategies"])
    cells = data["cells"]
    profiles = list(product(*(range(k) for k in shape)))
    values = [pure_value(cells, shape, p) for p in profiles]
    lines = []
    for p, v, keep in zip(profiles, values, pareto_keep(values)):
        if keep:
            labels = ", ".join(data["strategies"][i][s] for i, s in enumerate(p))
            lines.append(f"  ({labels})  value {vec(v)}")
    return "\n".join(["mode: pure", f"optimin points: {len(lines)}"] + lines) + "\n"


# -- two-player mixed grid ------------------------------------------------------------------


def simplex_grid(size: int, k: int) -> list[tuple[Fraction, ...]]:
    """Weights in multiples of 1/k summing to 1, first weight slowest-varying
    and ascending."""
    out = []
    for ws in product(range(k + 1), repeat=size - 1):
        if sum(ws) <= k:
            out.append(tuple(Fraction(w, k) for w in ws + (k - sum(ws),)))
    return out


def mixed_value(cells: dict, shape, profile) -> tuple:
    """Worst case over mixed deviations: min of mine.q over the closure
    {q in simplex : theirs.q >= e_j} (vertex enumeration), or the agreement's
    own payoff when no pure reply beats e_j."""
    p, q = profile
    expected = [Fraction(0), Fraction(0)]
    for a, b in product(range(shape[0]), range(shape[1])):
        for i in (0, 1):
            expected[i] += p[a] * q[b] * cells[(a, b)][i]
    values = []
    for i in (0, 1):
        j = 1 - i
        own = profile[i]
        mine, theirs = [], []
        for t in range(shape[j]):
            ui = uj = Fraction(0)
            for s, w in enumerate(own):
                cell = cells[(s, t) if i == 0 else (t, s)]
                ui += w * cell[i]
                uj += w * cell[j]
            mine.append(ui)
            theirs.append(uj)
        if max(theirs) <= expected[j]:
            values.append(expected[i])
            continue
        m = shape[j]
        unit = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
        ineq = [(theirs, expected[j])] + [(unit[t], Fraction(0)) for t in range(m)]
        eq = [([Fraction(1)] * m, Fraction(1))]
        values.append(min(sum(c * x for c, x in zip(mine, v)) for v in vertices(eq, ineq, m)))
    return tuple(values)


def mixed_grid_report(data: dict, k: int = 4) -> str:
    shape = tuple(len(s) for s in data["strategies"])
    cells = data["cells"]
    profiles = [(p, q) for p in simplex_grid(shape[0], k) for q in simplex_grid(shape[1], k)]
    values = [mixed_value(cells, shape, prof) for prof in profiles]
    lines = []
    for prof, v, keep in zip(profiles, values, pareto_keep(values)):
        if keep:
            lines.append(f"  {vec(prof[0])} x {vec(prof[1])}  value {vec(v)}")
    mode = f"mode: mixed-grid {k} (grid-approximate)"
    return "\n".join([mode, f"optimin points: {len(lines)}"] + lines) + "\n"


# -- marriage problems ------------------------------------------------------------------------


def all_matchings(side_a, side_b) -> list[dict]:
    out = []
    for partners in product(*([None] + list(side_b) for _ in side_a)):
        taken = [b for b in partners if b is not None]
        if len(set(taken)) != len(taken):
            continue
        pairs = {p: p for p in side_a + side_b}
        for a, b in zip(side_a, partners):
            if b is not None:
                pairs[a], pairs[b] = b, a
        out.append(pairs)
    out.sort(key=lambda m: tuple(sorted(m.items())))
    return out


def match_worst(data: dict, pairs: dict) -> dict:
    """Worst outcome per person over the matching and every profitable group
    deviation.  A member of a deviating group strictly improves; an outsider
    whose partner joins one is left single.  Some profitable group takes q
    away from p exactly when a profitable group of one or two does ({q}
    leaving alone, or {q, t} rematching), since q's own improvement inside
    any group is one of those two moves; so those groups are enumerated."""
    prefs = data["prefs"]
    rank = {p: {c: k for k, c in enumerate(r)} for p, r in prefs.items()}

    def better(person, new):
        return rank[person][new] < rank[person][pairs[person]]

    everyone = data["A"] + data["B"]
    groups = [(q,) for q in everyone if better(q, q)]
    groups += [
        (a, b) for a in data["A"] for b in data["B"] if pairs[a] != b and better(a, b) and better(b, a)
    ]
    worst = {}
    for p in everyone:
        outcome = pairs[p]
        q = pairs[p]
        if q != p and any(q in g and p not in g for g in groups):
            if rank[p][p] > rank[p][outcome]:
                outcome = p
        worst[p] = outcome
    return worst


def match_report(data: dict) -> str:
    everyone = data["A"] + data["B"]
    rank = {p: {c: k for k, c in enumerate(r)} for p, r in data["prefs"].items()}
    matchings = all_matchings(data["A"], data["B"])
    vectors = []
    for m in matchings:
        worst = match_worst(data, m)
        vectors.append(tuple(-rank[p][worst[p]] for p in everyone))
    lines = []
    for m, keep in zip(matchings, pareto_keep(vectors)):
        if not keep:
            continue
        inside = ", ".join(f"{a}={m[a]}" for a in data["A"] if m[a] != a)
        singles = [p for p in everyone if m[p] == p]
        extra = f" singles: {', '.join(singles)}" if singles else ""
        lines.append("  " + (inside or "(all single)") + extra)
    return "\n".join([f"optimin matchings: {len(lines)}"] + lines) + "\n"


# -- TU games ----------------------------------------------------------------------------------


def _in(mask: int, i: int) -> bool:
    return bool(mask >> i & 1)


def _sum(x, mask: int) -> Fraction:
    return sum((v for i, v in enumerate(x) if _in(mask, i)), Fraction(0))


def coop_value(data: dict, x) -> tuple:
    """Worst case: a coalition S without i with x(S) < u(S) breaks away and
    the complement shares its shortfall equally."""
    n, worth = data["n"], data["worth"]
    full = (1 << n) - 1
    out = []
    for i in range(n):
        best = Fraction(x[i])
        for mask in range(1, full):
            if _in(mask, i) or _sum(x, mask) >= worth[mask]:
                continue
            rest = full ^ mask
            cand = x[i] - Fraction(_sum(x, rest) - worth[rest], bin(rest).count("1"))
            best = min(best, cand)
        out.append(best)
    return tuple(out)


def coop_optimin_report(data: dict) -> str:
    n, worth = data["n"], data["worth"]
    full = (1 << n) - 1
    lows = [worth[1 << i] for i in range(n)]
    total = worth[full]
    points = []
    for head in product(*(range(lo, total + 1) for lo in lows[:-1])):
        last = total - sum(head)
        if last >= lows[-1]:
            points.append(head + (last,))
    values = [coop_value(data, x) for x in points]
    lines = [
        f"  {vec(x)}  value {vec(v)}" for x, v, keep in zip(points, values, pareto_keep(values)) if keep
    ]
    mode = "mode: grid-step 1 (grid-approximate)"
    return "\n".join([mode, f"optimin allocations: {len(lines)}"] + lines) + "\n"


def nucleolus(data: dict) -> tuple:
    """Sequential LPs over imputations, each solved by vertex enumeration.

    Stage k minimizes the largest free excess eps over (x, eps); the optimal
    face is the hull of the optimal vertices, so a coalition's excess equals
    eps on the whole face iff it does at every optimal vertex.  Those
    coalitions are pinned at eps and the next stage starts, until the pinned
    equalities and efficiency determine x.
    """
    n, worth = data["n"], data["worth"]
    full = (1 << n) - 1
    dim = n + 1  # x_0..x_{n-1}, eps
    one, zero = Fraction(1), Fraction(0)

    def row(mask: int, eps_coeff) -> list[Fraction]:
        return [one if _in(mask, i) else zero for i in range(n)] + [Fraction(eps_coeff)]

    pinned: list[tuple[int, Fraction]] = []
    free = list(range(1, full))
    while True:
        eqs = [(row(full, 0), Fraction(worth[full]))]
        eqs += [(row(mask, 0), worth[mask] - level) for mask, level in pinned]
        point = _determined(eqs, n)
        if point is not None:
            return point
        # Drop dependent pinned rows so the vertex systems stay square.
        eqs = _independent(eqs)
        ineqs = [([one if i == k else zero for i in range(n)] + [zero], Fraction(worth[1 << k])) for k in range(n)]
        ineqs += [(row(mask, 1), Fraction(worth[mask])) for mask in free]
        verts = list(vertices(eqs, ineqs, dim))
        eps = min(v[n] for v in verts)
        optimal = [v for v in verts if v[n] == eps]
        newly = [
            mask for mask in free if all(worth[mask] - _sum(v[:n], mask) == eps for v in optimal)
        ]
        if not newly:
            raise AssertionError("no coalition tight on the optimal face")
        for mask in newly:
            pinned.append((mask, eps))
            free.remove(mask)


def _rank_rows(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _independent(eqs):
    kept = []
    for a, b in eqs:
        if _rank_rows([r for r, _ in kept] + [a]) > len(kept):
            kept.append((a, b))
    return kept


def _determined(eqs, n: int):
    kept = _independent([(a[:n], b) for a, b in eqs])
    if len(kept) < n:
        return None
    return tuple(solve_square([a for a, _ in kept], [b for _, b in kept]))


def nucleolus_report(data: dict) -> str:
    return f"nucleolus: {vec(nucleolus(data))}\n"


def core_report(data: dict, printed: str) -> str:
    """Expected text given the printed claim: an empty core needs a violated
    balanced collection; a nonempty one needs a witness meeting every
    coalition constraint and efficiency."""
    n, worth = data["n"], data["worth"]
    full = (1 << n) - 1
    if printed == "core: empty (LP infeasible)\n":
        if not _core_certificate(n, worth):
            raise AssertionError("core reported empty but no balanced collection is violated")
        return printed
    lines = printed.splitlines()
    prefix = "  witness ("
    if len(lines) != 2 or lines[0] != "core: nonempty" or not lines[1].startswith(prefix):
        raise AssertionError(f"unrecognised core report {printed!r}")
    witness = tuple(Fraction(tok.split(" ")[0]) for tok in lines[1][len(prefix) : -1].split(", "))
    if len(witness) != n or sum(witness) != worth[full]:
        raise AssertionError("core witness is not efficient")
    for mask in range(1, full):
        if _sum(witness, mask) < worth[mask]:
            raise AssertionError(f"core witness violates coalition {mask}")
    return f"core: nonempty\n  witness {vec(witness)}\n"


def _core_certificate(n: int, worth: dict) -> bool:
    """Bondareva-Shapley: the core is empty when a balanced collection's
    weighted worth exceeds u(N).  Checks {N minus i} with weights 1/(n-1)."""
    full = (1 << n) - 1
    return Fraction(sum(worth[full ^ (1 << i)] for i in range(n)), n - 1) > worth[full]


# -- dispatch ----------------------------------------------------------------------------------


def expected_report(kind: str, data: dict, printed: str) -> str:
    if kind == "claim":
        return claim_report(data["reward"])
    if kind == "game3":
        return pure_optimin_report(data)
    if kind == "mixed3":
        return mixed_grid_report(data)
    if kind == "match5":
        return match_report(data)
    if kind == "coop4":
        return coop_optimin_report(data)
    if kind == "nucleolus4":
        return nucleolus_report(data)
    if kind == "core5":
        return core_report(data, printed)
    raise ValueError(f"unknown op kind {kind!r}")
