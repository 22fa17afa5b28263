"""Command-line front end.

Reports are deterministic byte-for-byte for identical inputs.  `--threads`
is accepted, but the solvers run serially, so it changes neither content
nor order.  Table mode prints exact
rationals with a 3-place decimal hint for non-integers; JSON mode carries
exact strings only.  Exit codes: 0 success, 1 domain/resource/format errors,
2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence, get_args

from . import coop, decisions, fileio, generators, matching, noncoop, zerosum
from .errors import SWEEP_MAX_POINTS, DomainError, OptiminError, ParameterError, ResourceLimitError
from .games import NormalFormGame, is_constant_sum
from .generators import COOP_TAGS, GAME_TAGS
from .rational import format_table, json_number, json_ratio, table_ratio, to_fraction


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            raise ParameterError("--out needs a file path, got an empty string")
        load = getattr(args, "load", None)
        if load is None:
            return args.handler(args)
        return args.handler(args, load(args.game))
    except OptiminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # building it costs about as much as a small solve.
    parser = argparse.ArgumentParser(
        prog="optimin",
        description="Worst-case-optimal agreements in games, markets, and decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reports = []

    def group(name, summary):
        return sub.add_parser(name, help=summary).add_subparsers(dest=f"{name}_command", required=True)

    def report(parent, name, handler, load=None, game_help=None, **kwargs):
        """Declare a report command: `--game`, which `main` reads with `load`
        and hands to `handler`, then the caller's own flags, then the report
        flags, which the loop below adds to every report."""
        p = parent.add_parser(name, **kwargs)
        if load is not None:
            p.add_argument("--game", required=True, help=game_help)
        p.set_defaults(handler=handler, load=load)
        reports.append(p)
        return p

    nf_optimin = report(
        sub, "optimin", _cmd_optimin, _load_normal_form, "named tag or JSON file path",
        help="solution set of a normal-form game",
    )
    p = report(
        sub, "value", _cmd_value, _load_normal_form, help="worst-case value table or a single profile's value"
    )
    p.add_argument("--profile", help="comma-joined strategy labels")
    report(sub, "nash", _cmd_nash, _load_normal_form, help="pure equilibrium cells")
    report(sub, "maximin", _cmd_maximin, _load_normal_form, help="pure maximin strategies and security levels")

    zp = group("zerosum", "zero-sum games")
    report(zp, "solve", _cmd_zerosum_solve, _load_normal_form, help="optimal mixtures and game value")

    cp = group("coop", "characteristic-function games")
    report(cp, "core", _cmd_coop_core, _load_tu)
    report(cp, "shapley", _cmd_coop_shapley, _load_tu)
    report(cp, "nucleolus", _cmd_coop_nucleolus, _load_tu)
    p = report(cp, "optimin", _cmd_coop_optimin, _load_tu)
    p.add_argument("--step", default="1")
    p.add_argument("--floor", help="widen every player's grid lower bound below their own worth")
    p = report(cp, "value", _cmd_coop_value, _load_tu)
    p.add_argument("--alloc", required=True, help="comma-joined payoffs")

    mp = group("match", "two-sided matching problems")
    problem = "problem JSON file"
    pairs = {"required": True, "help": "pairs like a1=b1,a2=b2"}
    p = report(mp, "da", _cmd_match_da, _load_marriage, problem)
    p.add_argument("--propose", choices=("A", "B"), default="A")
    report(mp, "stable", _cmd_match_stable, _load_marriage, problem).add_argument("--matching", **pairs)
    report(mp, "optimin", _cmd_match_optimin, _load_marriage, problem)
    report(mp, "value", _cmd_match_value, _load_marriage, problem).add_argument("--matching", **pairs)
    p = report(mp, "deviations", _cmd_match_deviations, _load_marriage, problem)
    p.add_argument("--matching", **pairs)

    dp = group("decide", "decision problems under optimism constraints")
    report(dp, "solve", _cmd_decide_solve, _load_decision)
    report(dp, "check", _cmd_decide_check, _load_decision)

    p = sub.add_parser("gen", help="write a generated game to a file")
    p.add_argument("family", choices=tuple(dict.fromkeys(generators.NAMED_TAGS + tuple(generators.FAMILIES))))
    p.add_argument("--out", required=True)
    _family_flags(p, sweeping=False)
    p.set_defaults(handler=_cmd_gen)

    p = report(sub, "sweep", _cmd_sweep, help="solution sets across a parameter range")
    p.add_argument("--family", required=True, choices=[k for k, f in generators.FAMILIES.items() if f.swept])
    p.add_argument("--param", required=True)
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--to", dest="stop", required=True)
    p.add_argument("--step", default="1")
    _family_flags(p, sweeping=True)
    p.add_argument("--out")

    sub.add_parser("selftest", help="re-derive the built-in golden results").set_defaults(handler=_cmd_selftest)

    for p in reports:
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--threads", type=int, default=1)
    mode = nf_optimin.add_mutually_exclusive_group()  # listed after the report flags in its help
    mode.add_argument("--pure", action="store_true", default=False)
    mode.add_argument("--mixed-grid", type=int, metavar="K", default=None)
    return parser


# -- shared helpers --------------------------------------------------------


# The loaders `_build_parser` stores look `fileio` up when they run: the
# parser is cached, and a tracer that rebinds `fileio.load_*` after it is
# built must still see every load.
def _load_normal_form(spec: str) -> NormalFormGame:
    # A named instance needs no file; "bulmer" lives in the zero-sum module.
    if spec == "bulmer":
        return zerosum.bulmer_game().game
    if spec in GAME_TAGS:
        return generators.gen_named(spec)
    return fileio.load_game(spec)


def _load_tu(spec: str):
    if spec in COOP_TAGS:
        return generators.gen_named(spec)
    return fileio.load_tu_game(spec)


def _load_marriage(spec: str):
    return fileio.load_marriage(spec)


def _load_decision(spec: str):
    return fileio.load_decision(spec)


def _vector(values) -> str:
    return "(" + ", ".join(format_table(v) for v in values) + ")"


def _profile_str(labels) -> str:
    return "(" + ", ".join(labels) + ")"


def _emit(args, table_lines, json_doc, out=None) -> int:
    """Write one report, the only place a report is encoded: the JSON
    document, its exact numbers as ints or "a/b" strings and its tuples as
    arrays, or the table lines.  It goes to stdout, or to the file `out`
    followed by `wrote <out>` on stdout."""
    if args.format == "json":
        text = json.dumps(json_doc, indent=2, default=json_number)
    else:
        text = "\n".join(table_lines)
    if out is None:
        print(text)
    else:
        fileio.write_text(out, (text, "\n"))
        print(f"wrote {out}")
    return 0


# -- normal-form commands ----------------------------------------------------


def _cmd_optimin(args, game) -> int:
    if args.mixed_grid is not None:
        result = noncoop.optimin_grid_2p(game, args.mixed_grid)
        mode = f"mixed-grid {result.resolution} (grid-approximate)"
        lines = [f"mode: {mode}", f"optimin points: {len(result.entries)}"]
        entries_json = []
        for entry in result.entries:
            mixtures = " x ".join(_vector(dist) for dist in entry.profile)
            lines.append(f"  {mixtures}  value {_vector(entry.value)}")
            entries_json.append({"profile": entry.profile, "value": entry.value})
        return _emit(args, lines, {"mode": mode, "optimin": entries_json})
    entries = noncoop.optimin_pure(game)
    lines = ["mode: pure", f"optimin points: {len(entries)}"]
    entries_json = []
    for entry in entries:
        labels = game.profile_labels(entry.profile)
        lines.append(f"  {_profile_str(labels)}  value {_vector(entry.value)}")
        entries_json.append({"profile": labels, "value": entry.value})
    return _emit(args, lines, {"mode": "pure", "optimin": entries_json})


def _cmd_value(args, game) -> int:
    if args.profile is not None:
        profile = game.profile_from_labels([s.strip() for s in args.profile.split(",")])
        entry = noncoop.value_pure(game, profile)
        labels = game.profile_labels(profile)
        lines = ["mode: pure", f"profile: {_profile_str(labels)}", f"value: {_vector(entry.value)}"]
        witnesses_json = []
        for i, wit in enumerate(entry.witnesses):
            wit_labels = game.profile_labels(wit)
            lines.append(f"  worst case for {game.players[i]}: {_profile_str(wit_labels)}")
            witnesses_json.append(wit_labels)
        doc = {"mode": "pure", "profile": labels, "value": entry.value, "witnesses": witnesses_json}
        return _emit(args, lines, doc)
    table = noncoop.value_table(game)
    lines = ["mode: pure", "value table:"]
    rows_json = []
    for prof, vec in table.items():
        labels = game.profile_labels(prof)
        lines.append(f"  {_profile_str(labels)}  {_vector(vec)}")
        rows_json.append({"profile": labels, "value": vec})
    return _emit(args, lines, {"mode": "pure", "values": rows_json})


def _cmd_nash(args, game) -> int:
    cells = noncoop.nash_pure(game)
    lines = ["mode: pure", f"pure Nash equilibria: {len(cells)}"]
    cells_json = []
    for prof in cells:
        labels = game.profile_labels(prof)
        lines.append(f"  {_profile_str(labels)}")
        cells_json.append(labels)
    return _emit(args, lines, {"nash": cells_json})


def _cmd_maximin(args, game) -> int:
    lines = ["mode: pure security levels"]
    players_json = []
    for pm in noncoop.maximin_profile(game):
        names = [game.strategies[pm.player][s] for s in pm.strategies]
        lines.append(
            f"  {game.players[pm.player]}: security {format_table(pm.security)}"
            f"  strategies {{{', '.join(names)}}}"
        )
        players_json.append({"player": game.players[pm.player], "security": pm.security, "strategies": names})
    return _emit(args, lines, {"mode": "pure", "maximin": players_json})


def _cmd_zerosum_solve(args, game) -> int:
    sg = zerosum.StatisticalGame(game)
    lines = ["mode: exact LP"]
    players_json = []
    solutions = [zerosum.maximin_lp(sg, player) for player in (0, 1)]
    for player, sol in enumerate(solutions):
        lines.append(
            f"  {game.players[player]}: mixture {_vector(sol.mixture)}"
            f"  guarantees {format_table(sol.value)}"
        )
        players_json.append({"player": game.players[player], "mixture": sol.mixture, "value": sol.value})
    value = solutions[0].value  # player 0's guarantee, as `zerosum.game_value` gives it
    lines.append(f"game value: {format_table(value)}")
    return _emit(args, lines, {"mode": "exact-lp", "players": players_json, "value": value})


# -- cooperative commands ----------------------------------------------------


def _cmd_coop_core(args, game) -> int:
    result = coop.core(game)
    if result.empty:
        return _emit(args, ["core: empty (LP infeasible)"], {"core": "empty"})
    lines = ["core: nonempty", f"  witness {_vector(result.witness)}"]
    return _emit(args, lines, {"core": "nonempty", "witness": result.witness})


def _cmd_coop_shapley(args, game) -> int:
    value = coop.shapley(game)
    return _emit(args, [f"shapley: {_vector(value)}"], {"shapley": value})


def _cmd_coop_nucleolus(args, game) -> int:
    value = coop.nucleolus(game)
    return _emit(args, [f"nucleolus: {_vector(value)}"], {"nucleolus": value})


def _cmd_coop_optimin(args, game) -> int:
    step = to_fraction(args.step)
    floors = None
    if args.floor is not None:
        floors = [to_fraction(args.floor)] * game.n
    p, q = step.numerator, step.denominator
    kept, scale = coop.optimin_coop_ints(game, p, q, floors)
    mode = f"grid-step {format_table(step)} (grid-approximate)"
    # Each report is formatted from the kernel's ints: allocations over q,
    # values over `scale`.
    if args.format == "json":
        entries_json = [
            {"allocation": [json_ratio(k * p, q) for k in units], "value": [json_ratio(v, scale) for v in values]}
            for units, values in kept
        ]
        return _emit(args, None, {"mode": mode, "optimin": entries_json})
    lines = [f"mode: {mode}", f"optimin allocations: {len(kept)}"]
    for units, values in kept:
        alloc = ", ".join(table_ratio(k * p, q) for k in units)
        value = ", ".join(table_ratio(v, scale) for v in values)
        lines.append(f"  ({alloc})  value ({value})")
    return _emit(args, lines, None)


def _cmd_coop_value(args, game) -> int:
    alloc = tuple(to_fraction(tok.strip()) for tok in args.alloc.split(","))
    value = coop.coop_value(game, alloc)
    lines = [f"allocation: {_vector(alloc)}", f"value: {_vector(value)}"]
    return _emit(args, lines, {"allocation": alloc, "value": value})


# -- matching commands --------------------------------------------------------


def _parse_matching(problem, text: str) -> matching.Matching:
    pairs = {}
    text = text.strip()
    if text:
        for token in text.split(","):
            if "=" not in token:
                raise ParameterError(f"--matching entries look like a=b, got {token!r}")
            left, right = (part.strip() for part in token.split("=", 1))
            pairs[left] = right
            pairs[right] = left
    try:
        return matching.Matching(problem, pairs)
    except DomainError as exc:
        raise ParameterError(f"--matching: {exc}") from None


def _matching_str(m: matching.Matching) -> str:
    pairs = m.matched_pairs()
    singles = [p for p in m.problem.everyone() if m.is_single(p)]
    inside = ", ".join(f"{a}={b}" for a, b in pairs)
    if singles:
        extra = f" singles: {', '.join(singles)}"
    else:
        extra = ""
    return (inside or "(all single)") + extra


def _cmd_match_da(args, problem) -> int:
    result = matching.deferred_acceptance(problem, args.propose)
    lines = [f"proposing side: {args.propose}", f"matching: {_matching_str(result)}"]
    doc = {
        "proposing": args.propose,
        "matching": {a: b for a, b in result.matched_pairs()},
        "singles": [p for p in problem.everyone() if result.is_single(p)],
    }
    return _emit(args, lines, doc)


def _cmd_match_stable(args, problem) -> int:
    m = _parse_matching(problem, args.matching)
    report = matching.is_stable(problem, m)
    if report.stable:
        return _emit(args, ["stable: yes"], {"stable": True})
    if report.blocking_individual is not None:
        line = f"stable: no (individually irrational for {report.blocking_individual})"
        doc = {"stable": False, "blocking_individual": report.blocking_individual}
    else:
        a, b = report.blocking_pair
        line = f"stable: no (blocking pair {a}, {b})"
        doc = {"stable": False, "blocking_pair": report.blocking_pair}
    return _emit(args, [line], doc)


def _cmd_match_optimin(args, problem) -> int:
    results = matching.optimin_matchings(problem)
    lines = [f"optimin matchings: {len(results)}"]
    out = []
    for m in results:
        lines.append(f"  {_matching_str(m)}")
        out.append({a: b for a, b in m.matched_pairs()})
    return _emit(args, lines, {"optimin": out})


def _cmd_match_value(args, problem) -> int:
    m = _parse_matching(problem, args.matching)
    value = matching.matching_value(problem, m)
    lines = ["worst-case outcomes:"]
    doc = {}
    for person, outcome in value.worst:
        shown = outcome if outcome != person else "single"
        lines.append(f"  {person}: {shown}")
        doc[person] = outcome
    return _emit(args, lines, {"value": doc})


def _cmd_match_deviations(args, problem) -> int:
    m = _parse_matching(problem, args.matching)
    devs = matching.profitable_group_deviations(problem, m)
    lines = [f"profitable group deviations: {len(devs)}"]
    out = []
    for dev in devs:
        pairs = {a: b for a, b in dev.rematching}
        shown = ", ".join(f"{a}->{b}" for a, b in dev.rematching)
        lines.append(f"  group {{{', '.join(dev.group)}}}: {shown}")
        out.append({"group": dev.group, "rematching": pairs})
    return _emit(args, lines, {"deviations": out})


# -- decision commands ---------------------------------------------------------


def _cmd_decide_solve(args, decision) -> int:
    result = decisions.optimin_acts(*decision)
    lines = [f"ranking: {result.ranking}", f"optimin agreements: {len(result.profiles)}"]
    entries = []
    for profile, value in zip(result.profiles, result.values):
        shown = format_table(value.dm)
        if value.nature is not None:
            shown += f", nature {format_table(value.nature)}"
        lines.append(f"  ({profile[0]}, {profile[1]})  value {shown}")
        entry = {"act": profile[0], "state": profile[1], "value": value.dm}
        if value.nature is not None:
            entry["nature_value"] = value.nature
        entries.append(entry)
    lines.append(f"acts: {', '.join(result.acts)}")
    return _emit(args, lines, {"ranking": result.ranking, "optimin": entries, "acts": result.acts})


def _cmd_decide_check(args, decision) -> int:
    report = decisions.gilboa_reduction_check(*decision)
    lines = [
        f"constant constraint: {'yes' if report.constant_constraint else 'no'}",
        f"comparison by decision maker alone: {'yes' if report.dm_only_comparison else 'no'}",
        f"hypotheses hold: {'yes' if report.hypotheses_hold else 'no'}",
    ]
    if report.verified is None:
        lines.append("reduction: not asserted")
    else:
        lines.append(f"reduction to security maximization: {'confirmed' if report.verified else 'FAILED'}")
    for note in report.notes:
        lines.append(f"note: {note}")
    doc = {
        "constant_constraint": report.constant_constraint,
        "dm_only": report.dm_only_comparison,
        "hypotheses_hold": report.hypotheses_hold,
        "verified": report.verified,
        "notes": report.notes,
    }
    return _emit(args, lines, doc)


# -- generation and sweeps -------------------------------------------------------


# A family flag's type, by its parameter's annotation; a Literal gives choices.
_FLAG_TYPES = {int: int, Sequence: lambda text: text.split(",")}


def _family_flags(p, sweeping: bool) -> None:
    """One flag per family parameter, in table and signature order, with no
    default, so one left out keeps the generator's; none for what `sweep` varies."""
    for family in generators.FAMILIES.values():
        for name, (flag, hint) in family.parameters.items():
            if not (sweeping and family.swept in (None, name)):
                kind = _FLAG_TYPES.get(hint, str)
                p.add_argument(f"--{flag}", default=argparse.SUPPRESS, type=kind, choices=get_args(hint) or None)


def _family_params(args, family) -> dict:
    """The family flags given, keyed by `family`'s parameters (None for a
    named instance, which takes none); refuse a flag of another family."""
    own = {flag: name for name, (flag, _) in family.parameters.items()} if family else {}
    given = [flag for f in generators.FAMILIES.values() for flag, _ in f.parameters.values() if hasattr(args, flag)]
    for flag in given:
        if flag not in own:
            raise ParameterError(f"--{flag} is not a flag of {args.family}")
    return {own[flag]: getattr(args, flag) for flag in given}


def _cmd_gen(args) -> int:
    family = generators.FAMILIES.get(args.family)
    params = _family_params(args, family)
    obj = family.build(**params) if family else generators.gen_named(args.family)
    if isinstance(obj, NormalFormGame):
        pieces = fileio.game_pieces(obj)
    else:
        pieces = [fileio.dump_tu_game(obj)]
    fileio.write_text(args.out, pieces)
    print(f"wrote {args.out}")
    return 0


def _sweep_values(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    """start, start + step, ... up to stop, counted before any is built."""
    if step <= 0 or stop < start:
        raise ParameterError("need --from <= --to and a positive --step")
    count = (stop - start) // step + 1
    if count > SWEEP_MAX_POINTS:
        what = f"sweep of {count} points"
        raise ResourceLimitError.past(what, SWEEP_MAX_POINTS, "point", "SWEEP_MAX_POINTS", "raise --step")
    return [start + k * step for k in range(count)]


def _cmd_sweep(args) -> int:
    values = _sweep_values(to_fraction(args.start), to_fraction(args.stop), to_fraction(args.step))
    fixed = _family_params(args, generators.FAMILIES[args.family])
    result = generators.sweep(args.family, args.param, values, **fixed)

    def profile_set(profiles) -> str:
        return "; ".join("(" + ",".join(p) + ")" for p in profiles)

    lines = [f"{result.parameter}\toptimin\tnash"]
    rows_json = []
    for row in result.rows:
        lines.append(f"{format_table(row.parameter)}\t{profile_set(row.optimin)}\t{profile_set(row.nash)}")
        rows_json.append({"value": row.parameter, "optimin": row.optimin, "nash": row.nash})
    threshold = result.threshold
    lines.append(f"threshold: {'none' if threshold is None else format_table(threshold)}")
    doc = {"family": result.family, "parameter": result.parameter, "rows": rows_json, "threshold": threshold}
    return _emit(args, lines, doc, args.out)


# -- selftest ----------------------------------------------------------------


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    failures = 0
    for name, fn in checks:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(checks) - failures}/{len(checks)} golden checks passed")
    return 0 if failures == 0 else 1


def _selftest_checks():
    F = Fraction

    def check(condition: bool, message: str) -> None:
        # Not a bare assert: `python -O` strips those, and a golden check must hold.
        if not condition:
            raise AssertionError(message)

    def figure1_payoffs():
        g = generators.gen_named("figure1")
        check(g.payoff((0, 0)) == (100, 100), "payoff at (Top,Left)")
        check(g.payoff((2, 1)) == (210, 0), "payoff at (Bottom,Center)")
        check(not is_constant_sum(g).is_constant_sum, "cell sums differ")

    def figure1_values():
        g = generators.gen_named("figure1")
        expected = {
            (0, 0): (100, 100), (0, 1): (100, 0), (0, 2): (0, 0),
            (1, 0): (0, 100), (1, 1): (0, 0), (1, 2): (0, 5),
            (2, 0): (0, 0), (2, 1): (5, 0), (2, 2): (5, 5),
        }
        table = noncoop.value_table(g)
        for prof, vec in expected.items():
            check(table[prof] == tuple(F(x) for x in vec), f"value at {prof}")

    def figure1_solutions():
        g = generators.gen_named("figure1")
        opt = noncoop.optimin_pure(g)
        check([e.profile for e in opt] == [(0, 0)], "unique optimin point (Top,Left)")
        check(noncoop.nash_pure(g) == [(2, 2)], "unique Nash (Bottom,Right)")
        for pm in noncoop.maximin_profile(g):
            check(pm.security == 0 and len(pm.strategies) == 3, "all strategies maximin at 0")
        brs = noncoop.better_responses(g, (0, 0), 1)
        check(brs.responses == (1,), "only profitable deviation from (Top,Left) is Center")
        check(not noncoop.better_responses(g, (2, 2), 0), "no better response at the Nash cell")

    def motivating():
        g = generators.gen_named("motivating")
        opt = [e.profile for e in noncoop.optimin_pure(g)]
        check(opt == [(0, 0)], "unique solution (U,L)")
        check(noncoop.nash_pure(g) == [(0, 0)], "unique Nash (U,L)")
        row = noncoop.maximin_profile(g)[0]
        check(row.strategies == (1,) and row.security == 1, "row maximin D guarantees 1")

    def footnote_games():
        pd = generators.gen_named("prisoners_dilemma")
        check([e.profile for e in noncoop.optimin_pure(pd)] == [(1, 1)], "defect/defect")
        bos = generators.gen_named("battle_of_sexes")
        check([e.profile for e in noncoop.optimin_pure(bos)] == [(0, 0), (1, 1)], "both coordination cells")

    def travelers_small_reward():
        g = generators.gen_travelers(2, 100, 2)
        check(g.payoff((98, 97)) == (97, 101), "claim pair (100,99)")
        opt = [e.profile for e in noncoop.optimin_pure(g)]
        check(opt == [(98, 98)], "both claim 100 at r=2")
        check(noncoop.nash_pure(g) == [(0, 0)], "Nash is lowest claim")

    def travelers_large_reward():
        g = generators.gen_travelers(2, 100, 60)
        opt = [e.profile for e in noncoop.optimin_pure(g)]
        check((0, 0) in opt, "lowest pair is a solution at r=60")
        check((98, 98) not in opt, "highest pair is no longer a solution at r=60")
        check(noncoop.nash_pure(g) == [(0, 0)], "Nash is lowest claim")
        low = noncoop.value_pure(g, (0, 0)).value
        high = noncoop.value_pure(g, (98, 98)).value
        check(
            all(a >= b for a, b in zip(low, high)) and low != high,
            "worst case of the lowest pair dominates the highest pair",
        )

    def empty_core_game():
        g = generators.gen_named("coop_empty_core")
        check(coop.core(g).empty, "core is empty")
        check(coop.coop_value(g, (40, 30, 40)) == (F(40), F(30), F(25)), "value of (40,30,40)")
        check(coop.shapley(g) == (F(265, 6), F(110, 3), F(175, 6)), "shapley")
        check(coop.nucleolus(g) == (F(140, 3), F(110, 3), F(80, 3)), "nucleolus")
        grid = coop.optimin_coop(g, 1)
        expected = {(F(40), F(x2), F(70 - x2)) for x2 in range(30, 46)}
        check(set(grid.allocations) == expected, "segment x1=40, x2+x3=70")

    def capped_core_game():
        g = generators.gen_named("coop_120")
        result = coop.core(g)
        check(not result.empty and result.witness == (F(50), F(40), F(30)), "core witness")
        check(coop.nucleolus(g) == (F(50), F(40), F(30)), "nucleolus")
        check(coop.shapley(g) == (F(95, 2), F(40), F(65, 2)), "shapley")
        grid = coop.optimin_coop(g, 1)
        check(grid.allocations == ((F(50), F(40), F(30)),), "unique grid point")

    def coin_game():
        sg = zerosum.bulmer_game()
        stat = zerosum.maximin_lp(sg, 0)
        check(stat.mixture == (F(1, 5), F(0), F(0), F(4, 5)), "statistician mixture")
        check(stat.value == F(3, 5), "guaranteed 3/5")
        nat = zerosum.maximin_lp(sg, 1)
        check(nat.mixture == (F(2, 5), F(3, 5)), "nature mixture")
        pair = (stat.mixture, nat.mixture)
        check(zerosum.optimin_equals_maximin_check(sg, pair), "maximin pair passes the check")

    def stable_matching_membership():
        problem = matching.MarriageProblem(
            ("a1", "a2", "a3"),
            ("b1", "b2", "b3"),
            {
                "a1": ("b2", "b1", "b3", "a1"),
                "a2": ("b1", "b3", "b2", "a2"),
                "a3": ("b1", "b2", "b3", "a3"),
                "b1": ("a1", "a3", "a2", "b1"),
                "b2": ("a3", "a1", "a2", "b2"),
                "b3": ("a2", "a1", "a3", "b3"),
            },
        )
        da = matching.deferred_acceptance(problem, "A")
        check(matching.is_stable(problem, da).stable, "proposer-optimal matching is stable")
        check(da in matching.optimin_matchings(problem), "stable matching survives the filter")

    return [
        ("figure1 payoffs and cell sums", figure1_payoffs),
        ("figure1 worst-case table", figure1_values),
        ("figure1 optimin/nash/maximin", figure1_solutions),
        ("motivating 2x2 game", motivating),
        ("dilemma and coordination footnotes", footnote_games),
        ("claim game, small reward", travelers_small_reward),
        ("claim game, large reward", travelers_large_reward),
        ("empty-core characteristic function", empty_core_game),
        ("grand coalition 120 variant", capped_core_game),
        ("coin-guessing statistical game", coin_game),
        ("stable matching membership", stable_matching_membership),
    ]


if __name__ == "__main__":
    sys.exit(main())
