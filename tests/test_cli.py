import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import optimin
from optimin import ResourceLimitError
from optimin.cli import SWEEP_MAX_POINTS, _sweep_values, main
from optimin.fileio import dump_marriage
from optimin.matching import MarriageProblem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptiminCommand:
    def test_figure1_pure(self, capsys):
        code, out, _ = run(capsys, "optimin", "--game", "figure1", "--pure")
        assert code == 0
        assert "mode: pure" in out
        assert "(Top, Left)" in out
        assert "value (100, 100)" in out

    def test_figure1_json(self, capsys):
        code, out, _ = run(capsys, "optimin", "--game", "figure1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimin"] == [{"profile": ["Top", "Left"], "value": [100, 100]}]

    def test_mixed_grid_mode_labelled(self, capsys):
        code, out, _ = run(
            capsys, "optimin", "--game", "prisoners_dilemma", "--mixed-grid", "1"
        )
        assert code == 0
        assert "grid-approximate" in out

    def test_mode_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimin", "--game", "figure1", "--pure", "--mixed-grid", "2"])
        assert exc.value.code == 2


class TestValueCommand:
    def test_single_profile_with_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "value", "--game", "figure1", "--profile", "Bottom,Center"
        )
        assert code == 0
        assert "value: (5, 0)" in out
        assert "worst case for row" in out

    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "value", "--game", "motivating")
        assert code == 0
        assert "(U, L)  (2, 2)" in out


class TestSolverCommands:
    def test_nash(self, capsys):
        code, out, _ = run(capsys, "nash", "--game", "figure1")
        assert code == 0
        assert "(Bottom, Right)" in out

    def test_maximin(self, capsys):
        code, out, _ = run(capsys, "maximin", "--game", "motivating")
        assert code == 0
        assert "row: security 1" in out

    def test_zerosum_solve_bulmer(self, capsys):
        code, out, _ = run(capsys, "zerosum", "solve", "--game", "bulmer")
        assert code == 0
        assert "mixture (1/5 (~0.200), 0, 0, 4/5 (~0.800))" in out
        assert "game value: 3/5" in out

    def test_zerosum_solve_bulmer_json_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "zerosum", "solve", "--game", "bulmer", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["value"] == "3/5"
        assert doc["players"][0]["mixture"] == ["1/5", 0, 0, "4/5"]
        assert doc["players"][1]["mixture"] == ["2/5", "3/5"]


class TestCoopCommands:
    def test_core_empty(self, capsys):
        code, out, _ = run(capsys, "coop", "core", "--game", "coop_empty_core")
        assert code == 0
        assert "core: empty (LP infeasible)" in out

    def test_optimin_grid(self, capsys):
        code, out, _ = run(
            capsys, "coop", "optimin", "--game", "coop_empty_core", "--step", "1"
        )
        assert code == 0
        assert "optimin allocations: 16" in out
        assert "(40, 30, 40)  value (40, 30, 25)" in out

    def test_shapley_nucleolus(self, capsys):
        code, out, _ = run(capsys, "coop", "shapley", "--game", "coop_empty_core")
        assert "265/6 (~44.167)" in out
        code, out, _ = run(capsys, "coop", "nucleolus", "--game", "coop_120")
        assert "nucleolus: (50, 40, 30)" in out

    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "coop", "value", "--game", "coop_empty_core", "--alloc", "40,30,40"
        )
        assert "value: (40, 30, 25)" in out

    def test_infeasible_allocation_prints_exact_values(self, capsys):
        code, out, err = run(capsys, "coop", "value", "--game", "coop_120", "--alloc", "200,0,1/3")
        assert code == 1 and out == ""
        assert err == "error: allocation (200, 0, 1/3) exceeds the grand coalition worth\n"

    def test_optimin_with_widened_floor(self, capsys):
        code, out, _ = run(
            capsys, "coop", "optimin", "--game", "coop_120",
            "--step", "10", "--floor", "0",
        )
        assert code == 0
        assert "(50, 40, 30)" in out


class TestMatchCommands:
    @pytest.fixture()
    def problem_file(self, tmp_path):
        problem = MarriageProblem(
            ("a1", "a2"),
            ("b1", "b2"),
            {
                "a1": ("b1", "b2", "a1"),
                "a2": ("b2", "b1", "a2"),
                "b1": ("a1", "a2", "b1"),
                "b2": ("a2", "a1", "b2"),
            },
        )
        path = tmp_path / "problem.json"
        path.write_text(dump_marriage(problem))
        return str(path)

    def test_da(self, capsys, problem_file):
        code, out, _ = run(capsys, "match", "da", "--game", problem_file)
        assert code == 0
        assert "a1=b1" in out and "a2=b2" in out

    def test_stable_check(self, capsys, problem_file):
        code, out, _ = run(
            capsys, "match", "stable", "--game", problem_file,
            "--matching", "a1=b2,a2=b1",
        )
        assert code == 0
        assert "blocking pair a1, b1" in out

    def test_optimin(self, capsys, problem_file):
        code, out, _ = run(capsys, "match", "optimin", "--game", problem_file)
        assert code == 0
        assert "a1=b1, a2=b2" in out


class TestDecideCommands:
    @pytest.fixture()
    def decision_file(self, tmp_path):
        doc = {
            "acts": ["act1", "act2"],
            "states": ["s1", "s2"],
            "utility": {
                "act1": {"s1": 4, "s2": 0},
                "act2": {"s1": 1, "s2": 1},
            },
        }
        path = tmp_path / "decision.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_solve(self, capsys, decision_file):
        code, out, _ = run(capsys, "decide", "solve", "--game", decision_file)
        assert code == 0
        assert "ranking: dm-only" in out
        assert "acts: act2" in out

    def test_check(self, capsys, decision_file):
        code, out, _ = run(capsys, "decide", "check", "--game", decision_file)
        assert code == 0
        assert "hypotheses hold: yes" in out
        assert "reduction to security maximization: confirmed" in out


    def test_disagreeing_feasibility_lists(self, capsys, tmp_path):
        # s2 lists only a2, so (a1, s2) is infeasible although a1 lists s2.
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({
            "acts": ["a1", "a2"],
            "states": ["s1", "s2"],
            "utility": {"a1": {"s1": 1}, "a2": {"s1": 2, "s2": 3}},
            "feasible_acts": {"s1": ["a1", "a2"], "s2": ["a2"]},
        }))
        code, out, err = run(capsys, "decide", "solve", "--game", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "ranking: dm-only",
            "optimin agreements: 2",
            "  (a2, s1)  value 2",
            "  (a2, s2)  value 2",
            "acts: a2",
        ]
        code, out, err = run(capsys, "decide", "check", "--game", str(path))
        assert (code, err) == (0, "")
        assert "constant constraint: no" in out

    def test_empty_feasibility_table(self, capsys, tmp_path):
        # Each state lists the one act that does not list it, so no pair is feasible.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "acts": ["a1", "a2"],
            "states": ["s1", "s2"],
            "utility": {"a1": {"s1": 1, "s2": 2}, "a2": {"s1": 3, "s2": 4}},
            "feasible_acts": {"s1": ["a1"], "s2": ["a2"]},
            "feasible_states": {"a1": ["s2"], "a2": ["s1"]},
        }))
        for command in ("solve", "check"):
            code, out, err = run(capsys, "decide", command, "--game", str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path}: no (act, state) pair is feasible")
            assert "feasibility table is empty" in err


class TestGenAndSweep:
    def test_gen_then_solve(self, capsys, tmp_path):
        path = tmp_path / "pd.json"
        code, out, _ = run(capsys, "gen", "prisoners_dilemma", "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "optimin", "--game", str(path), "--pure")
        assert code == 0
        assert "(Defect, Defect)" in out

    def test_gen_coop_tag(self, capsys, tmp_path):
        path = tmp_path / "tu.json"
        code, _, _ = run(capsys, "gen", "coop_empty_core", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "coop", "core", "--game", str(path))
        assert "empty" in out

    def test_sweep_table(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "travelers", "--param", "r",
            "--from", "2", "--to", "5", "--high", "8",
        )
        assert code == 0
        assert out.splitlines()[0] == "r\toptimin\tnash"
        assert "(2,2)" in out

    def test_sweep_json_to_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "sweep", "--family", "centipede", "--param", "nodes",
            "--from", "1", "--to", "5", "--format", "json", "--out", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["threshold"] <= 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "centipede"],
            ["sweep", "--family", "travelers", "--param", "r", "--from", "2", "--to", "3"],
        ],
    )
    def test_unwritable_out_exits_1_without_a_traceback(self, tmp_path, argv):
        target = str(tmp_path / "missing" / "x.json")
        argv = argv + ["--out", target]
        script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
        src = str(Path(optimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {target}: No such file or directory"]
        assert proc.stdout == ""

    def test_sweep_point_bound(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                _sweep_values(Fraction(2), Fraction(3), Fraction(1, 10**1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any point exists
        message = str(info.value)
        assert str(10**1000 + 1) in message
        assert str(SWEEP_MAX_POINTS) in message
        assert "--step" in message
        last = Fraction(SWEEP_MAX_POINTS - 1, 7)
        values = _sweep_values(Fraction(0), last, Fraction(1, 7))
        assert len(values) == SWEEP_MAX_POINTS and values[-1] == last
        with pytest.raises(ResourceLimitError):
            _sweep_values(Fraction(0), last + Fraction(1, 7), Fraction(1, 7))
        code, out, err = run(
            capsys, "sweep", "--family", "travelers", "--param", "r",
            "--from", "2", "--to", "3", "--step", "1e-1000",
        )
        assert code == 1 and out == ""
        assert "SWEEP_MAX_POINTS" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "centipede", "--nodes", "100000"],
            ["sweep", "--family", "centipede", "--param", "nodes",
             "--from", "100000", "--to", "100001"],
        ],
    )
    def test_centipede_node_bound_exits_1(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.json"))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: centipede of 100000 nodes exceeds the 500-node bound (CENTIPEDE_MAX_NODES); "
            "lower --nodes"
        ]
        assert not (tmp_path / "out.json").exists()


class TestErrorsAndDeterminism:
    def test_unknown_game_file_exits_1(self, capsys):
        code, out, err = run(capsys, "optimin", "--game", "/no/such/file.json")
        assert code == 1
        assert "/no/such/file.json" in err

    def test_malformed_file_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"players": ["a"], "strategies": [["x"]], "payoffs": [[1, 2]]}')
        code, out, err = run(capsys, "optimin", "--game", str(path))
        assert code == 1
        assert "payoffs" in err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_mixed_grid_exits_1(self, k):
        argv = ["optimin", "--game", "figure1", "--mixed-grid", k]
        script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
        src = str(Path(optimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "--mixed-grid" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invalid_thread_env_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTIMIN_THREADS", "many")
        code, _, err = run(capsys, "nash", "--game", "figure1")
        assert code == 1
        assert "OPTIMIN_THREADS" in err

    def test_selftest_passes_and_is_deterministic(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, "selftest")
        assert code1 == 0
        assert "11/11 golden checks passed" in out1
        monkeypatch.setenv("OPTIMIN_THREADS", "4")
        code2, out2, _ = run(capsys, "selftest")
        assert code2 == 0
        assert out1 == out2

    def test_report_identical_across_thread_counts(self, capsys):
        _, out1, _ = run(capsys, "optimin", "--game", "figure1", "--threads", "1")
        _, out4, _ = run(capsys, "optimin", "--game", "figure1", "--threads", "4")
        assert out1 == out4

    def test_selftest_names_a_corrupted_golden_check(self, capsys, monkeypatch):
        import optimin.cli as cli_mod
        from optimin.generators import gen_named as real_gen_named

        def corrupted(tag):
            obj = real_gen_named(tag)
            if tag == "figure1":
                from optimin import affine_transform

                obj = affine_transform(obj, 0, 1, 1)  # mutate every row payoff
            return obj

        monkeypatch.setattr(cli_mod.generators, "gen_named", corrupted)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL figure1 payoffs" in out

    def test_selftest_names_a_corrupted_golden_check_under_optimize(self):
        # `python -O` strips assert statements, so the golden checks must not
        # rely on them.  Same corruption as the in-process test above.
        script = textwrap.dedent("""
            import sys
            from optimin import affine_transform, cli

            real_gen_named = cli.generators.gen_named

            def corrupted(tag):
                obj = real_gen_named(tag)
                return affine_transform(obj, 0, 1, 1) if tag == "figure1" else obj

            cli.generators.gen_named = corrupted
            print("optimize", sys.flags.optimize)
            sys.exit(cli.main(["selftest"]))
        """)
        src = str(Path(optimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert "optimize 1" in proc.stdout
        assert "FAIL figure1 payoffs" in proc.stdout
        assert proc.returncode == 1


def test_overlong_json_integer_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"players": ["a"], "strategies": [["x"]], "payoffs": [[%s]]}' % ("9" * 5000))
    argv = ["optimin", "--game", str(path), "--pure"]
    script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(optimin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, text",
    [
        (["coop", "nucleolus"], '{"n": 100000, "worth": {"1": 1}}'),
        (["coop", "nucleolus"], '{"n": true, "worth": {"1": 1}}'),
        (["optimin"], "[" * 100_000 + "]" * 100_000),
    ],
    ids=["huge-tu-player-count", "boolean-tu-player-count", "deeply-nested"],
)
def test_malformed_input_exits_1_with_one_error_line(tmp_path, argv, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = argv + ["--game", str(path)]
    script = f"import sys; from optimin.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=os.environ, timeout=300
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
