import argparse
import csv
import io
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amap import AnnealSchedule, SolveReport, cli, parse_network, parse_problem, solver
from amap.cli import (ALGOS, build_parser, generate_problem, main, _mix_seed, _pool_size,
                      _schedule_from_args)
from conftest import (CYCLE_TEXT, DISCARDED_ZERO_PROBLEM_TEXT, DISCARDED_ZERO_TEXT,
                      REPEATED_PARENT_TEXT, SPRINKLER_PROBLEM_TEXT, SPRINKLER_TEXT,
                      ZERO_EVIDENCE_PROBLEM_TEXT, ZERO_EVIDENCE_TEXT)
from netgen import chain_network, random_network
from amap.fileio import REPORT_COLUMNS, serialize_network, serialize_problem


def assert_one_error(err, line):
    assert err.splitlines() == [line]


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "sprinkler.bnet"
    path.write_text(SPRINKLER_TEXT)
    return str(path)


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "sprinkler.prob"
    path.write_text(SPRINKLER_PROBLEM_TEXT)
    return str(path)


@pytest.fixture
def binary_file(tmp_path):
    """A file whose first byte is not UTF-8."""
    path = tmp_path / "bad.bnet"
    path.write_bytes(b"\xff\xfe")
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    """A chain of 28 binary roots joined by 27 leaves: with `--map-count 28
    --evid-count 27` its MAP space, the oracle's table, has 2^28 entries."""
    path = tmp_path / "chain.bnet"
    path.write_text(serialize_network(chain_network(random.Random(5), 28)))
    return str(path)


CHAIN_COUNTS = ("--map-count", "28", "--evid-count", "27")
CHAIN_REFUSAL = "elimination needs a table of 268435456 entries (2^28.0), cap is 134217728"


def not_utf8_error(path):
    return f"error: cannot read {path}: not UTF-8 text (byte 0)"


class TestGenerateProblem:
    def test_sprinkler_forced_structure(self, sprinkler):
        # Rain is the only root, WetGrass the only leaf
        p = generate_problem(sprinkler, 2, 1, random.Random(0))
        assert p.map_vars == (sprinkler.by_name("Rain").id,)
        assert list(p.evidence.keys()) == [sprinkler.by_name("WetGrass").id]

    def test_map_count_capped_at_roots(self):
        rng = random.Random(1)
        net = random_network(rng, 10)
        n_roots = len(net.roots())
        p = generate_problem(net, 50, 0, random.Random(2))
        assert len(p.map_vars) == n_roots

    def test_fixed_seed_identical(self, sprinkler):
        a = generate_problem(sprinkler, 1, 1, random.Random(9))
        b = generate_problem(sprinkler, 1, 1, random.Random(9))
        assert a.map_vars == b.map_vars and a.evidence == b.evidence

    def test_empty_network_rejected(self):
        from amap import BayesianNetwork
        net = BayesianNetwork("empty", [], [])
        with pytest.raises(ValueError, match="no root"):
            generate_problem(net, 1, 1, random.Random(0))


class TestScheduleArgs:
    @pytest.mark.parametrize("argv", [
        ["solve", "--net", "n.bnet", "--problem", "p.prob"],
        ["bench", "--net", "n.bnet", "--cases", "1", "-o", "r.csv"],
    ], ids=["solve", "bench"])
    def test_defaults_are_the_papers(self, argv):
        assert _schedule_from_args(build_parser().parse_args(argv)) == AnnealSchedule()


class TestSolveCommand:
    def test_oracle_output(self, net_file, problem_file, capsys):
        code = main(["solve", "--net", net_file, "--problem", problem_file,
                     "--algo", "oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sprinkler=t" in out and "Rain=f" in out
        assert "p = 0.642312" in out

    def test_anneal_deterministic(self, net_file, problem_file, capsys):
        outs = []
        for _ in range(2):
            assert main(["solve", "--net", net_file, "--problem", problem_file,
                         "--algo", "anneal", "--seed", "7"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_missing_file(self, problem_file, capsys):
        code = main(["solve", "--net", "nope.bnet", "--problem", problem_file])
        err = capsys.readouterr().err
        assert code == 1
        assert "nope.bnet" in err

    @pytest.mark.parametrize("flag", ["--net", "--problem"])
    def test_not_utf8_input_named(self, flag, net_file, problem_file, binary_file, capsys):
        paths = {"--net": net_file, "--problem": problem_file, flag: binary_file}
        code = main(["solve", *[t for item in paths.items() for t in item]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, not_utf8_error(binary_file))

    def test_parse_error_reported(self, tmp_path, problem_file, capsys):
        bad = tmp_path / "bad.bnet"
        bad.write_text("network n\nvar A { t, f }\ncpt A { 0.8 0.3 }\n")
        code = main(["solve", "--net", str(bad), "--problem", problem_file])
        assert code == 1
        assert "row sums" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["anneal", "hillclimb", "oracle"])
    def test_repeated_parent_rejected(self, algo, tmp_path, capsys):
        net, problem = tmp_path / "dup.bnet", tmp_path / "dup.prob"
        net.write_text(REPEATED_PARENT_TEXT)
        problem.write_text("map A\nevidence C=t\n")
        code = main(["solve", "--net", str(net), "--problem", str(problem), "--algo", algo])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err,
                         f"error: parse failed at {net}:5:5: cpt for 'C' lists parent 'A' twice")

    def test_cyclic_network_rejected(self, tmp_path, problem_file, capsys):
        net = tmp_path / "cyc.bnet"
        net.write_text(CYCLE_TEXT)
        code = main(["solve", "--net", str(net), "--problem", problem_file])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err,
                         f"error: parse failed at {net}:4:5: cycle detected through variable 'A'")

    def test_problem_parse_error_names_the_problem_file(self, net_file, tmp_path, capsys):
        problem = tmp_path / "typo.prob"
        problem.write_text("mapp Rain\nevidence WetGrass=t\n")
        code = main(["solve", "--net", net_file, "--problem", str(problem)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, f"error: parse failed at {problem}:1:1: "
                                       "expected 'map' or 'evidence', got 'mapp'")

    def test_byte_order_mark_accepted(self, net_file, problem_file, tmp_path, capsys):
        args = ["solve", "--net", net_file, "--problem", problem_file, "--seed", "3"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        for flag, path in (("--net", net_file), ("--problem", problem_file)):
            marked = tmp_path / ("bom-" + os.path.basename(path))
            marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(path).read_bytes())
            argv = list(args)
            argv[argv.index(flag) + 1] = str(marked)
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and captured.out == plain
        # a byte that is not UTF-8 is counted from the file's start, the mark
        # included: EF BB BF 61 62 FF fails at byte 5
        marked.write_bytes(b"\xef\xbb\xbfab\xff")
        assert main(argv) == 1
        assert_one_error(capsys.readouterr().err,
                         f"error: cannot read {marked}: not UTF-8 text (byte 5)")

    @pytest.mark.parametrize("algo", ["anneal", "hillclimb", "oracle"])
    def test_zero_probability_evidence(self, algo, tmp_path, capsys):
        net, problem = tmp_path / "zero.bnet", tmp_path / "zero.prob"
        net.write_text(ZERO_EVIDENCE_TEXT)
        problem.write_text(ZERO_EVIDENCE_PROBLEM_TEXT)
        code = main(["solve", "--net", str(net), "--problem", str(problem), "--algo", algo])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: evidence has probability zero")

    @pytest.mark.parametrize("algo", ["anneal", "hillclimb", "oracle"])
    def test_zero_probability_evidence_in_a_discarded_component(self, algo, tmp_path, capsys):
        net, problem = tmp_path / "split.bnet", tmp_path / "split.prob"
        net.write_text(DISCARDED_ZERO_TEXT)
        problem.write_text(DISCARDED_ZERO_PROBLEM_TEXT)
        code = main(["solve", "--net", str(net), "--problem", str(problem), "--algo", algo])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: evidence has probability zero")

    def test_non_finite_k_rejected(self, net_file, problem_file, capsys):
        code = main(["solve", "--net", net_file, "--problem", problem_file, "--k", "nan"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: k must be finite and >= 0, got nan")

    @pytest.mark.parametrize("algo", ALGOS)
    def test_zero_restarts_rejected(self, algo, net_file, problem_file, capsys):
        code = main(["solve", "--net", net_file, "--problem", problem_file,
                     "--algo", algo, "--restarts", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: restarts must be >= 1, got 0")

    def test_trace_file(self, net_file, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--net", net_file, "--problem", problem_file,
                     "--seed", "1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("component,restart,sweep,temperature")
        assert len(lines) > 1

    def test_unwritable_trace(self, net_file, problem_file, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(solver, "annealed_map", no_solve)
        trace = tmp_path / "missing" / "trace.csv"
        code = main(["solve", "--net", net_file, "--problem", problem_file,
                     "--trace", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error(captured.err,
                         f"error: cannot write {trace}: No such file or directory")

    def test_failed_solve_leaves_no_trace(self, tmp_path, capsys):
        net, problem = tmp_path / "zero.bnet", tmp_path / "zero.prob"
        net.write_text("network z\nvar A { t, f }\nvar B { t, f }\n"
                       "cpt A { 1.0 0.0 }\ncpt B | A { 1.0 0.0 ; 0.5 0.5 }\n")
        problem.write_text("map A\nevidence B=f\n")
        trace = tmp_path / "tr.csv"
        code = main(["solve", "--net", str(net), "--problem", str(problem),
                     "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: evidence has probability zero")
        assert not trace.exists()

    def test_failed_solve_leaves_a_symlinked_trace_in_place(self, tmp_path, capsys):
        # only a regular file is removed: a link, or a device it could
        # stand for, is not the command's to delete
        net, problem = tmp_path / "zero.bnet", tmp_path / "zero.prob"
        net.write_text(ZERO_EVIDENCE_TEXT)
        problem.write_text(ZERO_EVIDENCE_PROBLEM_TEXT)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("kept\n")
        link.symlink_to(target)
        code = main(["solve", "--net", str(net), "--problem", str(problem),
                     "--trace", str(link)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: evidence has probability zero")
        assert link.is_symlink() and target.exists()

    @pytest.mark.parametrize("algo", ["hillclimb", "oracle"])
    def test_trace_rejected_for_algorithm_without_sweeps(self, algo, net_file,
                                                         problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["solve", "--net", net_file, "--problem", problem_file,
                     "--algo", algo, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and repr(algo) in lines[0]
        assert not trace.exists()

    def test_table_size_cap(self, tmp_path, capsys):
        # largest pruned component needs a 2^38.7-entry table for ln p(E);
        # the plan is refused when compiled, before anything is allocated
        net = random_network(random.Random(7), 300, max_parents=4)
        problem = generate_problem(net, 20, 20, random.Random(0))
        net_path, prob_path = tmp_path / "wide.bnet", tmp_path / "wide.prob"
        net_path.write_text(serialize_network(net))
        prob_path.write_text(serialize_problem(problem, net))
        code = main(["solve", "--net", str(net_path), "--problem", str(prob_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "entries" in lines[0]


class TestGenCommand:
    def test_round_trip(self, net_file, tmp_path, capsys):
        out = tmp_path / "g.prob"
        assert main(["gen", "--net", net_file, "--map-count", "1",
                     "--evid-count", "1", "--seed", "3", "-o", str(out)]) == 0
        capsys.readouterr()
        net = parse_network(SPRINKLER_TEXT)
        problem = parse_problem(out.read_text(), net)
        assert len(problem.map_vars) == 1

    def test_deterministic(self, net_file, tmp_path, capsys):
        texts = []
        for name in ("a.prob", "b.prob"):
            out = tmp_path / name
            assert main(["gen", "--net", net_file, "--map-count", "1",
                         "--evid-count", "1", "--seed", "5", "-o", str(out)]) == 0
            texts.append(out.read_text())
        capsys.readouterr()
        assert texts[0] == texts[1]

    def test_unwritable_output(self, net_file, tmp_path, capsys):
        out = tmp_path / "missing" / "g.prob"
        code = main(["gen", "--net", net_file, "--map-count", "1",
                     "--evid-count", "1", "-o", str(out)])
        assert code == 1
        assert_one_error(capsys.readouterr().err,
                         f"error: cannot write {out}: No such file or directory")

    def test_not_utf8_input_named(self, binary_file, tmp_path, capsys):
        out = tmp_path / "g.prob"
        code = main(["gen", "--net", binary_file, "--map-count", "1",
                     "--evid-count", "1", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, not_utf8_error(binary_file))
        assert not out.exists()

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        net = tmp_path / "cyc.bnet"
        net.write_text(CYCLE_TEXT)
        out = tmp_path / "g.prob"
        code = main(["gen", "--net", str(net), "--map-count", "1",
                     "--evid-count", "1", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err,
                         f"error: parse failed at {net}:4:5: cycle detected through variable 'A'")
        assert not out.exists()

    @pytest.mark.parametrize("counts", [("-1", "1"), ("0", "1"), ("1", "-1")])
    def test_bad_counts_rejected(self, counts, net_file, tmp_path, capsys):
        out = tmp_path / "g.prob"
        code = main(["gen", "--net", net_file, "--map-count", counts[0],
                     "--evid-count", counts[1], "-o", str(out)])
        assert code == 1
        assert_one_error(capsys.readouterr().err,
                         "error: map-count must be >= 1 and evid-count >= 0")
        assert not out.exists()


class TestBenchCommand:
    def run_bench(self, tmp_path, net_file, name, extra=()):
        out = tmp_path / name
        args = ["bench", "--net", net_file, "--cases", "3",
                "--map-count", "1", "--evid-count", "1", "--seed", "11",
                "-o", str(out), *extra]
        assert main(args) == 0
        return out.read_text()

    @staticmethod
    def mask_wall(text):
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            row[10] = ""
        return rows

    def test_row_count_and_schema(self, net_file, tmp_path, capsys):
        text = self.run_bench(tmp_path, net_file, "r.csv")
        stdout = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        # cases x algorithms (anneal + oracle by default)
        assert len(rows) == 3 * 2
        assert [int(row["seed"]) for row in rows] == [
            _mix_seed(11, case, ai) for case in range(3) for ai in range(2)]
        for row in rows:
            assert row["matches_oracle"] in ("0", "1")
            float(row["prob"])
            float(row["log10_prob"])
        assert "anneal_optimal=" in stdout

    def test_deterministic_modulo_wall_clock(self, net_file, tmp_path, capsys):
        a = self.run_bench(tmp_path, net_file, "a.csv")
        b = self.run_bench(tmp_path, net_file, "b.csv")
        capsys.readouterr()
        assert self.mask_wall(a) == self.mask_wall(b)

    def test_workers_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        path = tmp_path / "small.bnet"
        path.write_text(serialize_network(random_network(random.Random(5), 10, name="small")))
        extra = ("--map-count", "2", "--evid-count", "2",
                 "--algos", "anneal,oracle,hillclimb", "--workers")
        serial = self.run_bench(tmp_path, str(path), "one.csv", (*extra, "1"))
        serial_out = capsys.readouterr().out
        pooled = self.run_bench(tmp_path, str(path), "two.csv", (*extra, "2"))
        assert self.mask_wall(pooled) == self.mask_wall(serial)
        assert capsys.readouterr().out == serial_out

    def test_oracle_cap_blank(self, chain_file, tmp_path, capsys):
        # the oracle is refused, unlisted, so no row can match it
        out = tmp_path / "r.csv"
        assert main(["bench", "--net", chain_file, "--cases", "2", *CHAIN_COUNTS,
                     "--seed", "2", "--algos", "anneal", "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "network=chain cases=2 anneal_optimal=0/0\n"
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 2
        assert all(r["matches_oracle"] == "" for r in rows)

    def test_width_cap_skips_the_algorithm(self, tmp_path, capsys):
        # Both cases' largest pruned component needs a table of more than
        # 2^37 entries: the oracle is left out and each solver's row is
        # skipped with a reason, when its first plan is compiled.
        net = random_network(random.Random(7), 300, max_parents=4)
        path = tmp_path / "wide.bnet"
        path.write_text(serialize_network(net))
        out = tmp_path / "r.csv"
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        code = main(["bench", "--net", str(path), "--cases", "2",
                     "--algos", "anneal,hillclimb", "-o", str(out)])
        grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib
        captured = capsys.readouterr()
        assert code == 0
        assert grown_kib < 256 * 1024
        assert out.read_text().splitlines() == [",".join(REPORT_COLUMNS)]
        skipped = captured.err.splitlines()
        assert [line.split(": ")[1] for line in skipped] == [
            f"network={net.name} case={case} algorithm={algo}"
            for case in (0, 1) for algo in ("anneal", "hillclimb")]
        assert all("entries" in line for line in skipped)
        assert "anneal_optimal=0/0" in captured.out

    def test_width_cap_skips_the_oracle(self, tmp_path, capsys):
        # The net above with the oracle asked for: its MAP space is within
        # the oracle's cap, but its elimination is not, so it is skipped
        # with a reason like any other algorithm, in --algos order.
        net = random_network(random.Random(7), 300, max_parents=4)
        path = tmp_path / "wide.bnet"
        path.write_text(serialize_network(net))
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", str(path), "--cases", "2",
                     "--algos", "oracle,hillclimb", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.read_text().splitlines() == [",".join(REPORT_COLUMNS)]
        skipped = captured.err.splitlines()
        assert [line.split(": ")[1] for line in skipped] == [
            f"network={net.name} case={case} algorithm={algo}"
            for case in (0, 1) for algo in ("oracle", "hillclimb")]
        assert all(line.startswith("skipped: ") and "entries" in line for line in skipped)

    def test_oracle_wall_ms_times_the_oracle(self, net_file, tmp_path, capsys,
                                             monkeypatch):
        real = solver.brute_force_map

        def slow_oracle(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "brute_force_map", slow_oracle)
        text = self.run_bench(tmp_path, net_file, "r.csv", ("--algos", "oracle"))
        capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert all(float(r["wall_ms"]) >= 50.0 for r in rows)

    def test_mean_ratio_on_mismatch(self, net_file, tmp_path, capsys, monkeypatch):
        # Rain is the only root, so the one MAP variable; the oracle picks
        # Rain=f on every case, and this stand-in always answers Rain=t
        monkeypatch.setattr(solver, "annealed_map",
                            lambda *args, **kwargs: SolveReport({0: 0}, math.log(0.1)))
        text = self.run_bench(tmp_path, net_file, "r.csv", ("--algos", "anneal,oracle"))
        stdout = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        anneal = [r for r in rows if r["algorithm"] == "anneal"]
        oracle = [r for r in rows if r["algorithm"] == "oracle"]
        assert len(anneal) == len(oracle) == 3
        assert all(r["matches_oracle"] == "0" for r in anneal)
        ratios = [10.0 ** (float(a["log10_prob"]) - float(o["log10_prob"]))
                  for a, o in zip(anneal, oracle)]
        mean = sum(ratios) / len(ratios)
        assert stdout.splitlines() == [
            f"network=sprinkler cases=3 anneal_optimal=0/3 mean_ratio_on_mismatch={mean:.6g}"]

    def test_unknown_algorithm_rejected_before_any_case(self, net_file, tmp_path,
                                                        capsys, monkeypatch):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(solver, "annealed_map", no_case)
        monkeypatch.setattr(solver, "brute_force_map", no_case)
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "1",
                     "--map-count", "1", "--evid-count", "1",
                     "--algos", "anneal,bogus", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "bogus" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_repeated_algorithm_rejected_before_any_case(self, net_file, tmp_path,
                                                         capsys, monkeypatch):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(solver, "annealed_map", no_case)
        monkeypatch.setattr(solver, "brute_force_map", no_case)
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "2",
                     "--map-count", "1", "--evid-count", "1",
                     "--algos", "anneal,anneal,oracle", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "'anneal'" in err and "twice" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unwritable_output_rejected_before_any_case(self, net_file, tmp_path,
                                                        capsys, monkeypatch):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(solver, "annealed_map", no_case)
        monkeypatch.setattr(solver, "brute_force_map", no_case)
        out = tmp_path / "missing" / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "1",
                     "--map-count", "1", "--evid-count", "1", "-o", str(out)])
        assert code == 1
        assert_one_error(capsys.readouterr().err,
                         f"error: cannot write {out}: No such file or directory")

    def test_networks_read_before_output_created(self, net_file, binary_file, tmp_path,
                                                 capsys, monkeypatch):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(solver, "annealed_map", no_case)
        monkeypatch.setattr(solver, "brute_force_map", no_case)
        missing = str(tmp_path / "missing.bnet")
        cyclic = tmp_path / "cyc.bnet"
        cyclic.write_text(CYCLE_TEXT)
        out = tmp_path / "r.csv"
        for nets, line in [
                ((missing, net_file), f"error: cannot read {missing}: No such file or directory"),
                ((net_file, str(cyclic)),
                 f"error: parse failed at {cyclic}:4:5: cycle detected through variable 'A'"),
                ((net_file, missing), f"error: cannot read {missing}: No such file or directory"),
                ((net_file, binary_file), not_utf8_error(binary_file)),
        ]:
            code = main(["bench", "--net", nets[0], "--net", nets[1], "--cases", "1",
                         "--map-count", "1", "--evid-count", "1", "-o", str(out)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert_one_error(captured.err, line)
            assert not out.exists()

    def test_problems_generated_before_output_created(self, net_file, tmp_path, capsys,
                                                      monkeypatch):
        # a network with no variables parses, but no problem can be drawn on
        # it: bench ends before the sprinkler's cases run or the CSV exists
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(solver, "annealed_map", no_case)
        monkeypatch.setattr(solver, "brute_force_map", no_case)
        empty = tmp_path / "empty.bnet"
        empty.write_text("network empty\n")
        out = tmp_path / "e.csv"
        code = main(["bench", "--net", net_file, "--net", str(empty), "--cases", "1",
                     "--map-count", "1", "--evid-count", "1", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert_one_error(captured.err, "error: network 'empty' has no root variables")
        assert not out.exists()

    def test_oracle_cap_skips_a_listed_oracle(self, chain_file, tmp_path, capsys):
        # every case's MAP space is over the table-size cap, which a listed
        # oracle reports like any other refused algorithm and an unlisted
        # one does not
        unlisted = self.run_bench(tmp_path, chain_file, "a.csv",
                                  (*CHAIN_COUNTS, "--algos", "hillclimb"))
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "network=chain cases=3 anneal_optimal=0/0\n"
        listed = self.run_bench(tmp_path, chain_file, "b.csv",
                                (*CHAIN_COUNTS, "--algos", "oracle,hillclimb"))
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"skipped: network=chain case={case} algorithm=oracle: {CHAIN_REFUSAL}"
            for case in range(3)]
        assert captured.out == "network=chain cases=3 anneal_optimal=0/0\n"
        rows = list(csv.DictReader(io.StringIO(listed)))
        assert [(r["algorithm"], r["seed"], r["matches_oracle"]) for r in rows] == [
            ("hillclimb", str(_mix_seed(11, case, 1)), "") for case in range(3)]
        # the same answers as with the oracle unlisted
        answer = ("log10_prob", "prob", "sweeps", "restarts_used", "best_found_sweep",
                  "reheats")
        assert ([[r[c] for c in answer] for r in rows] ==
                [[r[c] for c in answer] for r in csv.DictReader(io.StringIO(unlisted))])

    def test_failed_case_leaves_no_output(self, net_file, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("the case failed")

        monkeypatch.setattr(solver, "annealed_map", failing)
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "1",
                     "--map-count", "1", "--evid-count", "1", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert_one_error(captured.err, "error: the case failed")
        assert not out.exists()

    def test_workers_below_one_rejected(self, net_file, tmp_path, capsys):
        # and restarts below one, both before the output is created
        out = tmp_path / "r.csv"
        for flag in ("--workers", "--restarts"):
            code = main(["bench", "--net", net_file, "--cases", "1",
                         "--map-count", "1", "--evid-count", "1",
                         flag, "0", "-o", str(out)])
            err = capsys.readouterr().err
            assert code == 1
            assert flag[2:] in err and len(err.strip().splitlines()) == 1
            assert not out.exists()

    def test_zero_cases_rejected(self, net_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "0",
                     "--map-count", "1", "--evid-count", "1", "-o", str(out)])
        assert code == 1
        assert_one_error(capsys.readouterr().err, "error: cases must be >= 1")
        assert not out.exists()

    def test_pool_size_capped(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _pool_size(1, 10) == 1
        assert _pool_size(3, 10) == 3
        assert _pool_size(64, 10) == 4
        assert _pool_size(64, 2) == 2
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _pool_size(8, 10) == 1


class TestSeedMixing:
    def test_stable_and_distinct(self):
        assert _mix_seed(1, 2, 3) == _mix_seed(1, 2, 3)
        assert _mix_seed(1, 2, 3) != _mix_seed(1, 3, 2)
        assert _mix_seed(1, 2, 3) != _mix_seed(2, 2, 3)


class TestCommandErrors:
    """A command refuses what it is given with `ValueError`, which `main`
    prints as one `error: ` line with exit status 1."""

    def test_commands_raise_value_error(self, net_file, problem_file, tmp_path):
        missing = str(tmp_path / "missing.bnet")
        unwritable = str(tmp_path / "missing" / "out.csv")
        out = str(tmp_path / "r.csv")
        solve = ["solve", "--problem", problem_file]
        bench = ["bench", "--cases", "1", "--map-count", "1", "--evid-count", "1", "-o"]
        no_file = "No such file or directory"
        for command, argv, message in [
                (cli.cmd_solve, [*solve, "--net", missing], f"cannot read {missing}: {no_file}"),
                (cli.cmd_solve, [*solve, "--net", net_file, "--trace", unwritable],
                 f"cannot write {unwritable}: {no_file}"),
                (cli.cmd_solve, [*solve, "--net", net_file, "--algo", "oracle", "--trace", out],
                 "--trace records annealing sweeps; algorithm 'oracle' has none"),
                (cli.cmd_bench, [*bench, out, "--net", missing],
                 f"cannot read {missing}: {no_file}"),
                (cli.cmd_bench, [*bench, unwritable, "--net", net_file],
                 f"cannot write {unwritable}: {no_file}"),
                (cli.cmd_bench, [*bench, out, "--net", net_file, "--algos", "anneal,anneal"],
                 "algorithm 'anneal' appears twice in --algos"),
                (cli.cmd_bench, [*bench, out, "--net", net_file, "--algos", "bogus"],
                 "unknown algorithm 'bogus' in --algos (choose from anneal, oracle, hillclimb)"),
        ]:
            args = build_parser().parse_args(argv)
            assert args.func is command
            with pytest.raises(ValueError) as exc:
                command(args)
            assert str(exc.value) == message
        assert not os.path.exists(out)


class TestDispatch:
    """`main` reads a plain `solve` argv without building a parser and
    every other argv on the full parser tree; either way it must read as
    the full tree does."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["solve", "--help"], ["gen", "--help"], ["bench", "--help"],
        ["bogus"], ["solve", "--problem", "p.prob"],
        ["solve", "--net", "n.bnet", "--problem", "p.prob", "--algo", "x"],
        # an argument the command does not know is the top-level parser's error
        ["solve", "--net", "n.bnet", "--problem", "p.prob", "--bogus"],
        ["gen", "--net", "n.bnet", "--map-count", "1", "--evid-count", "1", "-o", "p", "x"],
        ["solve", "--seed=3"],
        ["solve", "--net", "n.bnet", "--problem", "p.prob", "--seed=x"],
    ], ids=["bare", "help", "solve-help", "gen-help", "bench-help", "bogus", "missing-net",
            "bad-algo", "unknown-option", "extra-positional", "joined-missing-net",
            "joined-bad-int"])
    def test_usage_matches_full_tree(self, argv, capsys):
        want = self._outcome(build_parser().parse_args, argv, capsys)
        assert self._outcome(main, argv, capsys) == want
        assert want[0] in (0, 2)

    @pytest.mark.parametrize("argv", [
        ["solve", "--net", "n.bnet", "--problem", "p.prob", "--seed=3"],
        ["solve", "--net", "n.bnet", "--problem", "p.prob", "--seed", "-1"],
        ["solve", "--net", "", "--problem", "p.prob"],
    ], ids=["joined", "negative", "empty-path"])
    def test_parse_matches_full_tree(self, argv):
        assert cli._parse_args(argv) == build_parser().parse_args(argv)

    def test_reads_sys_argv(self, net_file, problem_file, capsys, monkeypatch):
        args = ["solve", "--net", net_file, "--problem", problem_file, "--algo", "oracle"]
        assert main(args) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["amap", *args])
        assert main() == 0
        assert capsys.readouterr().out == want

    def test_plain_solve_builds_no_parser(self, net_file, problem_file, capsys,
                                          monkeypatch):
        base = ["solve", "--net", net_file, "--problem", problem_file]
        assert main([*base, "--seed", "3"]) == 0
        want = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("built a parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
        for rest in (["--seed", "3"], ["--seed", "1", "--seed", "3"]):
            assert main([*base, *rest]) == 0
            assert capsys.readouterr().out == want
        monkeypatch.undo()

        # a joined value and an abbreviation are the full tree's to read
        init = argparse.ArgumentParser.__init__
        built = []

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for rest in (["--seed=3"], ["--se", "3"]):
            built.clear()
            assert main([*base, *rest]) == 0
            assert capsys.readouterr().out == want
            assert built == ["amap", "amap solve", "amap gen", "amap bench"]


# what a `solve` argv is drawn from: pairs of a table flag and a value of its
# type or choices (now and then one the option or the reader refuses), and
# at most one odd item: a flag, an abbreviation, help or `--`, with a value
# of any kind, joined as `--name=value` or alone
_TABLE_FLAGS = [o.flag for o in cli._SOLVE_OPTIONS]
_NAMES = st.sampled_from(
    _TABLE_FLAGS + sorted({f[:n] for f in _TABLE_FLAGS for n in range(3, len(f))})
    + ["-h", "--help", "--", "--bogus"])
_REFUSED = st.sampled_from(["-x", "-", "-1", "x", "1.5", "nan"])
_VALUES = st.one_of(
    st.sampled_from(["0", "3", "-1", "17", "2.5", "0.5", "nan", "-nan", "inf", "-inf",
                     "1e3", " 4 ", "", "-x", "-", "x", *ALGOS, "Anneal", "bogus",
                     "n.bnet", "dir/p.prob", "a b.csv"]),
    st.integers(-3, 10 ** 6).map(str),
    st.floats(allow_nan=True).map(repr),
    st.text(max_size=4))


def _likely(option):
    """Mostly values `option` reads, now and then ones it or the reader refuses."""
    if option.choices:
        typed = st.sampled_from((*option.choices, "Anneal"))
    elif option.type is int:
        typed = st.integers(-3, 10 ** 6).map(str)
    elif option.type is float:
        typed = st.one_of(st.floats(allow_nan=True).map(repr),
                          st.sampled_from(["nan", "inf", "1e3", " 4 ", "7"]))
    else:
        typed = st.one_of(st.sampled_from(["n.bnet", "dir/p.prob", "a b.csv", ""]),
                          st.text(max_size=4))
    return st.one_of(typed, typed, typed, _REFUSED)


_ODD_ITEMS = st.one_of(
    st.tuples(_NAMES, _VALUES).map(list),
    st.tuples(_NAMES, _VALUES).map(lambda nv: [f"{nv[0]}={nv[1]}"]),
    _NAMES.map(lambda n: [n]), _VALUES.map(lambda v: [v]))


@st.composite
def _solve_rests(draw):
    """The arguments after `solve`: --net and --problem, each left out an
    eighth of the time, up to six likely pairs and a third of the time one
    odd item, in any order."""
    items = [[o.flag, draw(_likely(o))]
             for o in draw(st.lists(st.sampled_from(cli._SOLVE_OPTIONS), max_size=6))]
    items += [[flag, path] for flag, path in (("--net", "n.bnet"), ("--problem", "p.prob"))
              if draw(st.integers(0, 7))]
    if draw(st.integers(0, 2)) == 0:
        items.append(draw(_ODD_ITEMS))
    return [token for item in draw(st.permutations(items)) for token in item]


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


class TestSolveReader:
    """`_read_solve` returns only what the full parser tree returns."""

    @settings(max_examples=500, deadline=None)
    @given(_solve_rests())
    # a value outside the choices, a value starting with `-`, an odd count,
    # a failed conversion and a repeat
    @example(["--net", "n.bnet", "--problem", "p.prob", "--algo", "Anneal"])
    @example(["--net", "-x", "--problem", "p.prob"])
    @example(["--net", "n.bnet", "--problem", "p.prob", "--seed"])
    @example(["--net", "n.bnet", "--problem", "p.prob", "--seed", "x"])
    @example(["--net", "n.bnet", "--problem", "p.prob", "--k", "nan", "--k", "1e3"])
    def test_accepted_argv_parses_as_the_full_tree(self, rest):
        args = cli._read_solve(rest)
        if args is None:
            return
        try:
            want = build_parser().parse_args(["solve", *rest])
        except SystemExit as exc:
            pytest.fail(f"read {rest!r}, which argparse refuses with status {exc.code}")
        assert vars(args).keys() == vars(want).keys()
        for name, value in vars(want).items():
            assert _same(getattr(args, name), value), name


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    """`python ARGS` in a process of its own, importing the package from
    this checkout's `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli(*args):
    """`python -m amap.cli ARGS` in a process of its own."""
    return run_python("-m", "amap.cli", *args)


class TestProcess:
    def test_solve_prints_what_main_prints(self, net_file, problem_file, capsys):
        args = ["solve", "--net", net_file, "--problem", problem_file, "--seed", "3"]
        run = run_cli(*args)
        assert main(args) == 0
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout == capsys.readouterr().out != ""

    def test_cyclic_network_is_one_error_line(self, tmp_path, problem_file):
        net = tmp_path / "cyc.bnet"
        net.write_text(CYCLE_TEXT)
        run = run_cli("solve", "--net", str(net), "--problem", problem_file)
        assert run.returncode == 1 and run.stdout == ""
        assert "Traceback" not in run.stderr
        assert_one_error(run.stderr,
                         f"error: parse failed at {net}:4:5: cycle detected through variable 'A'")

    def test_import_leaves_the_process_pool_out(self):
        # only a bench with more than one worker imports the pool, and only
        # a bench mixes seeds with hashlib
        run = run_python(
            "-c", "import sys, amap.cli; "
                  "print('concurrent.futures.process' in sys.modules, 'hashlib' in sys.modules)")
        assert run.returncode == 0 and run.stdout == "False False\n"
