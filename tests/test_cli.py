import csv
import io
import random
import resource
import time

import pytest

from amap import parse_network, parse_problem, solver
from amap.cli import generate_problem, main, _mix_seed, _pool_size
from conftest import SPRINKLER_TEXT, SPRINKLER_PROBLEM_TEXT
from netgen import random_network
from amap.fileio import REPORT_COLUMNS, serialize_network, serialize_problem


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

    def test_parse_error_reported(self, tmp_path, problem_file, capsys):
        bad = tmp_path / "bad.bnet"
        bad.write_text("network n\nvar A { t, f }\ncpt A { 0.8 0.3 }\n")
        code = main(["solve", "--net", str(bad), "--problem", problem_file])
        assert code == 1
        assert "row sums" in capsys.readouterr().err

    def test_trace_file(self, net_file, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--net", net_file, "--problem", problem_file,
                     "--seed", "1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("component,restart,sweep,temperature")
        assert len(lines) > 1

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

    def test_oracle_cap_blank(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(4)
        net = random_network(rng, 12, name="caps")
        path = tmp_path / "caps.bnet"
        path.write_text(serialize_network(net))
        monkeypatch.setenv("AMAP_ORACLE_CAP", "1")
        out = tmp_path / "r.csv"
        assert main(["bench", "--net", str(path), "--cases", "2",
                     "--map-count", "2", "--evid-count", "1", "--seed", "2",
                     "--algos", "anneal", "-o", str(out)]) == 0
        capsys.readouterr()
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

    def test_workers_below_one_rejected(self, net_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "1",
                     "--map-count", "1", "--evid-count", "1",
                     "--workers", "0", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "workers" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_pool_size_capped(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _pool_size(1, 10) == 1
        assert _pool_size(3, 10) == 3
        assert _pool_size(64, 10) == 4
        assert _pool_size(64, 2) == 2
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _pool_size(8, 10) == 1

    @pytest.mark.parametrize("raw", ["lots", "2.5", "0", "-3"])
    def test_bad_oracle_cap_env(self, raw, net_file, tmp_path, capsys,
                                monkeypatch):
        monkeypatch.setenv("AMAP_ORACLE_CAP", raw)
        out = tmp_path / "r.csv"
        code = main(["bench", "--net", net_file, "--cases", "1",
                     "--map-count", "1", "--evid-count", "1", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "AMAP_ORACLE_CAP" in err and repr(raw) in err
        assert len(err.strip().splitlines()) == 1


class TestSeedMixing:
    def test_stable_and_distinct(self):
        assert _mix_seed(1, 2, 3) == _mix_seed(1, 2, 3)
        assert _mix_seed(1, 2, 3) != _mix_seed(1, 3, 2)
        assert _mix_seed(1, 2, 3) != _mix_seed(2, 2, 3)
