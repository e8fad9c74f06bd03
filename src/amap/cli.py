"""Command-line front end: solve a MAP problem, generate random problems,
and run seeded benchmark sweeps to CSV."""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO, Tuple

from . import fileio, solver
from .engine import WidthCapError, forward_sample
from .fileio import ParseError, ReportRow
from .model import Assignment, BayesianNetwork, MapProblem
from .solver import AnnealSchedule, OracleCapError, SolveReport

ORACLE_CAP_ENV = "AMAP_ORACLE_CAP"
ALGOS = ("anneal", "oracle", "hillclimb")


def _mix_seed(master: int, *parts: int) -> int:
    """Derive a sub-seed from the master seed and integer indices (case,
    algorithm, ...) via a fixed hash, so concurrent cases stay reproducible."""
    key = ":".join(str(p) for p in (master, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def generate_problem(net: BayesianNetwork, n_map: int, n_evid: int,
                     rng: random.Random) -> MapProblem:
    """Random problem in the style of the benchmark protocol: MAP variables
    drawn from the roots, evidence drawn from the leaves and set from one
    prior forward sample."""
    _check_counts(n_map, n_evid)
    roots = list(net.roots())
    if not roots:
        raise ValueError(f"network {net.name!r} has no root variables")
    map_vars = sorted(rng.sample(roots, min(n_map, len(roots))))
    # an isolated variable is both root and leaf; keep the sets disjoint
    leaves = [v for v in net.leaves() if v not in map_vars]
    evid_vars = sorted(rng.sample(leaves, min(n_evid, len(leaves))))
    sample = forward_sample(net, rng)
    evidence = Assignment({v: sample[v] for v in evid_vars})
    return MapProblem(tuple(map_vars), evidence)


def _check_counts(n_map: int, n_evid: int) -> None:
    if n_map < 1 or n_evid < 0:
        raise ValueError("map-count must be >= 1 and evid-count >= 0")


def _oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if not raw:
        return solver.DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ORACLE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def _pool_size(workers: int, cases: int) -> int:
    """Worker processes for a bench sweep: never more than cases or CPUs."""
    return min(workers, cases, os.cpu_count() or 1)


def _schedule_from_args(args: argparse.Namespace) -> AnnealSchedule:
    return AnnealSchedule(t0=args.t0, alpha=args.alpha, k=args.k,
                          wait=args.wait, stop=args.stop)


def _add_schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t0", type=float, default=0.99)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--k", type=float, default=0.1)
    p.add_argument("--wait", type=int, default=10)
    p.add_argument("--stop", type=int, default=20)
    p.add_argument("--restarts", type=int, default=1)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")


def _create(path: str) -> TextIO:
    """`path` opened for writing; an unwritable path ends the command."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror}")


def _run_algo(algo: str, net: BayesianNetwork, problem: MapProblem,
              schedule: AnnealSchedule, seed: int, restarts: int,
              collect_trace: bool = False) -> SolveReport:
    rng = random.Random(seed)
    if algo == "anneal":
        return solver.annealed_map(net, problem, schedule, rng,
                                   restarts=restarts, collect_trace=collect_trace)
    if algo == "oracle":
        return solver.brute_force_map(net, problem, cap=_oracle_cap())
    if algo == "hillclimb":
        return solver.hill_climb_map(net, problem)
    raise ValueError(f"unknown algorithm {algo!r}")


def _write_trace(path: str, trace: List[solver.TraceRow]) -> None:
    with _create(path) as fh:
        fh.write("component,restart,sweep,temperature,current_logp,best_logp,specific_heat\n")
        for row in trace:
            fh.write(f"{row.component},{row.restart},{row.sweep},"
                     f"{row.temperature:.17g},{row.current_logp:.17g},"
                     f"{row.best_logp:.17g},{row.specific_heat:.17g}\n")


def cmd_solve(args: argparse.Namespace) -> int:
    if args.trace and args.algo != "anneal":
        raise SystemExit(f"error: --trace records annealing sweeps; "
                         f"algorithm {args.algo!r} has none")
    net = fileio.parse_network(_read(args.net))
    problem = fileio.parse_problem(_read(args.problem), net)
    schedule = _schedule_from_args(args)
    report = _run_algo(args.algo, net, problem, schedule, args.seed,
                       args.restarts, collect_trace=bool(args.trace))
    for v in problem.map_vars:
        var = net.var(v)
        print(f"{var.name}={var.states[report.best[v]]}")
    prob = math.exp(report.logp)
    log10 = report.logp / math.log(10.0)
    print(f"p = {prob:.12g}")
    print(f"log10_p = {log10:.12g}")
    print(f"sweeps = {report.sweeps}")
    print(f"reheats = {report.reheats}")
    if args.trace:
        _write_trace(args.trace, report.trace)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    net = fileio.parse_network(_read(args.net))
    rng = random.Random(args.seed)
    problem = generate_problem(net, args.map_count, args.evid_count, rng)
    text = fileio.serialize_problem(problem, net)
    with _create(args.output) as fh:
        fh.write(text)
    print(f"wrote {args.output}: {len(problem.map_vars)} MAP variables, "
          f"{len(problem.evidence)} evidence variables")
    return 0


@dataclass
class BenchConfig:
    net_paths: List[str]
    cases: int
    map_count: int
    evid_count: int
    algos: List[str]
    seed: int
    schedule: AnnealSchedule
    restarts: int
    output: str
    workers: int = 1

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise ValueError("cases must be >= 1")
        _check_counts(self.map_count, self.evid_count)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def _timed_run(algo: str, net: BayesianNetwork, problem: MapProblem,
               config: BenchConfig, seed: int
               ) -> Tuple[Optional[SolveReport], float, Optional[str]]:
    """One algorithm on one bench case: its report and wall time in ms, or
    no report, with the reason when an elimination would exceed the
    table-size cap and without one when the oracle is over its MAP-space
    cap."""
    start = time.perf_counter()
    try:
        report = _run_algo(algo, net, problem, config.schedule, seed, config.restarts)
    except OracleCapError:
        return None, 0.0, None
    except WidthCapError as exc:
        return None, 0.0, str(exc)
    return report, (time.perf_counter() - start) * 1000.0, None


def _bench_case(config: BenchConfig, net_text: str, problem_text: str, case: int
                ) -> Tuple[List[ReportRow], List[Tuple[str, str]]]:
    """Run one case; returns its report rows, and the (algorithm, reason)
    of each algorithm skipped because an elimination would exceed the
    table-size cap. An oracle over its MAP-space cap has no row and no
    reason.

    Re-parses inputs so the job is picklable for worker processes.
    """
    net = fileio.parse_network(net_text)
    problem = fileio.parse_problem(problem_text, net)
    # the oracle runs first, listed or not, for every row's matches_oracle;
    # it draws no random numbers, so its seed is immaterial
    oracle_run = _timed_run("oracle", net, problem, config, 0)
    oracle = oracle_run[0]
    rows = []
    skipped = []
    for ai, algo in enumerate(config.algos):
        seed = _mix_seed(config.seed, case, ai)
        report, wall_ms, skip = (oracle_run if algo == "oracle" else
                                 _timed_run(algo, net, problem, config, seed))
        if report is None:
            if skip is not None:
                skipped.append((algo, skip))
            continue
        matches: Optional[bool] = None
        if oracle is not None:
            matches = report.best.as_tuple(problem.map_vars) == \
                oracle.best.as_tuple(problem.map_vars)
        rows.append(ReportRow(
            network=net.name, case_id=case, algorithm=algo, seed=seed,
            log10_prob=report.logp / math.log(10.0), prob=math.exp(report.logp),
            sweeps=report.sweeps, restarts_used=report.restarts_used,
            best_found_sweep=report.best_found_sweep, reheats=report.reheats,
            wall_ms=wall_ms, matches_oracle=matches))
    return rows, skipped


def run_bench(config: BenchConfig) -> List[ReportRow]:
    rows: List[ReportRow] = []
    for net_index, net_path in enumerate(config.net_paths):
        net_text = _read(net_path)
        net = fileio.parse_network(net_text)
        jobs = []
        for case in range(config.cases):
            gen_rng = random.Random(_mix_seed(config.seed, net_index, case))
            problem = generate_problem(net, config.map_count, config.evid_count, gen_rng)
            jobs.append((config, net_text, fileio.serialize_problem(problem, net), case))
        workers = _pool_size(config.workers, config.cases)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_bench_case_star, jobs))
        else:
            results = [_bench_case(*job) for job in jobs]

        optimal = 0
        oracle_cases = 0
        mismatch_ratios: List[float] = []
        for case, (case_rows, skipped) in enumerate(results):
            for algo, reason in skipped:
                print(f"skipped: network={net.name} case={case} algorithm={algo}: {reason}",
                      file=sys.stderr)
            rows += case_rows
            oracle = next((r for r in case_rows if r.algorithm == "oracle"), None)
            for row in case_rows:
                if row.algorithm == "anneal" and row.matches_oracle is not None:
                    oracle_cases += 1
                    if row.matches_oracle:
                        optimal += 1
                    elif oracle is not None:
                        mismatch_ratios.append(10.0 ** (row.log10_prob - oracle.log10_prob))
        summary = (f"network={net.name} cases={config.cases} "
                   f"anneal_optimal={optimal}/{oracle_cases}")
        if mismatch_ratios:
            mean = sum(mismatch_ratios) / len(mismatch_ratios)
            summary += f" mean_ratio_on_mismatch={mean:.6g}"
        print(summary)
    return rows


def _bench_case_star(job):
    return _bench_case(*job)


def cmd_bench(args: argparse.Namespace) -> int:
    unknown = [a for a in args.algos if a not in ALGOS]
    if unknown:
        raise SystemExit(f"error: unknown algorithm {unknown[0]!r} in --algos "
                         f"(choose from {', '.join(ALGOS)})")
    repeated = [a for i, a in enumerate(args.algos) if a in args.algos[:i]]
    if repeated:
        raise SystemExit(f"error: algorithm {repeated[0]!r} appears twice in --algos")
    config = BenchConfig(
        net_paths=args.net, cases=args.cases, map_count=args.map_count,
        evid_count=args.evid_count, algos=args.algos, seed=args.seed,
        schedule=_schedule_from_args(args), restarts=args.restarts,
        output=args.output, workers=args.workers)
    with _create(config.output) as fh:  # before any case runs
        fh.write(fileio.write_report(run_bench(config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amap", description="MAP inference in discrete Bayesian networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one MAP problem")
    p_solve.add_argument("--net", required=True)
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--algo", choices=ALGOS, default="anneal")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--trace", default=None, metavar="F.csv")
    _add_schedule_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random MAP problem")
    p_gen.add_argument("--net", required=True)
    p_gen.add_argument("--map-count", type=int, required=True)
    p_gen.add_argument("--evid-count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    p_bench.add_argument("--net", action="append", required=True)
    p_bench.add_argument("--cases", type=int, required=True)
    p_bench.add_argument("--map-count", type=int, default=20)
    p_bench.add_argument("--evid-count", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--algos", type=lambda s: s.split(","),
                         default=["anneal", "oracle"])
    p_bench.add_argument("-o", "--output", required=True)
    p_bench.add_argument("--workers", type=int, default=1)
    _add_schedule_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: parse failed at {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
