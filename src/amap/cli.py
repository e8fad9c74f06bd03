"""Command-line front end: solve a MAP problem, generate random problems,
and run seeded benchmark sweeps to CSV."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import sys
import time
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple,
                    TypeVar)

from . import fileio, solver
from .engine import WidthCapError, forward_sample
from .fileio import ParseError, ReportRow
from .model import BayesianNetwork, MapProblem
from .solver import AnnealSchedule, SolveReport

ALGOS = ("anneal", "oracle", "hillclimb")


def _mix_seed(master: int, *parts: int) -> int:
    """Derive a sub-seed from the master seed and integer indices (case,
    algorithm, ...) via a fixed hash, so concurrent cases stay reproducible."""
    import hashlib  # here: only `bench` mixes seeds, and no other command pays its import
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
    return MapProblem(tuple(map_vars), {v: sample[v] for v in evid_vars})


def _check_counts(n_map: int, n_evid: int) -> None:
    if n_map < 1 or n_evid < 0:
        raise ValueError("map-count must be >= 1 and evid-count >= 0")


def _pool_size(workers: int, cases: int) -> int:
    """Worker processes for a bench sweep: never more than cases or CPUs."""
    return min(workers, cases, os.cpu_count() or 1)


def _schedule_from_args(args: argparse.Namespace) -> AnnealSchedule:
    """The checked schedule, and `--restarts` checked, of every algorithm."""
    if args.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {args.restarts}")
    return AnnealSchedule(t0=args.t0, alpha=args.alpha, k=args.k,
                          wait=args.wait, stop=args.stop)


class _Option(NamedTuple):
    flag: str
    type: Callable[[str], object]
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    required: bool = False
    metavar: Optional[str] = None


# the schedule's options, which `solve` and `bench` share
_SCHEDULE_OPTIONS = (
    _Option("--t0", float, AnnealSchedule.t0),
    _Option("--alpha", float, AnnealSchedule.alpha),
    _Option("--k", float, AnnealSchedule.k),
    _Option("--wait", int, AnnealSchedule.wait),
    _Option("--stop", int, AnnealSchedule.stop),
    _Option("--restarts", int, 1),
)
# `solve`'s options, in its help's order: its parser is built from them, and
# `_read_solve` reads a plain argv by them
_SOLVE_OPTIONS = (
    _Option("--net", str, required=True),
    _Option("--problem", str, required=True),
    _Option("--algo", str, "anneal", ALGOS),
    _Option("--seed", int, 0),
    _Option("--trace", str, metavar="F.csv"),
) + _SCHEDULE_OPTIONS
_SOLVE_FLAGS = {o.flag: (o.flag[2:].replace("-", "_"), o) for o in _SOLVE_OPTIONS}
_SOLVE_DEFAULTS = {dest: o.default for dest, o in _SOLVE_FLAGS.values()}
_SOLVE_REQUIRED = {dest for dest, o in _SOLVE_FLAGS.values() if o.required}


def _add_options(p: argparse.ArgumentParser, options: Sequence[_Option]) -> None:
    for o in options:
        p.add_argument(o.flag, type=o.type, default=o.default, choices=o.choices,
                       required=o.required, metavar=o.metavar)


def _read_solve(rest: Sequence[object]) -> Optional[argparse.Namespace]:
    """The namespace `build_parser().parse_args(["solve", *rest])` returns,
    read without building a parser when `rest` is whole `--name value` pairs
    of `solve`'s own flags, each value converted by its type and within its
    choices, and `--net` and `--problem` given (the last value of a flag
    given twice wins). None for any other `rest`, which argparse reads and
    reports: an odd count, an abbreviated or unknown flag, `--name=value`,
    `-h`, `--`, a value starting with `-`, a value its type or choices
    refuse, a missing required flag or an item that is not a string."""
    if len(rest) % 2:
        return None
    values = dict(_SOLVE_DEFAULTS)
    given = set()
    for flag, raw in zip(rest[::2], rest[1::2]):
        if not (isinstance(flag, str) and isinstance(raw, str)) or raw[:1] == "-":
            return None
        entry = _SOLVE_FLAGS.get(flag)
        if entry is None:
            return None
        dest, option = entry
        try:
            value = option.type(raw)
        except (TypeError, ValueError):
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[dest] = value
        given.add(dest)
    if not _SOLVE_REQUIRED <= given:
        return None
    return argparse.Namespace(command="solve", **values, func=cmd_solve)


_T = TypeVar("_T")


def _parse(path: str, parse: Callable[..., _T], *args: object) -> _T:
    """`parse(text, *args)` on the text of `path` less one leading
    byte-order mark; an unreadable file or a parse error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
        return parse(text, *args)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text (byte {exc.start})")
    except ParseError as exc:
        raise ValueError(f"parse failed at {path}:{exc}") from None


@contextlib.contextmanager
def _create(path: str) -> Iterator[TextIO]:
    """`path` opened for writing, and removed if the block fails, unless it
    names a symlink or something other than a regular file, which stays in
    place; an unwritable path ends the command."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


def _run_algo(algo: str, net: BayesianNetwork, problem: MapProblem,
              schedule: AnnealSchedule, seed: int, restarts: int,
              collect_trace: bool = False) -> SolveReport:
    rng = random.Random(seed)
    if algo == "anneal":
        return solver.annealed_map(net, problem, schedule, rng,
                                   restarts=restarts, collect_trace=collect_trace)
    if algo == "oracle":
        return solver.brute_force_map(net, problem)
    if algo == "hillclimb":
        return solver.hill_climb_map(net, problem)
    raise ValueError(f"unknown algorithm {algo!r}")


def _write_trace(fh: TextIO, trace: List[solver.TraceRow]) -> None:
    fh.write("component,restart,sweep,temperature,current_logp,best_logp,specific_heat\n")
    for row in trace:
        fh.write(f"{row.component},{row.restart},{row.sweep},"
                 f"{row.temperature:.17g},{row.current_logp:.17g},"
                 f"{row.best_logp:.17g},{row.specific_heat:.17g}\n")


def cmd_solve(args: argparse.Namespace) -> int:
    if args.trace and args.algo != "anneal":
        raise ValueError(f"--trace records annealing sweeps; algorithm {args.algo!r} has none")
    net = _parse(args.net, fileio.parse_network)
    problem = _parse(args.problem, fileio.parse_problem, net)
    schedule = _schedule_from_args(args)
    # opened before the solve, so an unwritable trace file ends the command
    # before any work, and removed if the solve fails
    with _create(args.trace) if args.trace else contextlib.nullcontext() as trace:
        report = _run_algo(args.algo, net, problem, schedule, args.seed,
                           args.restarts, collect_trace=trace is not None)
        if trace is not None:
            _write_trace(trace, report.trace)
    for v in problem.map_vars:
        var = net.var(v)
        print(f"{var.name}={var.states[report.best[v]]}")
    prob = math.exp(report.logp)
    log10 = report.logp / math.log(10.0)
    print(f"p = {prob:.12g}")
    print(f"log10_p = {log10:.12g}")
    print(f"sweeps = {report.sweeps}")
    print(f"reheats = {report.reheats}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    net = _parse(args.net, fileio.parse_network)
    rng = random.Random(args.seed)
    problem = generate_problem(net, args.map_count, args.evid_count, rng)
    text = fileio.serialize_problem(problem, net)
    with _create(args.output) as fh:
        fh.write(text)
    print(f"wrote {args.output}: {len(problem.map_vars)} MAP variables, "
          f"{len(problem.evidence)} evidence variables")
    return 0


def _timed_run(algo: str, net: BayesianNetwork, problem: MapProblem,
               args: argparse.Namespace, seed: int
               ) -> Tuple[Optional[SolveReport], float, Optional[str]]:
    """One algorithm on one bench case: its report and wall time in ms, or
    no report and the reason it refused the case, an elimination over the
    table-size cap (for the oracle, its table of the MAP space too)."""
    start = time.perf_counter()
    try:
        report = _run_algo(algo, net, problem, args.schedule, seed, args.restarts)
    except WidthCapError as exc:
        return None, 0.0, str(exc)
    return report, (time.perf_counter() - start) * 1000.0, None


def _bench_case(args: argparse.Namespace, net: BayesianNetwork, problem: MapProblem,
                case: int) -> Tuple[List[ReportRow], List[Tuple[str, str]]]:
    """Run one case; returns its report rows, and the (algorithm, reason)
    of each listed algorithm that refused it."""
    # the oracle runs first, listed or not, for every row's matches_oracle;
    # it draws no random numbers, so its seed is immaterial
    oracle_run = _timed_run("oracle", net, problem, args, 0)
    oracle = oracle_run[0]
    rows = []
    skipped = []
    for ai, algo in enumerate(args.algos):
        seed = _mix_seed(args.seed, case, ai)
        report, wall_ms, reason = (oracle_run if algo == "oracle" else
                                   _timed_run(algo, net, problem, args, seed))
        if report is None:
            skipped.append((algo, reason))
            continue
        matches: Optional[bool] = None
        if oracle is not None:
            matches = (tuple(map(report.best.__getitem__, problem.map_vars)) ==
                       tuple(map(oracle.best.__getitem__, problem.map_vars)))
        rows.append(ReportRow(
            network=net.name, case_id=case, algorithm=algo, seed=seed,
            log10_prob=report.logp / math.log(10.0), prob=math.exp(report.logp),
            sweeps=report.sweeps, restarts_used=report.restarts_used,
            best_found_sweep=report.best_found_sweep, reheats=report.reheats,
            wall_ms=wall_ms, matches_oracle=matches))
    return rows, skipped


def run_bench(args: argparse.Namespace, nets: Sequence[BayesianNetwork],
              problems: Sequence[Sequence[MapProblem]]) -> List[ReportRow]:
    """`bench` on the parsed networks and each one's generated problems,
    one per case, given its checked arguments and their `schedule`: every
    case's rows, each network's summary printed."""
    rows: List[ReportRow] = []
    for net, net_problems in zip(nets, problems):
        jobs = [(args, net, problem, case) for case, problem in enumerate(net_problems)]
        workers = _pool_size(args.workers, args.cases)
        if workers > 1:
            # imported here: the pool module is a third of this module's
            # import time, which every other command would pay
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_bench_case, *zip(*jobs)))
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
        summary = (f"network={net.name} cases={args.cases} "
                   f"anneal_optimal={optimal}/{oracle_cases}")
        if mismatch_ratios:
            mean = sum(mismatch_ratios) / len(mismatch_ratios)
            summary += f" mean_ratio_on_mismatch={mean:.6g}"
        print(summary)
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    unknown = [a for a in args.algos if a not in ALGOS]
    if unknown:
        raise ValueError(f"unknown algorithm {unknown[0]!r} in --algos "
                         f"(choose from {', '.join(ALGOS)})")
    repeated = [a for i, a in enumerate(args.algos) if a in args.algos[:i]]
    if repeated:
        raise ValueError(f"algorithm {repeated[0]!r} appears twice in --algos")
    args.schedule = _schedule_from_args(args)
    if args.cases < 1:
        raise ValueError("cases must be >= 1")
    _check_counts(args.map_count, args.evid_count)
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    nets = [_parse(path, fileio.parse_network) for path in args.net]
    problems = [[generate_problem(net, args.map_count, args.evid_count,
                                  random.Random(_mix_seed(args.seed, net_index, case)))
                 for case in range(args.cases)] for net_index, net in enumerate(nets)]
    with _create(args.output) as fh:  # before any case runs
        fh.write(fileio.write_report(run_bench(args, nets, problems)))
    return 0


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    _add_options(p, _SOLVE_OPTIONS)
    p.set_defaults(func=cmd_solve)


def _add_gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", required=True)
    p.add_argument("--map-count", type=int, required=True)
    p.add_argument("--evid-count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)


def _add_bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", action="append", required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--map-count", type=int, default=20)
    p.add_argument("--evid-count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algos", type=lambda s: s.split(","),
                   default=["anneal", "oracle"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_options(p, _SCHEDULE_OPTIONS)
    p.set_defaults(func=cmd_bench)


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree: `amap` and a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="amap", description="MAP inference in discrete Bayesian networks")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_solve_args(sub.add_parser("solve", help="solve one MAP problem"))
    _add_gen_args(sub.add_parser("gen", help="generate a random MAP problem"))
    _add_bench_args(sub.add_parser("bench", help="run a benchmark sweep to CSV"))
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`; a `solve` argv that `_read_solve`
    takes whole builds no parser."""
    if argv and argv[0] == "solve":
        args = _read_solve(argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
