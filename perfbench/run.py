"""Seeded end-to-end benchmark for amap.

    python3 perfbench/run.py --workload r120 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, the test-side network generators from `tests/`. Set-up (import,
generate the seeded inputs, write `.bnet`/`.prob` files) runs in a fresh
interpreter several times and is reported as the median. The timed loop
then calls the same entry point users run, `amap.cli.main(["solve", ...])`,
or `solver.gibbs_chain` for the Gibbs workload, cycling through the
workload's cases until `--seconds` have passed. Every answer is checked
after the timed region. With `--trace 1` the run instead alternates an
untraced and a traced pass over the workload's fixed cases and reports
per-layer metrics.

Times are reported at a fixed reference host speed: a short pure-Python
reference block is timed between calls, and each call's wall time is
scaled by REF_BLOCK_MS over the block's time around it (see `host_ms`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name and unit, the answer digest and the `src/` line count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = HERE / "_work"

SETUP_REPEATS = 7
LOGP_TOL = 1e-6           # printed vs re-scored ln p(x|E)
ENUM_CAP = 3 ** 12        # joint size up to which the oracle is enumerated:
                          # every corpus50 network (at most 12 ternary variables)
LN10 = math.log(10.0)

# Host speed reference. On a shared host the interpreter runs the same code
# up to twice as slowly for seconds to minutes at a time, and a plain integer
# loop slows by about the same factor as the solves: on a 2-vCPU x86-64 VM,
# scaling repeated identical r120 hillclimb solves by it cut their spread
# between quartiles from 0.37 to 0.14 of the median. REF_BLOCK_MS is the
# loop's time on that VM, idle, with Python 3.11; it only sets the unit, so
# that a reported time is the wall time at that speed.
REF_ITERS = 30000
REF_BLOCK_MS = 1.8
CALIBRATE_AFTER_S = 0.1   # a call this long gets a host speed measurement
                          # of its own; shorter ones share one per case visit

# End-to-end metrics, printed by every workload and gated by BENCHMARK.json.
GATED = (
    ("setup_s", "s"), ("case_ms_mean", "ms"), ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics reported by every traced run, with the end-to-end metric
# and workload each should move.
_SITE = "anneal_ms_p50 on r120, gibbs_sweeps_per_s on sprinkler-gibbs"
_SWEEP = "anneal_ms_p50 on r120 and corpus50"
_HILL = "hillclimb_ms_p50 on r120"
_FIXED = "solves_per_s on corpus50, near zero on r120"
PER_LAYER = (
    ("engine.eliminate.calls", "count", _SITE),
    ("engine.eliminate.s", "s", _SITE),
    ("engine.eliminate.us_per_call", "us", _SITE),
    ("engine.conditional.calls", "count", _SITE),
    ("engine.conditional.s", "s", _SITE),
    ("engine.conditional.us_per_call", "us", _SITE),
    ("solver.conditionals_per_sweep", "calls/sweep", _SWEEP),
    ("solver.sweeps", "count", _SWEEP),
    ("solver.reheats", "count", _SWEEP),
    ("solver.best_found_fraction", "ratio", _SWEEP),
    ("engine.map_posterior.calls", "count", _HILL),
    ("solver.sequential_init.calls", "count", _HILL),
    ("solver.sequential_init.s", "s", _HILL),
    ("engine.prune.calls", "count", _FIXED),
    ("engine.prune.components", "count", _FIXED),
    ("engine.prune.max_component_vars", "count", _FIXED),
    ("model.BayesianNetwork.calls", "count", _FIXED),
    ("model.BayesianNetwork.s", "s", _FIXED),
    ("fileio.parse_network.calls", "count", _FIXED),
    ("fileio.parse_network.s", "s", _FIXED),
    ("fileio.parse_problem.calls", "count", _FIXED),
    ("fileio.parse_problem.s", "s", _FIXED),
    ("engine.forward_sample.calls", "count", "restart-count sanity check on corpus50"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall time of one pass"),
)

# Printed with the per-layer metrics but not in the JSON result, because
# they are exactly zero on any workload that never calls the function.
PER_LAYER_PRINTED = (
    ("engine.map_posterior.s", "s", _HILL),
    ("engine.prune.s", "s", _FIXED),
    ("cli.main.self_s", "s", _FIXED),
    ("solver.annealed_map.s", "s", "anneal_ms_p50 on r120 and corpus50"),
    ("solver.hill_climb_map.s", "s", "hillclimb_ms_p50 on r120 and corpus50"),
    ("solver.brute_force_map.s", "s", "oracle_ms_p50 on corpus50"),
    ("solver.gibbs_chain.s", "s", "gibbs_sweeps_per_s on sprinkler-gibbs"),
)


def _fail_without_program() -> None:
    if not (SRC / "amap" / "__init__.py").is_file() or not (TESTS / "netgen.py").is_file():
        print(f"error: {ROOT} holds no amap source tree (src/amap, tests/netgen.py)",
              file=sys.stderr)
        sys.exit(2)


_fail_without_program()
sys.path[:0] = [str(HERE), str(SRC), str(TESTS)]

import amap  # noqa: E402
from amap import Assignment, eliminate, fileio, map_posterior  # noqa: E402
from netgen import enum_best, enum_factor, joint_size  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GIBBS_SWEEPS, WORKLOADS, Workload  # noqa: E402


@dataclass
class Call:
    """One timed call of the entry point."""

    case: int
    op: str
    wall_s: float
    ok: bool
    output: object          # stdout text of a solve, visited tuples of a chain
    failure: str = ""
    scale: float = 1.0      # REF_BLOCK_MS over the reference block's time

    @property
    def ref_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.scale


def _reference_block() -> int:
    """Fixed interpreter work: integer arithmetic in a loop."""
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return acc


def host_ms() -> float:
    """Median time of three reference blocks, in ms: the host's current
    speed, as REF_BLOCK_MS on the reference machine."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_block()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


# -- set-up ------------------------------------------------------------------

def setup(workload: Workload, seed: int, repeats: int) -> Tuple[Path, dict, List[float]]:
    """Generate the workload's inputs `repeats` times in a fresh interpreter;
    return the input directory, its manifest and each set-up's wall time at
    the reference host speed."""
    out = WORK / f"{workload.name}-{seed}"
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{TESTS}")
    argv = [sys.executable, str(HERE / "workloads.py"), workload.name,
            str(seed), str(out), str(workload.cases)]
    times = []
    before = host_ms()
    for _ in range(repeats):
        # no timeout: with one, the wait polls and rounds times up to 50 ms
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        wall = time.perf_counter() - start
        after = host_ms()
        times.append(wall * REF_BLOCK_MS / ((before + after) / 2))
        before = after
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return out, manifest, times


# -- the timed calls ---------------------------------------------------------

def _call(inputs: Path, manifest: dict, case: int, op: str,
          extra: Tuple[str, ...]) -> Call:
    """One call of the entry point, timed with its parse and print. The
    amap functions are looked up on their modules at call time, so a
    tracer's wrappers are seen."""
    entry = manifest["cases"][case]
    net_path, prob_path = inputs / entry["net"], inputs / entry["problem"]
    seed = entry["seeds"][op]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if op == "gibbs":
                net = amap.fileio.parse_network(net_path.read_text(encoding="utf-8"))
                problem = amap.fileio.parse_problem(prob_path.read_text(encoding="utf-8"), net)
                output: object = amap.solver.gibbs_chain(
                    net, problem, GIBBS_SWEEPS, random.Random(seed))
                status = 0
            else:
                status = amap.cli.main(["solve", "--net", str(net_path), "--problem",
                                        str(prob_path), "--algo", op,
                                        "--seed", str(seed), *extra])
                output = stdout.getvalue()
        except SystemExit as exc:  # argparse usage errors
            status, output = exc.code, stdout.getvalue()
        except Exception as exc:  # a crash is a failed solve, not a failed run
            status, output = repr(exc), stdout.getvalue()
        wall = time.perf_counter() - start
    call = Call(case, op, wall, status == 0, output)
    if not call.ok:
        call.failure = f"exit status {status!r}: {stderr.getvalue().strip()}"
    return call


def run_cases(workload: Workload, inputs: Path, manifest: dict,
              count: int, deadline: Optional[float]) -> List[Call]:
    """Call every op on cases 0 .. count-1 in turn, then keep cycling
    through them until the deadline (if any) has passed.

    The host speed is measured before the first call, after every call of
    at least CALIBRATE_AFTER_S and after every case visit; each call is
    scaled by the mean of the two measurements around it.

    A repeated call has the same seed, so it must print what the first one
    printed; its output is compared at once and dropped, so that memory does
    not grow with the number of repeats.
    """
    calls: List[Call] = []
    first: Dict[Tuple[int, str], Call] = {}
    done = 0
    before = host_ms()
    while True:
        pending = []
        for i, (op, extra) in enumerate(workload.ops):
            call = _call(inputs, manifest, done % count, op, extra)
            earlier = first.setdefault((call.case, op), call)
            if earlier is not call:
                if call.output != earlier.output or call.ok != earlier.ok:
                    call.failure = "repeat of a seeded call printed a different answer"
                call.output = None
            calls.append(call)
            pending.append(call)
            if call.wall_s >= CALIBRATE_AFTER_S or i == len(workload.ops) - 1:
                after = host_ms()
                for c in pending:
                    c.scale = REF_BLOCK_MS / ((before + after) / 2)
                before, pending = after, []
        done += 1
        if done >= count and (deadline is None or time.perf_counter() >= deadline):
            return calls


# -- answer checks -----------------------------------------------------------

class Checker:
    """Checks answers after the timed region, caching parsed inputs and
    exact reference values per file."""

    def __init__(self, inputs: Path, manifest: dict) -> None:
        self.inputs = inputs
        self.manifest = manifest
        self._nets: Dict[str, amap.BayesianNetwork] = {}
        self._problems: Dict[str, amap.MapProblem] = {}
        self._log_pe: Dict[str, float] = {}
        self._enum: Dict[str, Tuple[int, ...]] = {}
        self._zero: Dict[str, set] = {}

    def net_problem(self, case: int):
        entry = self.manifest["cases"][case]
        if entry["net"] not in self._nets:
            text = (self.inputs / entry["net"]).read_text(encoding="utf-8")
            self._nets[entry["net"]] = fileio.parse_network(text)
        net = self._nets[entry["net"]]
        if entry["problem"] not in self._problems:
            text = (self.inputs / entry["problem"]).read_text(encoding="utf-8")
            self._problems[entry["problem"]] = fileio.parse_problem(text, net)
        return net, self._problems[entry["problem"]], entry["problem"]

    def solve_answer(self, case: int, text: str) -> Tuple[Tuple[int, ...], float]:
        """Parse `NAME=STATE` lines and `log10_p`; return the state tuple in
        MAP-variable order and the printed ln p(x|E)."""
        net, problem, _ = self.net_problem(case)
        states: Dict[int, int] = {}
        logp = None
        for line in text.splitlines():
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "log10_p":
                logp = float(value) * LN10
            elif sep and net.has_name(key):
                var = net.by_name(key)
                states[var.id] = var.states.index(value)
        if logp is None or sorted(states) != sorted(problem.map_vars):
            raise ValueError("output lacks the assignment or log10_p")
        return tuple(states[v] for v in problem.map_vars), logp

    def rescore(self, case: int, answer: Tuple[int, ...]) -> float:
        """Exact ln p(x|E) of `answer` on the full input network."""
        net, problem, key = self.net_problem(case)
        if key not in self._log_pe:
            self._log_pe[key] = eliminate(net, (), problem.evidence).log_total()
        x = Assignment(dict(zip(problem.map_vars, answer)))
        return map_posterior(net, x, problem.evidence, self._log_pe[key])

    def enumerated_best(self, case: int) -> Optional[Tuple[int, ...]]:
        net, problem, key = self.net_problem(case)
        if joint_size(net) > ENUM_CAP:
            return None
        if key not in self._enum:
            self._enum[key] = tuple(enum_best(net, problem)[0])
        return self._enum[key]

    def zero_cells(self, case: int) -> set:
        net, problem, key = self.net_problem(case)
        if key not in self._zero:
            exact = enum_factor(net, problem.map_vars, problem.evidence)
            self._zero[key] = {cfg for cfg, w in exact.items() if w == 0.0}
        return self._zero[key]

    def check(self, call: Call) -> Optional[Tuple[Tuple[int, ...], float]]:
        """Set `call.failure` if the answer is wrong; return (answer, ln p)
        for a solve."""
        if not call.ok:
            return None
        if call.op == "gibbs":
            zero = self.zero_cells(call.case)
            bad = sum(1 for cfg in call.output if cfg in zero)
            if bad:
                call.failure = f"chain visited {bad} zero-probability configurations"
            elif len(call.output) != GIBBS_SWEEPS:
                call.failure = f"chain returned {len(call.output)} of {GIBBS_SWEEPS} sweeps"
            return None
        try:
            answer, logp = self.solve_answer(call.case, call.output)
        except ValueError as exc:
            call.failure = str(exc)
            return None
        exact = self.rescore(call.case, answer)
        if not (logp == exact or abs(logp - exact) <= LOGP_TOL):
            call.failure = f"printed ln p {logp!r} but exact re-scoring gives {exact!r}"
        elif call.op == "oracle":
            best = self.enumerated_best(call.case)
            if best is not None and best != answer:
                call.failure = f"oracle answer {answer} but enumeration gives {best}"
        return answer, logp


def check_calls(calls: List[Call], checker: Checker):
    """Check the first call of each (case, op); a repeat inherits its
    verdict. Return the answer of each (case, op) for quality rates, and a
    digest of all outputs without timings."""
    first: Dict[Tuple[int, str], Call] = {}
    answers: Dict[Tuple[int, str], Tuple[Tuple[int, ...], float]] = {}
    for call in calls:
        key = (call.case, call.op)
        if key in first:
            if call.output is not None and call.output != first[key].output:
                call.failure = "repeat of a seeded call printed a different answer"
            call.failure = call.failure or first[key].failure
            continue
        first[key] = call
        result = checker.check(call)
        if result is not None:
            answers[key] = result
    digest = hashlib.sha256(json.dumps(
        [[case, op, c.output if isinstance(c.output, str) else [list(t) for t in c.output]]
         for (case, op), c in sorted(first.items())]).encode()).hexdigest()[:16]
    return answers, digest


# -- metrics -----------------------------------------------------------------

def tail_percentile(samples: List[float]) -> Optional[Tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it, by the
    nearest-rank rule; None if it would not lie above the median."""
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    ordered = sorted(samples)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def quality(answers) -> Dict[str, float]:
    """Mean reported ln p(x|E) of the anneal answers and, where the oracle
    ran, the share of answers equal to the oracle's."""
    out: Dict[str, float] = {}
    logps = [lp for (case, op), (_, lp) in answers.items() if op == "anneal"]
    if logps:
        out["anneal_logp_mean"] = statistics.fmean(logps)
    oracle = {case: a for (case, op), (a, _) in answers.items() if op == "oracle"}
    if oracle:
        for algo in ("anneal", "hillclimb"):
            hits = sum(1 for case, a in oracle.items()
                       if answers.get((case, algo), (None,))[0] == a)
            out[f"{algo}_optimal_rate"] = hits / len(oracle)
    return out


def timing_metrics(workload: Workload, calls: List[Call]) -> Dict[str, Tuple[float, str]]:
    """Per-op latency (median, tail, sample count) and throughput, plus the
    gated case latency and solve rate, all at the reference host speed;
    and the case latency and solve rate in plain wall time.

    The solve rate counts whole cycles over the cases only, so that it does
    not depend on how far the last, partial cycle got.
    """
    out: Dict[str, Tuple[float, str]] = {}
    per_op: Dict[str, List[float]] = {}
    for call in calls:
        per_op.setdefault(call.op, []).append(call.ref_s * 1000.0)
    for op, samples in per_op.items():
        name = "gibbs_call" if op == "gibbs" else op
        out[f"{name}_ms_p50"] = (statistics.median(samples), "ms")
        tail = tail_percentile(samples)
        if tail is not None:
            out[f"{name}_ms_p{tail[0]}"] = (tail[1], "ms")
        out[f"{name}_samples"] = (len(samples), "count")
    if "gibbs" in per_op:
        out["gibbs_sweeps_per_s"] = (
            GIBBS_SWEEPS * len(per_op["gibbs"]) / (sum(per_op["gibbs"]) / 1000.0), "1/s")
    cycle = workload.cases * len(workload.ops)
    whole = calls[:len(calls) // cycle * cycle]
    for prefix, seconds in (("", lambda c: c.ref_s), ("wall_", lambda c: c.wall_s)):
        # a case visit is one call of every op on one case; its time sums them
        visits: Dict[int, List[float]] = {}
        n_ops = len(workload.ops)
        for i in range(0, len(calls), n_ops):
            group = calls[i:i + n_ops]
            visits.setdefault(group[0].case, []).append(
                sum(seconds(c) for c in group) * 1000.0)
        out[f"{prefix}case_ms_mean"] = (
            statistics.fmean(statistics.median(v) for v in visits.values()), "ms")
        out[f"{prefix}solves_per_s"] = (len(whole) / sum(seconds(c) for c in whole), "1/s")
    out["host_slowdown"] = (statistics.median(1.0 / c.scale for c in calls), "ratio")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> Dict[str, float]:
    summary = tracer.summary()

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0) / passes

    out: Dict[str, float] = {}
    for fn in ("engine.eliminate", "engine.conditional"):
        calls, secs = get(fn, "calls"), get(fn, "s")
        out[f"{fn}.calls"] = calls
        out[f"{fn}.s"] = secs
        out[f"{fn}.us_per_call"] = secs / calls * 1e6 if calls else 0.0
    for fn in ("engine.map_posterior", "solver.sequential_init", "engine.prune",
               "model.BayesianNetwork", "fileio.parse_network", "fileio.parse_problem"):
        out[f"{fn}.calls"] = get(fn, "calls")
        out[f"{fn}.s"] = get(fn, "s")
    out["engine.forward_sample.calls"] = get("engine.forward_sample", "calls")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    for fn in ("annealed_map", "hill_climb_map", "brute_force_map", "gibbs_chain"):
        out[f"solver.{fn}.s"] = get(f"solver.{fn}", "s")

    anneal = tracer.results.get("solver.annealed_map", [])
    chains = tracer.results.get("solver.gibbs_chain", [])
    sweeps = sum(r.sweeps for r in anneal) + sum(len(c) for c in chains)
    sampled = tracer.count_under("engine.conditional",
                                 ("solver.annealed_map", "solver.gibbs_chain"))
    out["solver.sweeps"] = sweeps / passes
    out["solver.reheats"] = sum(r.reheats for r in anneal) / passes
    anneal_sweeps = sum(r.sweeps for r in anneal)
    out["solver.best_found_fraction"] = (
        sum(r.best_found_sweep for r in anneal) / anneal_sweeps if anneal_sweeps else 0.0)
    out["solver.conditionals_per_sweep"] = sampled / sweeps if sweeps else 0.0
    pruned = tracer.results.get("engine.prune", [])
    out["engine.prune.components"] = sum(len(p.components) for p in pruned) / passes
    out["engine.prune.max_component_vars"] = max(
        (len(c.net) for p in pruned for c in p.components), default=0)
    out["trace.overhead_s"] = overhead_s
    return out


# -- entry point -------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool,
        corrupt: Optional[Callable[[List[Call]], None]] = None) -> dict:
    """Run one workload and print its report; return the result object.

    `corrupt`, if given, may alter the recorded calls before they are
    checked, so a self-test can confirm that wrong answers count as failed.
    """
    inputs, manifest, setup_times = setup(workload, seed, 1 if trace else SETUP_REPEATS)
    metrics: Dict[str, Tuple[float, str]] = {}
    tracer: Optional[Tracer] = None
    if trace:
        calls, overheads, passes = [], [], 0
        tracer = Tracer(amap)
        begin = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            calls += run_cases(workload, inputs, manifest, workload.traced_cases, None)
            untraced = time.perf_counter() - pair_start
            with tracer:
                calls += run_cases(workload, inputs, manifest, workload.traced_cases, None)
            traced = time.perf_counter() - pair_start - untraced
            overheads.append(traced - untraced)
            passes += 1
            now = time.perf_counter()
            if now - begin + (now - pair_start) > seconds:
                break
        layers = layer_metrics(tracer, passes, statistics.median(overheads))
    else:
        calls = run_cases(workload, inputs, manifest, workload.cases,
                          time.perf_counter() + seconds)
        metrics.update(timing_metrics(workload, calls))
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    if corrupt is not None:
        corrupt(calls)
    answers, digest = check_calls(calls, Checker(inputs, manifest))
    failed = [c for c in calls if c.failure]
    for call in failed[:5]:
        print(f"FAILED case {call.case} {call.op}: {call.failure}")

    print(f"workload {workload.name} seed {seed} trace {int(trace)}")
    if trace:
        spans = WORK / f"spans-{workload.name}-{seed}.csv"
        tracer.write(spans)
        print(f"info spans = {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        for name, unit, target in PER_LAYER + PER_LAYER_PRINTED:
            print(f"layer {name} = {layers[name]:.6g} {unit}  -> {target}")
        result_metrics = {name: {"value": layers[name], "unit": unit}
                          for name, unit, _ in PER_LAYER}
    else:
        for name, value in quality(answers).items():
            metrics[name] = (value, "ratio" if name.endswith("rate") else "ln_p")
        metrics["failed_ratio"] = (len(failed) / len(calls), "ratio")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"metric {name} = {value:.6g} {unit}")
        result_metrics = {name: {"value": metrics[name][0], "unit": unit}
                          for name, unit in GATED}
    print(f"info answer_digest = {digest}")
    print(f"info src_lines = {src_lines()}")
    print(f"info attempted = {len(calls)} failed = {len(failed)}")
    result = {"correct": not failed, "attempted": len(calls), "failed": len(failed),
              "metrics": result_metrics}
    print(json.dumps(result))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
