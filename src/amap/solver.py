"""MAP solvers: the annealed Gibbs sampler with geometric cooling and
cost-based reheating, an exhaustive oracle, and a hill-climbing baseline.

All solvers prune the network first and solve each independent component
separately; per-component log-probabilities add up to ln p(x|E) on the
full network.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    Component,
    ImpossibleContextError,
    InconsistentEvidenceError,
    PrunedNetwork,
    _sample_index,
    conditional,
    eliminate,
    forward_sample,
    map_posterior,
    prune,
)
from .model import Assignment, BayesianNetwork, MapProblem

log = logging.getLogger(__name__)

IMPROVE_EPS = 1e-12   # best_logp must grow by more than this to count
TRACK_TOL = 1e-6      # tracked vs recomputed ln p(x|E)

DEFAULT_ORACLE_CAP = 2 ** 20
_MAX_CLIMB_STEPS = 1000


class OracleCapError(ValueError):
    """The exhaustive oracle refuses: a pruned component's MAP state space
    exceeds the cap."""

    def __init__(self, size: int, cap: int) -> None:
        super().__init__(f"a component's MAP state space has {size} configurations, "
                         f"cap is {cap}")
        self.size = size
        self.cap = cap


class TrackingError(RuntimeError):
    """Incrementally tracked ln p(x|E) drifted from the exact recomputation."""


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling/reheating/termination parameters."""

    t0: float = 0.99
    alpha: float = 0.8
    k: float = 0.1
    wait: int = 10
    stop: int = 20
    t_min: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (0.0 < self.t_min <= self.t0 <= 1.0):
            raise ValueError(f"need 0 < t_min <= t0 <= 1, got t_min={self.t_min}, t0={self.t0}")
        if self.k < 0.0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not (0 < self.wait <= self.stop):
            raise ValueError(f"need 0 < wait <= stop, got wait={self.wait}, stop={self.stop}")


@dataclass
class TraceRow:
    component: int
    restart: int
    sweep: int
    temperature: float
    current_logp: float
    best_logp: float
    specific_heat: float


@dataclass
class SolveReport:
    best: Assignment
    logp: float
    sweeps: int = 0
    reheats: int = 0
    best_found_sweep: int = 0
    restarts_used: int = 1
    trace: Optional[List[TraceRow]] = None


# -- schedule arithmetic -----------------------------------------------------

def acceptance_probability(t: float, logp_new: float, logp_old: float) -> float:
    """min{1, (p_new/p_old)^(1/t - 1)} computed in log domain."""
    if t <= 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    if logp_old == -math.inf:
        return 1.0
    if logp_new == -math.inf:
        return 0.0
    exponent = (1.0 / t - 1.0) * (logp_new - logp_old)
    if exponent >= 0.0:
        return 1.0
    return math.exp(exponent)


def geometric_cool(t: float, alpha: float, t_min: float = 1e-6) -> float:
    if t <= 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    return max(alpha * t, t_min)


def specific_heat(costs: Sequence[float], t: float) -> float:
    """Population variance of the costs divided by t squared."""
    if t <= 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    if len(costs) == 0:
        raise ValueError("costs must be nonempty")
    mean = math.fsum(costs) / len(costs)
    var = math.fsum((c - mean) ** 2 for c in costs) / len(costs)
    return var / (t * t)


def reheat_temperature(c_b: float, t_at_max_ch: float, k: float, t0: float) -> float:
    return min(t0, k * c_b + t_at_max_ch)


# -- the site update and initialization --------------------------------------

def _site(net: BayesianNetwork, j: int, x: Assignment,
          evidence: Assignment) -> np.ndarray:
    """The site update every solver shares: p(x_j | E, x without j), with
    every variable outside E and x summed out. Raises ImpossibleContextError
    when that context has probability zero."""
    context = evidence.merged(x)
    context.discard(j)
    return conditional(net, j, context)


def sequential_init(net: BayesianNetwork, problem: MapProblem) -> Assignment:
    """Greedy start: fix MAP variables in topological order, each to the most
    probable state of its site conditional given evidence and the choices
    made so far (later MAP variables are still summed out)."""
    problem.validate_for(net)
    if eliminate(net, (), problem.evidence).total() <= 0.0:
        raise InconsistentEvidenceError("evidence has probability zero")
    out = Assignment()
    map_set = set(problem.map_vars)
    for v in net.order():
        if v not in map_set:
            continue
        try:
            dist = _site(net, v, out, problem.evidence)
            state = int(np.argmax(dist))  # argmax keeps the lowest index on ties
        except ImpossibleContextError:
            log.warning("impossible context while initializing %s; using state 0",
                        net.var(v).name)
            state = 0
        out.set(v, state)
    return out


# -- the annealed sampler ----------------------------------------------------

def _anneal_restart(comp_index: int, restart: int, net: BayesianNetwork,
                    problem: MapProblem, schedule: AnnealSchedule,
                    init: Assignment, rng: random.Random,
                    log_p_evidence: float, sweep_offset: int,
                    trace: Optional[List[TraceRow]], debug_check: bool
                    ) -> SolveReport:
    """One annealing run on one component; its best_found_sweep and trace
    rows count sweeps from `sweep_offset`."""
    evidence = problem.evidence
    x = init.copy()
    logp = map_posterior(net, x, evidence, log_p_evidence)
    best, best_logp = x.copy(), logp
    best_found = sweep_offset
    t = schedule.t0
    no_improve = 0
    sweep = 0
    reheats = 0
    max_ch = -math.inf
    t_at_max_ch = schedule.t0

    while no_improve < schedule.stop:
        improved = False
        costs: List[float] = []
        for j in problem.map_vars:
            u = rng.random()
            try:
                dist = _site(net, j, x, evidence)
            except ImpossibleContextError:
                # current neighborhood has probability zero: resample uniformly
                x.set(j, rng.randrange(net.cardinality(j)))
                logp = map_posterior(net, x, evidence, log_p_evidence)
                costs.append(best_logp - logp)
                continue
            cand = _sample_index(dist, rng)
            cur = x[j]
            lp_new = math.log(dist[cand]) if dist[cand] > 0.0 else -math.inf
            lp_old = math.log(dist[cur]) if dist[cur] > 0.0 else -math.inf
            if u < acceptance_probability(t, lp_new, lp_old) and cand != cur:
                x.set(j, cand)
                if lp_old == -math.inf or logp == -math.inf:
                    logp = map_posterior(net, x, evidence, log_p_evidence)
                else:
                    logp = logp + lp_new - lp_old
            if logp > best_logp + IMPROVE_EPS:
                best, best_logp = x.copy(), logp
                best_found = sweep_offset + sweep + 1
                improved = True
            costs.append(best_logp - logp)
        sweep += 1

        finite = [c for c in costs if math.isfinite(c)]
        ch = math.nan
        if finite:
            ch = specific_heat(finite, t)
            if ch > max_ch:
                max_ch = ch
                t_at_max_ch = t
        if trace is not None:
            trace.append(TraceRow(comp_index, restart, sweep_offset + sweep,
                                  t, logp, best_logp, ch))
        if debug_check:
            exact = map_posterior(net, x, evidence, log_p_evidence)
            if not _close(logp, exact, TRACK_TOL):
                raise TrackingError(
                    f"sweep {sweep_offset + sweep}: tracked {logp} vs exact {exact}")

        no_improve = 0 if improved else no_improve + 1
        if no_improve >= schedule.stop:
            break
        if no_improve > 0 and no_improve % schedule.wait == 0:
            c_b = best_logp - logp
            if not math.isfinite(c_b):
                c_b = 0.0
            t = reheat_temperature(c_b, t_at_max_ch, schedule.k, schedule.t0)
            reheats += 1
        else:
            t = geometric_cool(t, schedule.alpha, schedule.t_min)

    exact = map_posterior(net, best, evidence, log_p_evidence)
    if not _close(best_logp, exact, TRACK_TOL):
        raise TrackingError(f"final: tracked {best_logp} vs exact {exact}")
    return SolveReport(best=best, logp=exact, sweeps=sweep, reheats=reheats,
                       best_found_sweep=best_found)


def _close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol


def _solve_components(pruned: PrunedNetwork,
                      solve: Callable[[int, Component, int], SolveReport]) -> SolveReport:
    """The pipeline every MAP solver shares. `solve(index, component,
    sweeps_before)` answers one pruned component, where `sweeps_before`
    counts the sweeps of the components before it. Answers are mapped back
    to original ids and merged; ln p(x|E), sweeps and reheats add up over
    the components, and best_found_sweep is the largest of theirs."""
    total = SolveReport(best=Assignment(), logp=0.0)
    for index, comp in enumerate(pruned.components):
        part = solve(index, comp, total.sweeps)
        total.best = total.best.merged(comp.to_original(part.best))
        total.logp += part.logp
        total.sweeps += part.sweeps
        total.reheats += part.reheats
        total.best_found_sweep = max(total.best_found_sweep, part.best_found_sweep)
        total.restarts_used = part.restarts_used  # the same on every component
    return total


def annealed_map(net: BayesianNetwork, problem: MapProblem,
                 schedule: Optional[AnnealSchedule] = None,
                 rng: Optional[random.Random] = None,
                 restarts: int = 1,
                 collect_trace: bool = False,
                 debug_check: bool = False) -> SolveReport:
    """Simulated-annealing Gibbs search for the MAP assignment.

    Restart 1 starts from the greedy sequential initialization; later
    restarts start from a prior forward sample restricted to the MAP set.
    """
    if schedule is None:
        schedule = AnnealSchedule()
    if rng is None:
        rng = random.Random(0)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    trace: Optional[List[TraceRow]] = [] if collect_trace else None

    def anneal(index: int, comp: Component, sweeps_before: int) -> SolveReport:
        # zero-probability evidence raises in sequential_init, on this plan
        log_pe = eliminate(comp.net, (), comp.problem.evidence).log_total()
        best: Optional[SolveReport] = None
        sweeps = reheats = 0
        for r in range(restarts):
            if r == 0:
                init = sequential_init(comp.net, comp.problem)
            else:
                init = forward_sample(comp.net, rng).restricted(comp.problem.map_vars)
            run = _anneal_restart(index, r, comp.net, comp.problem, schedule, init, rng,
                                  log_pe, sweeps_before + sweeps, trace, debug_check)
            sweeps += run.sweeps
            reheats += run.reheats
            if best is None or run.logp > best.logp:
                best = run
        return replace(best, sweeps=sweeps, reheats=reheats,
                       restarts_used=restarts)

    report = _solve_components(prune(net, problem), anneal)
    report.trace = trace
    return report


def gibbs_chain(net: BayesianNetwork, problem: MapProblem, sweeps: int,
                rng: random.Random) -> List[Tuple[int, ...]]:
    """Plain Gibbs sampling (temperature pinned at 1, no cooling, no stop
    rule). Returns the visited MAP-set configuration after every sweep, as
    state tuples in map-variable order. Every proposal is accepted: the
    acceptance probability at temperature 1 is identically 1."""
    x = sequential_init(net, problem)
    out: List[Tuple[int, ...]] = []
    for _ in range(sweeps):
        for j in problem.map_vars:
            # The acceptance variate is not needed at temperature 1, where
            # every proposal is accepted; drawing it anyway keeps the random
            # stream, and so every seeded chain, as it has always been.
            rng.random()
            x.set(j, _sample_index(_site(net, j, x, problem.evidence), rng))
        out.append(x.as_tuple(problem.map_vars))
    return out


# -- exact oracle ------------------------------------------------------------

def brute_force_map(net: BayesianNetwork, problem: MapProblem,
                    cap: int = DEFAULT_ORACLE_CAP) -> SolveReport:
    """Exhaustive MAP: enumerates every configuration of the MAP set on
    each pruned component. Ties resolve to the lexicographically lowest
    assignment in map-variable order. Raises OracleCapError, before any
    elimination, if a component's MAP state space exceeds `cap`."""
    pruned = prune(net, problem)
    for comp in pruned.components:
        size = math.prod(comp.net.cardinality(v) for v in comp.problem.map_vars)
        if size > cap:
            raise OracleCapError(size, cap)
    return _solve_components(pruned, lambda _, comp, __: _brute_force(comp))


def _brute_force(comp: Component) -> SolveReport:
    f = eliminate(comp.net, comp.problem.map_vars, comp.problem.evidence)
    total = f.total()
    if total <= 0.0:
        raise InconsistentEvidenceError("evidence has probability zero")
    flat = f.values.reshape(-1)
    idx = int(np.argmax(flat))  # first maximum = lexicographically lowest
    best_val = float(flat[idx])
    states = np.unravel_index(idx, f.values.shape) if f.values.ndim else ()
    best = Assignment({v: int(s) for v, s in zip(comp.problem.map_vars, states)})
    logp = -math.inf if best_val == 0.0 else math.log(best_val) - math.log(total)
    return SolveReport(best=best, logp=logp, restarts_used=0)


# -- hill-climbing baseline --------------------------------------------------

def hill_climb_map(net: BayesianNetwork, problem: MapProblem) -> SolveReport:
    """Greedy local search from the sequential initialization: move to the
    best strictly-improving single-variable change until a local maximum.

    All moves of variable j are scored from its one site conditional c_j,
    by the identity ln p(x'|E) - ln p(x|E) = ln c_j(s) - ln c_j(x_j); ties
    keep the first move in map-variable, then state, order. The final
    assignment is re-scored exactly with map_posterior."""
    return _solve_components(prune(net, problem), lambda _, comp, __: _climb(comp))


def _climb(comp: Component) -> SolveReport:
    net, evidence = comp.net, comp.problem.evidence
    x = sequential_init(net, comp.problem)
    steps = 0
    for _ in range(_MAX_CLIMB_STEPS):
        best_move: Optional[Tuple[int, int]] = None
        best_gain = 0.0
        for j in comp.problem.map_vars:
            # p(x|E) > 0 throughout, so c_j(x_j) > 0
            dist = _site(net, j, x, evidence)
            cur = math.log(dist[x[j]])
            for s, p in enumerate(dist):
                gain = math.log(p) - cur if p > 0.0 else -math.inf
                if gain > best_gain:  # s == x[j] has gain 0 and never wins
                    best_gain = gain
                    best_move = (j, s)
        if best_move is None:
            break
        x.set(*best_move)
        steps += 1
    return SolveReport(best=x, logp=map_posterior(net, x, evidence), sweeps=steps)
