"""MAP solvers: the annealed Gibbs sampler with geometric cooling and
cost-based reheating, an exhaustive oracle, and a hill-climbing baseline.

All solvers prune the network first and solve each independent component
separately; per-component log-probabilities add up to ln p(x|E) on the
full network.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    Component,
    ImpossibleContextError,
    InconsistentEvidenceError,
    PrunedNetwork,
    _conditional,
    _indicator_plan,
    _log_total,
    _Plan,
    _sample_index,
    _Site,
    _site_plans,
    eliminate,
    forward_sample,
    map_posterior,
    prune,
)
from .model import Assignment, BayesianNetwork, MapProblem

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

def _site(net: BayesianNetwork, j: int, context: Assignment, plan: _Plan) -> _Site:
    """The site update anneal and Gibbs share: p(x_j | context without j),
    with every variable outside the context summed out, as a site record
    (its probabilities and their logs as floats), on `plan`, j's entry of
    `_site_plans`, looked up once per run. `context` is E together with the
    current assignment x, which the caller keeps in step with x: this call
    unbinds j, and the caller binds it again to x_j's next state. Raises
    ImpossibleContextError when the context has probability zero."""
    context.discard(j)
    return _conditional(net, j, plan, context)


def sequential_init(net: BayesianNetwork, problem: MapProblem) -> Assignment:
    """Greedy start: fix MAP variables in topological order, each to the
    state s that maximises ln p(E, x_<v, v = s), the lowest on ties (state 0
    if all are impossible), with later MAP variables summed out: the argmax
    of v's site conditional given evidence and the choices made so far.
    Each state is scored by one evaluation of the component's indicator
    plan, which re-runs only the steps above v's indicator."""
    problem.validate_for(net)
    plan = _indicator_plan(net, problem)
    context = problem.evidence.copy()
    if _log_total(plan, context) == -math.inf:
        raise InconsistentEvidenceError("evidence has probability zero")
    map_set = set(problem.map_vars)
    for v in net.order():
        if v not in map_set:
            continue
        scores = []
        for s in range(net.cardinality(v)):
            context.set(v, s)
            scores.append(_log_total(plan, context))
        context.set(v, scores.index(max(scores)))
    return context.restricted(problem.map_vars)


# -- the annealed sampler ----------------------------------------------------

def _anneal(index: int, comp: Component, sweeps_before: int, schedule: AnnealSchedule,
            rng: random.Random, restarts: int, trace: Optional[List[TraceRow]],
            debug_check: bool) -> SolveReport:
    """ANNEALEDMAP on one pruned component: `restarts` runs of the cooled
    and reheated Gibbs chain. The run whose best assignment re-scores
    highest wins, the first on ties; sweeps and reheats add up over the
    runs, and best_found_sweep and trace rows count sweeps from
    `sweeps_before`."""
    net, problem = comp.net, comp.problem
    evidence = problem.evidence
    # zero-probability evidence raises in sequential_init, on this plan
    log_p_evidence = _log_total(_indicator_plan(net, problem), evidence)
    plans = _site_plans(net, problem)
    out = SolveReport(best=Assignment(), logp=-math.inf, restarts_used=restarts)
    sweep = sweeps_before  # sweeps run so far, this component's included
    for restart in range(restarts):
        if restart == 0:
            init = sequential_init(net, problem)
        else:
            init = forward_sample(net, rng).restricted(problem.map_vars)
        context = evidence.merged(init)  # E and the current assignment x
        logp = map_posterior(net, init, evidence, log_p_evidence)
        best, best_logp, best_found = init.copy(), logp, sweep
        t = schedule.t0
        no_improve = 0
        max_ch = -math.inf
        t_at_max_ch = schedule.t0

        while True:
            improved = False
            costs: List[float] = []
            for j, plan in zip(problem.map_vars, plans):
                u = rng.random()
                cur = context[j]
                try:
                    site = _site(net, j, context, plan)
                except ImpossibleContextError:
                    # current neighborhood has probability zero: resample uniformly
                    context.set(j, rng.randrange(net.cardinality(j)))
                    logp = map_posterior(net, context, evidence, log_p_evidence)
                    costs.append(best_logp - logp)
                    continue
                cand = _sample_index(site.probs, rng)
                lp_new, lp_old = site.logs[cand], site.logs[cur]
                accept = u < acceptance_probability(t, lp_new, lp_old) and cand != cur
                context.set(j, cand if accept else cur)
                if accept:
                    if lp_old == -math.inf or logp == -math.inf:
                        logp = map_posterior(net, context, evidence, log_p_evidence)
                    else:
                        logp = logp + lp_new - lp_old
                if logp > best_logp + IMPROVE_EPS:
                    best, best_logp = context.restricted(problem.map_vars), logp
                    best_found = sweep + 1
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
                trace.append(TraceRow(index, restart, sweep, t, logp, best_logp, ch))
            if debug_check:
                exact = map_posterior(net, context, evidence, log_p_evidence)
                if not math.isclose(logp, exact, rel_tol=0.0, abs_tol=TRACK_TOL):
                    raise TrackingError(f"sweep {sweep}: tracked {logp} vs exact {exact}")

            no_improve = 0 if improved else no_improve + 1
            if no_improve >= schedule.stop:
                break
            if no_improve > 0 and no_improve % schedule.wait == 0:
                c_b = best_logp - logp
                if not math.isfinite(c_b):
                    c_b = 0.0
                t = reheat_temperature(c_b, t_at_max_ch, schedule.k, schedule.t0)
                out.reheats += 1
            else:
                t = geometric_cool(t, schedule.alpha, schedule.t_min)

        exact = map_posterior(net, best, evidence, log_p_evidence)
        if not math.isclose(best_logp, exact, rel_tol=0.0, abs_tol=TRACK_TOL):
            raise TrackingError(f"final: tracked {best_logp} vs exact {exact}")
        if restart == 0 or exact > out.logp:
            out.best, out.logp, out.best_found_sweep = best, exact, best_found
    out.sweeps = sweep - sweeps_before
    return out


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
    report = _solve_components(prune(net, problem), lambda index, comp, before: _anneal(
        index, comp, before, schedule, rng, restarts, trace, debug_check))
    report.trace = trace
    return report


def gibbs_chain(net: BayesianNetwork, problem: MapProblem, sweeps: int,
                rng: random.Random) -> List[Tuple[int, ...]]:
    """Plain Gibbs sampling (temperature pinned at 1, no cooling, no stop
    rule). Returns the visited MAP-set configuration after every sweep, as
    state tuples in map-variable order. Every proposal is accepted: the
    acceptance probability at temperature 1 is identically 1."""
    context = problem.evidence.merged(sequential_init(net, problem))
    plans = _site_plans(net, problem)
    out: List[Tuple[int, ...]] = []
    for _ in range(sweeps):
        for j, plan in zip(problem.map_vars, plans):
            # The acceptance variate is not needed at temperature 1, where
            # every proposal is accepted; drawing it anyway keeps the random
            # stream, and so every seeded chain, as it has always been.
            rng.random()
            context.set(j, _sample_index(_site(net, j, context, plan).probs, rng))
        out.append(context.as_tuple(problem.map_vars))
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

    Every move x' is scored as ln p(x', E) by one evaluation of the
    component's indicator plan with every MAP variable bound, which re-runs
    only the steps above the flipped variable's indicator; ties keep the
    first move in map-variable, then state, order. The best move's score
    becomes the current score, so the climb strictly ascends that one
    function. The final assignment is re-scored exactly with map_posterior."""
    return _solve_components(prune(net, problem), lambda _, comp, __: _climb(comp))


def _climb(comp: Component) -> SolveReport:
    net, problem = comp.net, comp.problem
    plan = _indicator_plan(net, problem)
    # zero-probability evidence raises in sequential_init, on this plan
    log_pe = _log_total(plan, problem.evidence)
    context = problem.evidence.merged(sequential_init(net, problem))
    score = _log_total(plan, context)
    steps = 0
    for _ in range(_MAX_CLIMB_STEPS):
        best_move: Optional[Tuple[int, int]] = None
        best_score = score
        for j in problem.map_vars:
            state = context[j]
            for s in range(net.cardinality(j)):
                if s != state:
                    context.set(j, s)
                    flip = _log_total(plan, context)
                    if flip > best_score:
                        best_score, best_move = flip, (j, s)
            context.set(j, state)
        if best_move is None:
            break
        context.set(*best_move)
        score = best_score
        steps += 1
    x = context.restricted(problem.map_vars)
    return SolveReport(best=x, logp=map_posterior(net, x, problem.evidence, log_pe),
                       sweeps=steps)
