"""MAP solvers: the annealed Gibbs sampler with geometric cooling and
cost-based reheating, an exact oracle by elimination, and a hill-climbing
baseline.

All solvers prune the network first and solve each independent component
separately; per-component log-probabilities add up to ln p(x|E) on the
full network.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    Component,
    ImpossibleContextError,
    InconsistentEvidenceError,
    PrunedNetwork,
    _conditional,
    _getter,
    _indicator_plan,
    _log_total,
    _plan,
    _run,
    _site_plans,
    forward_sample,
    prune,
)
from .model import Assignment, BayesianNetwork, MapProblem

IMPROVE_EPS = 1e-12   # best_logp must grow by more than this to count
TRACK_TOL = 1e-6      # tracked vs recomputed ln p(x|E)

_MAX_CLIMB_STEPS = 1000


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
        if not (0.0 <= self.k < math.inf):
            raise ValueError(f"k must be finite and >= 0, got {self.k}")
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
    """An answer and the search it took: `sweeps` counts annealing sweeps
    (hill climbing: moves), and `restarts_used` the most search runs on one
    component, 0 if every component has one MAP variable, which is answered
    exactly with no search."""

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


# -- initialization ----------------------------------------------------------

def sequential_init(net: BayesianNetwork, problem: MapProblem) -> Assignment:
    """Greedy start: fix MAP variables in topological order, each to the
    state s that maximises ln p(E, x_<v, v = s), the lowest on ties (state 0
    if all are impossible), with later MAP variables summed out: the argmax
    of v's site conditional given evidence and the choices made so far.
    Each state is scored by one evaluation of the component's indicator
    plan, which re-runs only the steps above v's indicator."""
    problem.validate_for(net)
    return _greedy(net, problem)[0]


def _greedy(net: BayesianNetwork, problem: MapProblem) -> Tuple[Assignment, float, float]:
    """`sequential_init`'s assignment x, unchecked, with ln p(E) and
    ln p(E, x), both read from its own evaluations: the first, of E alone,
    and the last MAP variable's winning score. Raises
    InconsistentEvidenceError if p(E) = 0."""
    plan = _indicator_plan(net, problem)
    context = problem.evidence.copy()
    log_pe = score = _log_total(plan, context)
    if log_pe == -math.inf:
        raise InconsistentEvidenceError("evidence has probability zero")
    map_set = set(problem.map_vars)
    for v in net.order():
        if v not in map_set:
            continue
        scores = []
        for s in range(net.cardinality(v)):
            context[v] = s
            scores.append(_log_total(plan, context))
        score = max(scores)
        context[v] = scores.index(score)
    return {v: s for v, s in context.items() if v in map_set}, log_pe, score


def _one_variable(comp: Component) -> Optional[SolveReport]:
    """The exact answer of a component with one MAP variable, found with no
    search; None for any other. The greedy start scores each state of that
    variable on the indicator plan and keeps the first maximum, the exact
    MAP: the answer is that state and its score less ln p(E). The solvers
    do not call it on a component of that variable alone, which
    `_solve_components` answers from its CPT row with the same bits."""
    if len(comp.problem.map_vars) != 1:
        return None
    x, log_pe, score = _greedy(comp.net, comp.problem)
    return SolveReport(best=x, logp=score - log_pe, restarts_used=0)


# -- the annealed sampler ----------------------------------------------------

def _sites(net: BayesianNetwork, problem: MapProblem) -> List[tuple]:
    """The site step of each MAP variable j, in map-variable order: (j, its
    site plan, the plan's memo of site records, the memo's key getter).
    A site update leaves x_j bound, which its plan never reads; it looks up
    p(x_j | E, x without j) as `memo.get(key(context))` and calls
    `_conditional`, which builds and stores every record, only on a miss."""
    return [(j, plan, plan.memo, plan.memo_key)
            for j, plan in zip(problem.map_vars, _site_plans(net, problem))]


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
    # every ln p(E, x) is scored on the indicator plan, as in hill climbing;
    # zero-probability evidence raises in the greedy start, on this plan
    indicator = _indicator_plan(net, problem)
    sites = _sites(net, problem)
    first, log_p_evidence, first_score = _greedy(net, problem)
    map_set = set(problem.map_vars)
    out = SolveReport(best={}, logp=-math.inf, restarts_used=restarts)
    sweep = sweeps_before  # sweeps run so far, this component's included
    for restart in range(restarts):
        if restart == 0:
            init = first
        else:
            init = {v: s for v, s in forward_sample(net, rng).items() if v in map_set}
        context = {**evidence, **init}  # E and the current assignment x
        logp = (_log_total(indicator, context) if restart else first_score) - log_p_evidence
        best, best_logp, best_found = init.copy(), logp, sweep
        t = schedule.t0
        no_improve = 0
        max_ch = -math.inf
        t_at_max_ch = schedule.t0

        while True:
            improved = False
            costs: List[float] = []
            for j, plan, memo, key in sites:
                u = rng.random()
                cur = context[j]
                # the site conditional p(x_j | E, x without j), with x_j
                # left bound: it changes only on an accepted proposal
                site = memo.get(key(context))
                if site is None:
                    try:
                        site = _conditional(net, j, plan, context)
                    except ImpossibleContextError:
                        # current neighborhood has probability zero: resample uniformly
                        context[j] = rng.randrange(net.cardinality(j))
                        logp = _log_total(indicator, context) - log_p_evidence
                        costs.append(best_logp - logp)
                        continue
                cand = bisect_right(site.cum, rng.random())
                lp_new, lp_old = site.logs[cand], site.logs[cur]
                accept = cand != cur and u < acceptance_probability(t, lp_new, lp_old)
                if accept:
                    context[j] = cand
                    if lp_old == -math.inf or logp == -math.inf:
                        logp = _log_total(indicator, context) - log_p_evidence
                    else:
                        logp = logp + lp_new - lp_old
                if logp > best_logp + IMPROVE_EPS:
                    best, best_logp = {v: s for v, s in context.items() if v in map_set}, logp
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
                exact = _log_total(indicator, context) - log_p_evidence
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

        # the best state, and the last one if it differs, are re-scored:
        # drifted site logs show in the chain's tracked score even when no
        # drifted value became the best
        exact = _log_total(indicator, {**evidence, **best}) - log_p_evidence
        if not math.isclose(best_logp, exact, rel_tol=0.0, abs_tol=TRACK_TOL):
            raise TrackingError(f"final: tracked {best_logp} vs exact {exact}")
        if any(context[v] != s for v, s in best.items()):
            last = _log_total(indicator, context) - log_p_evidence
            if not math.isclose(logp, last, rel_tol=0.0, abs_tol=TRACK_TOL):
                raise TrackingError(f"final: tracked {logp} vs exact {last}")
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
    the components, and best_found_sweep and restarts_used are the largest
    of theirs.

    A component of one variable, which `prune` keeps only for a MAP root
    with no evidence and no child left, is answered here, with no plan and
    no search: the first maximum of its one CPT row, whose ln less ln of
    the row's `np.add.reduce` total is its ln p(x|E). Those are the bits
    every solver's plan gives: a row masked to one state sums to that
    state's entry, ln p(E) and the oracle's total are that same reduction,
    and no rescale can fire at the largest entry of a row."""
    total = SolveReport(best={}, logp=0.0, restarts_used=0)
    for index, comp in enumerate(pruned.components):
        if len(comp.net) == 1:
            row = np.array(comp.net.cpts[0].table[0], dtype=float)
            s = int(np.argmax(row))
            part = SolveReport(best={0: s}, restarts_used=0, logp=(
                math.log(row[s]) - math.log(np.add.reduce(row))))
        else:
            part = solve(index, comp, total.sweeps)
        total.best.update(comp.to_original(part.best))
        total.logp += part.logp
        total.sweeps += part.sweeps
        total.reheats += part.reheats
        total.best_found_sweep = max(total.best_found_sweep, part.best_found_sweep)
        total.restarts_used = max(total.restarts_used, part.restarts_used)
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
    A pruned component with one MAP variable is answered exactly, from its
    CPT row if it has no other variable and by its greedy start otherwise:
    it runs no chain, draws no random number and counts no sweep, reheat,
    restart or trace row.
    """
    if schedule is None:
        schedule = AnnealSchedule()
    if rng is None:
        rng = random.Random(0)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    trace: Optional[List[TraceRow]] = [] if collect_trace else None
    report = _solve_components(prune(net, problem), lambda index, comp, before: (
        _one_variable(comp) or
        _anneal(index, comp, before, schedule, rng, restarts, trace, debug_check)))
    report.trace = trace
    return report


def gibbs_chain(net: BayesianNetwork, problem: MapProblem, sweeps: int,
                rng: random.Random) -> List[Tuple[int, ...]]:
    """Plain Gibbs sampling (temperature pinned at 1, no cooling, no stop
    rule). Returns the visited MAP-set configuration after every sweep, as
    state tuples in map-variable order. Every proposal is accepted: the
    acceptance probability at temperature 1 is identically 1. A negative
    `sweeps` raises ValueError."""
    if sweeps < 0:
        raise ValueError(f"sweeps must be >= 0, got {sweeps}")
    context = {**problem.evidence, **sequential_init(net, problem)}
    sites = _sites(net, problem)
    state = _getter(problem.map_vars)
    out: List[Tuple[int, ...]] = []
    for _ in range(sweeps):
        for j, plan, memo, key in sites:
            # The acceptance variate is not needed at temperature 1, where
            # every proposal is accepted; drawing it anyway keeps the random
            # stream, and so every seeded chain, as it has always been.
            rng.random()
            # x_j stays bound for its site conditional and is overwritten by
            # the draw
            site = memo.get(key(context))
            if site is None:
                site = _conditional(net, j, plan, context)
            context[j] = bisect_right(site.cum, rng.random())
        out.append(state(context))
    return out


# -- exact oracle ------------------------------------------------------------

def brute_force_map(net: BayesianNetwork, problem: MapProblem) -> SolveReport:
    """Exact MAP: on each pruned component, eliminates every variable but
    the MAP set and takes the largest entry of the table left, whose size
    is the MAP set's number of configurations. Ties resolve to the
    lexicographically lowest assignment in map-variable order. Like every
    elimination, raises WidthCapError, before any table is built, if that
    table or any table the elimination multiplies would exceed
    MAX_TABLE_ENTRIES. A component of one variable, a lone MAP root, is
    answered from its CPT row and compiles no plan."""
    return _solve_components(prune(net, problem), lambda _, comp, __: _brute_force(comp))


def _brute_force(comp: Component) -> SolveReport:
    problem = comp.problem
    # the MAP-space table, read in place; its log scale cancels in logp
    table = _run(_plan(comp.net, problem.map_vars, frozenset(problem.evidence)),
                 problem.evidence)
    total = float(table.sum())
    if total <= 0.0:
        raise InconsistentEvidenceError("evidence has probability zero")
    flat = table.reshape(-1)
    idx = int(np.argmax(flat))  # first maximum = lexicographically lowest
    best_val = float(flat[idx])
    states = np.unravel_index(idx, table.shape)
    best = {v: int(s) for v, s in zip(problem.map_vars, states)}
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
    function; its final score less ln p(E) is the ln p(x|E) reported.
    `sweeps` counts the moves made. A pruned component with one MAP
    variable starts at its exact MAP and tries no move; if it has no other
    variable, it is answered from its CPT row with no plan compiled."""
    return _solve_components(prune(net, problem),
                             lambda _, comp, __: _one_variable(comp) or _climb(comp))


def _climb(comp: Component) -> SolveReport:
    net, problem = comp.net, comp.problem
    plan = _indicator_plan(net, problem)
    # zero-probability evidence raises in the greedy start, on this plan
    x, log_pe, score = _greedy(net, problem)
    context = {**problem.evidence, **x}
    steps = 0
    for _ in range(_MAX_CLIMB_STEPS):
        best_move: Optional[Tuple[int, int]] = None
        best_score = score
        for j in problem.map_vars:
            state = context[j]
            for s in range(net.cardinality(j)):
                if s != state:
                    context[j] = s
                    flip = _log_total(plan, context)
                    if flip > best_score:
                        best_score, best_move = flip, (j, s)
            context[j] = state
        if best_move is None:
            break
        j, s = best_move
        context[j] = s
        score = best_score
        steps += 1
    x = {v: s for v, s in context.items() if v in problem.map_vars}
    return SolveReport(best=x, logp=score - log_pe, sweeps=steps)
