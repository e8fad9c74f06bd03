"""Exact inference: variable elimination with evidence-based pruning,
plus prior forward sampling.

Each elimination is compiled once per network, kept variables and set of
bound variables into a plan; later calls with new bound values only
evaluate it, and once a plan has been evaluated twice they re-run only the
steps that read a bound variable whose value changed.

Factor products and sums run in linear domain; a separate log scale is
carried and folded in only at the boundary, so deep products on large
components cannot overflow or underflow.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .model import Assignment, BayesianNetwork, Cpt, MapProblem, Variable

_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100
MAX_TABLE_ENTRIES = 2 ** 27  # 1 GiB of float64
_CPTS = "cpts"  # key of a network's _Cpts among its plans
_ALL = slice(None)


class ImpossibleContextError(ValueError):
    """The conditioning context has probability zero."""


class InconsistentEvidenceError(ValueError):
    """p(E) = 0: no assignment is compatible with the evidence."""


class WidthCapError(ValueError):
    """An elimination would build a table of more than MAX_TABLE_ENTRIES."""


@dataclass
class Factor:
    """Nonnegative table over `scope`; true values are `values * exp(log_scale)`.

    `values` is shaped by the scope variables' cardinalities in scope order
    (shape () for the empty scope), so the flat (C-order) layout has the
    last scope variable varying fastest.
    """

    scope: Tuple[int, ...]
    values: np.ndarray
    log_scale: float = 0.0

    def total(self) -> float:
        return float(self.values.sum())

    def log_total(self) -> float:
        t = self.total()
        return -math.inf if t == 0.0 else math.log(t) + self.log_scale


@dataclass(frozen=True)
class _Step:
    """Multiply the factors in `slots` into a table of `shape`, each input
    transposed by `perms[i]` and reshaped by `shapes[i]` (None where that
    is a no-op), then sum out `axis` (None for the final product). Bit i
    of `mask` is set when the output depends on the value of the plan's
    i-th bound variable."""

    slots: Tuple[int, ...]
    perms: Tuple[Optional[Tuple[int, ...]], ...]
    shapes: Tuple[Optional[Tuple[int, ...]], ...]
    shape: Tuple[int, ...]
    axis: Optional[int]
    mask: int


@dataclass(eq=False)
class _Cpts:
    """A network's CPT arrays, shared by its plans, and the number of table
    entries those plans retain between evaluations (at most
    MAX_TABLE_ENTRIES)."""

    arrays: Tuple[np.ndarray, ...]
    retained: int = 0


@dataclass(eq=False)
class _Plan:
    """A compiled elimination. Slot i < len(net) holds CPT i with its bound
    axes selected; step k writes slot len(net) + k; the last step is the
    final product, whose axes `perm` puts into keep order.

    `runs` counts completed evaluations. From its third evaluation on, a
    plan whose step outputs (`entries` in all) fit in the network's budget
    keeps them, read-only, in `outputs` and `scales`; `last` holds the bound
    values (in `bound` order) they are valid for, and is None while an
    evaluation runs. Plans evaluated once or twice, such as those of
    sequential initialization and of a hill climb of at most one step, keep
    nothing."""

    cpts: _Cpts
    select: Tuple[Optional[Tuple[int, ...]], ...]  # per CPT axis: bound id or -1
    bound: Tuple[int, ...]  # the bound variables, sorted
    steps: Tuple[_Step, ...]
    perm: Tuple[int, ...]
    entries: int
    runs: int = 0
    last: Optional[Tuple[int, ...]] = None
    outputs: Optional[List[np.ndarray]] = None
    scales: Optional[List[float]] = None

    def retain(self) -> bool:
        """Start keeping the step outputs, if they fit in the network's
        budget."""
        if self.cpts.retained + self.entries > MAX_TABLE_ENTRIES:
            return False
        self.cpts.retained += self.entries
        self.outputs = [None] * len(self.steps)
        self.scales = [0.0] * len(self.steps)
        return True


def _bits(b: int) -> Iterator[int]:
    """The positions of the set bits of `b`, lowest first."""
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


def _min_fill_order(scopes: Sequence[Tuple[int, ...]], elim: Set[int],
                    tie_break: str) -> List[int]:
    """Elimination order over `elim` by the min-fill heuristic.

    tie_break "low" picks the lowest variable id among equals; "high" the
    highest (used only to check order-independence of results). Vertices
    are renumbered 0.. in id order and each neighbourhood is an int bitset.
    Each fill score is computed in full once, and again only for the
    neighbours N(v) of an eliminated v. No other vertex gains or loses a
    neighbour, so its score falls by exactly one per new fill edge with both
    ends among its neighbours: that is applied as a delta to the common
    neighbours, outside N(v), of each fill edge's ends.
    """
    ids = sorted(elim.union(*scopes))
    local = {v: i for i, v in enumerate(ids)}
    adj = [0] * len(ids)
    for scope in scopes:
        clique = sum(1 << local[v] for v in scope)
        for v in scope:
            adj[local[v]] |= clique
    for i in range(len(adj)):
        adj[i] &= ~(1 << i)

    def fill(i: int) -> int:
        # each edge among the neighbours is counted from both ends; the bit
        # loop is _bits inlined, as this is min-fill's innermost loop
        nbrs = b = adj[i]
        present = 0
        while b:
            low = b & -b
            present += (adj[low.bit_length() - 1] & nbrs).bit_count()
            b ^= low
        d = nbrs.bit_count()
        return (d * (d - 1) - present) // 2

    sign = -1 if tie_break == "high" else 1
    score = {i: fill(i) for i in map(local.__getitem__, elim)}
    heap = [(f, sign * i, i) for i, f in score.items()]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        f, _, i = heapq.heappop(heap)
        if score.get(i) != f:
            continue  # stale entry, or i already eliminated
        order.append(ids[i])
        del score[i]
        nbrs = adj[i]
        outside = ~(nbrs | (1 << i))
        delta: Dict[int, int] = {}
        for a in _bits(nbrs):
            new = nbrs & ~adj[a] & ~(1 << a)  # fill edges at a
            for b in _bits(new & ~((2 << a) - 1)):  # each edge once, as a < b
                for w in _bits(adj[a] & adj[b] & outside):
                    delta[w] = delta.get(w, 0) + 1
            adj[a] = (adj[a] | new) & ~(1 << i)
        for w, d in delta.items():
            if w in score:
                score[w] -= d
                heapq.heappush(heap, (score[w], sign * w, w))
        for u in _bits(nbrs):
            if u in score:
                f = fill(u)
                if f != score[u]:
                    score[u] = f
                    heapq.heappush(heap, (f, sign * u, u))
    return order


def _plan(net: BayesianNetwork, keep: Tuple[int, ...], bound: FrozenSet[int],
          tie_break: str) -> _Plan:
    """The network's compiled plan for eliminating all but `keep` with the
    variables in `bound` fixed, compiled on first use. Raises WidthCapError,
    before any array is built, if a table would exceed MAX_TABLE_ENTRIES,
    and ValueError for a tie_break other than "low" or "high"."""
    key = (keep, bound, tie_break)
    plan = net._plans.get(key)
    if plan is not None:
        return plan
    if tie_break not in ("low", "high"):
        raise ValueError(f"tie_break must be 'low' or 'high', not {tie_break!r}")
    cards = [v.cardinality for v in net.variables]
    bits = {v: 1 << i for i, v in enumerate(sorted(bound))}
    bits[-1] = 0  # an unbound axis in `select`
    scopes: List[Tuple[int, ...]] = []
    masks: List[int] = []  # per slot, as _Step.mask
    select: List[Optional[Tuple[int, ...]]] = []
    for cpt in net.cpts:
        full = cpt.parents + (cpt.child,)
        sel = None if bound.isdisjoint(full) else tuple(v if v in bound else -1 for v in full)
        scopes.append(full if sel is None else tuple(v for v in full if v not in bound))
        select.append(sel)
        masks.append(0 if sel is None else sum(map(bits.__getitem__, sel)))
    elim = set(range(len(cards))) - set(keep) - bound
    order = _min_fill_order(scopes, elim, tie_break)

    # holders[u]: the slots whose scope holds u, in slot order (the product
    # order); a slot stays listed once a step has consumed it, so `live`
    # tells which are left
    holders: List[List[int]] = [[] for _ in cards]
    for s, sc in enumerate(scopes):
        for u in sc:
            holders[u].append(s)
    live = [True] * len(scopes)
    steps: List[_Step] = []
    max_entries = 1
    entries = 0
    pos: Dict[int, int] = {}
    for v in order + [None]:
        if v is None:
            related = [s for s, alive in enumerate(live) if alive]
        else:
            related = [s for s in holders[v] if live[s]]
            if not related:
                continue
        pos = {}  # each output variable's axis, in order of first appearance
        mask = 0
        for s in related:
            live[s] = False
            mask |= masks[s]
            for u in scopes[s]:
                pos.setdefault(u, len(pos))
        shape = tuple(map(cards.__getitem__, pos))
        perms: List[Optional[Tuple[int, ...]]] = []
        shapes: List[Optional[Tuple[int, ...]]] = []
        for s in related:
            axes = list(map(pos.__getitem__, scopes[s]))
            ordered = sorted(axes)
            perms.append(None if ordered == axes else tuple(map(axes.index, ordered)))
            # broadcasting already supplies leading unit axes, so a reshape
            # is needed only when the input's axes do not end the output's
            if not axes or ordered[0] == len(shape) - len(axes):
                shapes.append(None)
            else:
                padded = [1] * len(shape)
                for a, u in zip(axes, scopes[s]):
                    padded[a] = cards[u]
                shapes.append(tuple(padded))
        size = math.prod(shape)
        max_entries = max(max_entries, size)
        entries += size // (1 if v is None else cards[v])
        axis = None if v is None else pos[v]
        masks.append(mask)
        steps.append(_Step(tuple(related), tuple(perms), tuple(shapes), shape, axis, mask))
        if v is not None:
            out = list(pos)
            del out[axis]
            for u in out:
                holders[u].append(len(scopes))
            live.append(True)
            scopes.append(tuple(out))
    if max_entries > MAX_TABLE_ENTRIES:
        raise WidthCapError(
            f"elimination needs a table of {max_entries} entries "
            f"(2^{math.log2(max_entries):.1f}), cap is {MAX_TABLE_ENTRIES}")

    cpts = net._plans.get(_CPTS)
    if cpts is None:
        cpts = net._plans[_CPTS] = _Cpts(tuple(
            np.asarray(cpt.table, dtype=float).reshape(
                tuple(cards[v] for v in cpt.parents + (cpt.child,)))
            for cpt in net.cpts))
    plan = _Plan(cpts, tuple(select), tuple(sorted(bound)), tuple(steps),
                 tuple(pos[v] for v in keep), entries)
    net._plans[key] = plan
    return plan


def eliminate(net: BayesianNetwork, keep: Sequence[int], evidence: Assignment,
              tie_break: str = "low") -> Factor:
    """Unnormalized f(keep) = sum over the rest of the CPT product, with
    evidence rows selected. Scope order of the result follows `keep`.

    A plan that retains its step outputs re-runs only the steps whose mask
    holds a bound variable with another value than at its last evaluation;
    the others keep the outputs and log scales that re-running them would
    give, bit for bit."""
    keep_t = tuple(keep)
    bound = frozenset(evidence.keys())
    if not bound.isdisjoint(keep_t):
        raise ValueError(f"keep and evidence overlap on {sorted(bound.intersection(keep_t))}")
    plan = _plan(net, keep_t, bound, tie_break)
    last, plan.last = plan.last, None  # nothing kept is valid until this evaluation ends
    retain = plan.outputs is not None or (plan.runs >= 2 and plan.retain())
    todo: Sequence[int] = range(len(plan.steps))  # the steps to run
    if retain:
        state = evidence.as_tuple(plan.bound)
        if last is not None:
            todo = ()
            if state != last:
                changed = sum(1 << i for i, (a, b) in enumerate(zip(state, last)) if a != b)
                todo = [k for k, step in enumerate(plan.steps) if step.mask & changed]
    outputs = plan.outputs if retain else [None] * len(plan.steps)
    scales = plan.scales if retain else [0.0] * len(plan.steps)
    arrays, select = plan.cpts.arrays, plan.select
    n = len(arrays)
    for k in todo:
        step = plan.steps[k]
        out = np.ones(step.shape)
        log_scale = 0.0
        for s, perm, shape in zip(step.slots, step.perms, step.shapes):
            if s < n:
                a, sel = arrays[s], select[s]
                if sel is not None:
                    a = a[tuple(_ALL if v < 0 else evidence[v] for v in sel)]
            else:
                a = outputs[s - n]
                log_scale += scales[s - n]
                if not retain:
                    outputs[s - n] = None  # every slot is read once
            if perm is not None:
                a = a.transpose(perm)
            if shape is not None:
                a = a.reshape(shape)
            out = out * a
        m = float(out.max())
        if m > _RESCALE_HI or 0.0 < m < _RESCALE_LO:
            out = out / m
            log_scale += math.log(m)
        if step.axis is not None:
            out = out.sum(axis=step.axis)
        if retain and isinstance(out, np.ndarray):
            out.setflags(write=False)
        outputs[k] = out
        scales[k] = log_scale
    plan.runs += 1
    if retain:
        plan.last = state
    out = outputs[-1]
    # a C-ordered array of its own, of shape () for the empty scope: a
    # retained output is copied, one that is not is only made contiguous
    return Factor(keep_t, (np.array if retain else np.asarray)(
        out.transpose(plan.perm) if keep_t else out, order="C"), scales[-1])


def conditional(net: BayesianNetwork, target: int, context: Assignment) -> np.ndarray:
    """Normalized p(target | context), marginalizing everything else.

    Raises ImpossibleContextError when p(context) = 0.
    """
    if target in context:
        raise ValueError(f"target variable {target} is bound in the context")
    f = eliminate(net, (target,), context)
    total = f.total()
    if total <= 0.0:
        raise ImpossibleContextError(
            f"context has probability zero (variable {net.var(target).name!r})")
    return f.values / total


def map_posterior(net: BayesianNetwork, x: Assignment, evidence: Assignment,
                  log_p_evidence: Optional[float] = None) -> float:
    """ln p(x | evidence) with the non-MAP variables summed out.

    `log_p_evidence` may carry a precomputed ln p(E) to avoid recomputing it
    in scoring loops.
    """
    if log_p_evidence is None:
        log_p_evidence = eliminate(net, (), evidence).log_total()
    if log_p_evidence == -math.inf:
        raise InconsistentEvidenceError("evidence has probability zero")
    joint = eliminate(net, (), evidence.merged(x)).log_total()
    return joint - log_p_evidence


def forward_sample(net: BayesianNetwork, rng: random.Random) -> Assignment:
    """One draw from the network prior, sampling in topological order."""
    out = Assignment()
    for v in net.order():
        row = net.cpts[v].table[net.row_index(v, out)]
        u = rng.random()
        acc = 0.0
        state = len(row) - 1
        for i, p in enumerate(row):
            acc += p
            if u < acc:
                state = i
                break
        out.set(v, state)
    return out


# -- evidence-based pruning --------------------------------------------------

@dataclass(frozen=True)
class Component:
    """An independent sub-problem: re-indexed sub-network, its MAP query,
    and the map from sub-network ids back to original ids."""

    net: BayesianNetwork
    problem: MapProblem
    orig_ids: Tuple[int, ...]  # orig_ids[new_id] = original id

    def to_original(self, sub: Assignment) -> Assignment:
        return Assignment({self.orig_ids[v]: s for v, s in sub.items()})


@dataclass(frozen=True)
class PrunedNetwork:
    components: Tuple[Component, ...]
    dropped: Tuple[int, ...]


def _subnetwork(net: BayesianNetwork, ids: Sequence[int]) -> Tuple[BayesianNetwork, Tuple[int, ...]]:
    orig = tuple(sorted(ids))
    remap = {old: new for new, old in enumerate(orig)}
    variables = [Variable(remap[old], net.var(old).name, net.var(old).states)
                 for old in orig]
    cpts = [Cpt(remap[old], tuple(remap[p] for p in net.cpts[old].parents),
                net.cpts[old].table) for old in orig]
    return BayesianNetwork(net.name, variables, cpts), orig


def prune(net: BayesianNetwork, problem: MapProblem) -> PrunedNetwork:
    """Barren-node removal plus decomposition into weakly-connected components;
    components without MAP variables are discarded (their contribution to
    p(X|E) cancels in the normalization)."""
    problem.validate_for(net)
    protected = set(problem.map_vars) | set(problem.evidence.keys())
    alive = set(range(len(net)))
    children: Dict[int, Set[int]] = {v: set(net.children(v)) for v in alive}
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if v not in protected and not children[v]:
                alive.discard(v)
                for p in net.parents(v):
                    children[p].discard(v)
                changed = True
    dropped = tuple(sorted(set(range(len(net))) - alive))

    # weakly-connected components of the surviving DAG
    seen: Set[int] = set()
    groups: List[List[int]] = []
    for start in sorted(alive):
        if start in seen:
            continue
        stack, group = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            group.append(v)
            for u in list(net.parents(v)) + list(children[v]):
                if u in alive and u not in seen:
                    seen.add(u)
                    stack.append(u)
        groups.append(sorted(group))

    components: List[Component] = []
    for group in groups:
        gset = set(group)
        gmap = [v for v in problem.map_vars if v in gset]
        if not gmap:
            continue
        subnet, orig = _subnetwork(net, group)
        remap = {old: new for new, old in enumerate(orig)}
        sub_problem = MapProblem(
            tuple(remap[v] for v in gmap),
            Assignment({remap[v]: s for v, s in problem.evidence.items() if v in gset}),
        )
        components.append(Component(subnet, sub_problem, orig))
    return PrunedNetwork(tuple(components), dropped)
