"""Exact inference: variable elimination with evidence-based pruning,
plus prior forward sampling.

Each elimination is compiled once per network, kept variables, set of
bound variables and set of indicator variables into a plan of steps.
Identical steps of all of a network's plans are one node, which keeps its
output while the bound and indicator variables that output depends on
keep their values, so a call runs only the steps whose output is not
already held for the current values. The final node of a site plan (keep
one variable) also memoises the site records `conditional` makes from its
output, one per value tuple of its support: the normalised conditional as
a read-only array, as Python floats and as their logs. A site update that
returns to an earlier neighbourhood costs one dictionary lookup. Records
count against the same per-network budget as kept outputs, and a context
of probability zero is never memoised.

An indicator variable is eliminated like any other, but its CPT's own
column is masked to the state the context binds it to, if any: one plan
with keep () and an indicator on each MAP variable gives ln p(E, y) for
every partial assignment y of the MAP variables (the λ inputs of Darwiche,
JACM 2003), and a changed indicator re-runs only the steps above its CPT.
With no indicator bound its results are bit for bit those of the plan
without indicators.

Factor products and sums run in linear domain; a separate log scale is
carried and folded in only at the boundary, so deep products on large
components cannot overflow or underflow.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from .model import Assignment, BayesianNetwork, Cpt, MapProblem, Variable, check_context

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
    is a no-op), then sum out `axis` (None for the final product)."""

    slots: Tuple[int, ...]
    perms: Tuple[Optional[Tuple[int, ...]], ...]
    shapes: Tuple[Optional[Tuple[int, ...]], ...]
    shape: Tuple[int, ...]
    axis: Optional[int]


@dataclass(eq=False)
class _Node:
    """The output of a step, one object for every plan of the network that
    runs an identical step. It depends only on the values of `support`, the
    bound variables that the step's subtree selects on and the indicator
    variables whose CPTs it reads (None while unbound). A node that `keeps`
    (its `entries` fit in the network's budget) holds its output read-only
    and its log scale, valid while its support has the values in `values`
    (None until an evaluation completes). Any other node holds an output
    only until the step that reads it has run. `memo` maps a value tuple of
    the support to the `_Site` that `conditional` made from the output for
    those values; only a site plan's final node fills it."""

    support: Tuple[int, ...]
    entries: int
    keeps: bool
    output: Optional[np.ndarray] = None
    scale: float = 0.0
    values: Optional[Tuple[int, ...]] = None
    memo: Dict[Tuple[Optional[int], ...], "_Site"] = field(default_factory=dict)


class _Site(NamedTuple):
    """A site record: p(target | context) as a read-only array `dist`, its
    entries as Python floats `probs`, and their `math.log`s `logs` (-inf
    for a zero)."""

    dist: np.ndarray
    probs: Tuple[float, ...]
    logs: Tuple[float, ...]


@dataclass(eq=False)
class _Cpts:
    """A network's CPT arrays and step nodes, shared by its plans, and the
    number of table entries those nodes keep, a site record counting as its
    three values per state and its key's values (at most MAX_TABLE_ENTRIES
    in all).
    A node's key is its step's inputs in product order, a CPT by its index,
    selection pattern and whether it takes an indicator, and a step by its
    node, plus the step's `perms`, `shapes`, `shape` and `axis`."""

    arrays: Tuple[np.ndarray, ...]
    nodes: Dict[tuple, _Node] = field(default_factory=dict)
    retained: int = 0


@dataclass(eq=False)
class _Plan:
    """A compiled elimination. Slot i < len(net) holds CPT i, masked to its
    indicator's state if `masks` has it and the context binds variable i,
    with its bound axes selected; step k writes slot len(net) + k, whose
    output lives in `nodes[k]`; the last step is the final product, whose
    axes `perm` puts into `keep` order."""

    cpts: _Cpts
    select: Tuple[Optional[Tuple[int, ...]], ...]  # per CPT axis: bound id or -1
    steps: Tuple[_Step, ...]
    nodes: Tuple[_Node, ...]
    keep: Tuple[int, ...]
    perm: Tuple[int, ...]
    masks: Dict[int, Tuple[np.ndarray, ...]]  # per indicator: its CPT per state


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
          tie_break: str, indicators: FrozenSet[int] = frozenset()) -> _Plan:
    """The network's compiled plan for eliminating all but `keep` with the
    variables in `bound` fixed, compiled on first use. Each variable in
    `indicators` (disjoint from both) is eliminated, its CPT column masked
    to the state an evaluation's context binds it to, if any; the
    indicators do not change the order or the steps. Raises WidthCapError,
    before any array is built, if a table would exceed MAX_TABLE_ENTRIES,
    and ValueError for a tie_break other than "low" or "high"."""
    key = (keep, bound, indicators, tie_break)
    plan = net._plans.get(key)
    if plan is not None:
        return plan
    if tie_break not in ("low", "high"):
        raise ValueError(f"tie_break must be 'low' or 'high', not {tie_break!r}")
    cards = [v.cardinality for v in net.variables]
    scopes: List[Tuple[int, ...]] = []
    select: List[Optional[Tuple[int, ...]]] = []
    for cpt in net.cpts:
        full = cpt.parents + (cpt.child,)
        sel = None if bound.isdisjoint(full) else tuple(v if v in bound else -1 for v in full)
        scopes.append(full if sel is None else tuple(v for v in full if v not in bound))
        select.append(sel)
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
    sizes: List[int] = []  # per step, the entries of its output
    max_entries = 1
    pos: Dict[int, int] = {}
    for v in order + [None]:
        if v is None:
            related = [s for s, alive in enumerate(live) if alive]
        else:
            related = [s for s in holders[v] if live[s]]
            if not related:
                continue
        pos = {}  # each output variable's axis, in order of first appearance
        for s in related:
            live[s] = False
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
        sizes.append(size // (1 if v is None else cards[v]))
        axis = None if v is None else pos[v]
        steps.append(_Step(tuple(related), tuple(perms), tuple(shapes), shape, axis))
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
    # intern each step as a node; keys[s] is slot s's part of a node key
    keys: List[object] = [(s, sel, s in indicators) for s, sel in enumerate(select)]
    n = len(select)
    nodes: List[_Node] = []
    for step, size in zip(steps, sizes):
        node_key = (tuple(map(keys.__getitem__, step.slots)),
                    step.perms, step.shapes, step.shape, step.axis)
        node = cpts.nodes.get(node_key)
        if node is None:
            support: Set[int] = set()
            for s in step.slots:
                if s >= n:
                    support.update(nodes[s - n].support)
                else:
                    support.update(v for v in select[s] or () if v >= 0)
                    if s in indicators:
                        support.add(s)
            keeps = cpts.retained + size <= MAX_TABLE_ENTRIES
            cpts.retained += size if keeps else 0
            node = cpts.nodes[node_key] = _Node(tuple(sorted(support)), size, keeps)
        keys.append(node)
        nodes.append(node)
    # CPT v's last axis is v's own column
    masks = {v: tuple(cpts.arrays[v] * (np.arange(cards[v]) == s) for s in range(cards[v]))
             for v in indicators}
    plan = _Plan(cpts, tuple(select), tuple(steps), tuple(nodes), keep,
                 tuple(pos[v] for v in keep), masks)
    net._plans[key] = plan
    return plan


def eliminate(net: BayesianNetwork, keep: Sequence[int], evidence: Assignment,
              tie_break: str = "low") -> Factor:
    """Unnormalized f(keep) = sum over the rest of the CPT product, with
    evidence rows selected. Scope order of the result follows `keep`.

    Only the steps whose node holds no output for the current values of its
    support are run; every other node's output and log scale are the ones
    running its step would give, bit for bit. A variable or state that
    `net` does not have raises ValueError."""
    keep_t = tuple(keep)
    check_context(net, evidence, keep_t)
    bound = frozenset(evidence.keys())
    if not bound.isdisjoint(keep_t):
        raise ValueError(f"keep and evidence overlap on {sorted(bound.intersection(keep_t))}")
    return _factor(_plan(net, keep_t, bound, tie_break), evidence)


def _factor(plan: _Plan, context: Assignment) -> Factor:
    """The plan's result for the context's values, as `eliminate` returns
    it. `context` binds every bound variable of the plan and, of its other
    variables, only indicators."""
    out = _output(plan, context)
    final = plan.nodes[-1]
    # a C-ordered array of its own, of shape () for the empty scope: a kept
    # output is copied, one that is not is only made contiguous
    return Factor(plan.keep, (np.array if final.keeps else np.asarray)(
        out.transpose(plan.perm) if plan.keep else out, order="C"), final.scale)


def _log_total(plan: _Plan, context: Assignment) -> float:
    """`_factor(plan, context).log_total()` for a plan with keep (), without
    building the factor."""
    total = float(_output(plan, context))
    return -math.inf if total == 0.0 else math.log(total) + plan.nodes[-1].scale


def _output(plan: _Plan, context: Assignment) -> np.ndarray:
    """The plan's final output for the context's values, which the final
    node keeps only if it `keeps`."""
    final = plan.nodes[-1]
    values = context.states(final.support)
    if values != final.values:
        _run(plan, context, values)
    out = final.output
    if not final.keeps:
        final.output = None
    return out


def _run(plan: _Plan, context: Assignment, values: Tuple[Optional[int], ...]) -> None:
    """Bring the plan's final node, which holds no output for `values`, up to
    date: from it down, each such node's step inputs are checked in turn,
    and then the steps found are run in plan order. A node's values are set
    only once its output is, so a failed evaluation leaves nothing stale."""
    steps, nodes, select, masks = plan.steps, plan.nodes, plan.select, plan.masks
    arrays = plan.cpts.arrays
    n = len(arrays)
    todo = [(len(steps) - 1, values)]
    stack = [s - n for s in steps[-1].slots if s >= n]
    while stack:
        k = stack.pop()
        values = context.states(nodes[k].support)
        if values != nodes[k].values:
            todo.append((k, values))
            stack.extend(s - n for s in steps[k].slots if s >= n)
    todo.sort()
    for k, values in todo:
        step, node = steps[k], nodes[k]
        out = None
        log_scale = 0.0
        for s, perm, shape in zip(step.slots, step.perms, step.shapes):
            if s < n:
                a, sel = arrays[s], select[s]
                if masks and s in masks and s in context:
                    a = masks[s][context[s]]
                if sel is not None:
                    a = a[tuple(_ALL if v < 0 else context[v] for v in sel)]
            else:
                kid = nodes[s - n]
                a = kid.output
                log_scale += kid.scale
                if not kid.keeps:
                    kid.output = None  # read once
            if perm is not None:
                a = a.transpose(perm)
            if shape is not None:
                a = a.reshape(shape)
            # the product starts from the first input (1.0 * a == a) and is
            # laid out in C order, as the sums below assume
            out = a if out is None else np.multiply(out, a, order="C")
        if len(step.slots) == 1:
            out = np.array(out, order="C")  # a lone input may be a view of a CPT
        m = float(out.max())
        if m > _RESCALE_HI or 0.0 < m < _RESCALE_LO:
            out = out / m
            log_scale += math.log(m)
        if step.axis is not None:
            out = out.sum(axis=step.axis)
        node.output, node.scale = out, log_scale
        if node.keeps:
            if isinstance(out, np.ndarray):
                out.setflags(write=False)
            node.values = values


def conditional(net: BayesianNetwork, target: int, context: Assignment) -> np.ndarray:
    """Normalized p(target | context), marginalizing everything else, as a
    read-only array; a repeat for the same context values returns the array
    memoised with the plan's final node.

    Raises ImpossibleContextError when p(context) = 0, and ValueError for a
    variable or state that `net` does not have.
    """
    check_context(net, context, (target,))
    if target in context:
        raise ValueError(f"target variable {target} is bound in the context")
    return _conditional(net, target, _plan(net, (target,), frozenset(context.keys()), "low"),
                        context).dist


def _conditional(net: BayesianNetwork, target: int, plan: _Plan,
                 context: Assignment) -> _Site:
    """`conditional` on `plan`, the plan it would look up for `context`, as
    a site record. A record is memoised by the values of the final node's
    support while the network's budget has room for it."""
    final = plan.nodes[-1]
    values = context.states(final.support)
    site = final.memo.get(values)
    if site is not None:
        return site
    out = _output(plan, context)
    total = float(out.sum())
    if total <= 0.0:
        raise ImpossibleContextError(
            f"context has probability zero (variable {net.var(target).name!r})")
    dist = out / total
    dist.setflags(write=False)
    probs = tuple(dist.tolist())
    site = _Site(dist, probs, tuple(math.log(p) if p > 0.0 else -math.inf for p in probs))
    cpts = plan.cpts
    size = 3 * len(probs) + len(values)
    if cpts.retained + size <= MAX_TABLE_ENTRIES:
        cpts.retained += size
        final.memo[values] = site
    return site


def _site_plans(net: BayesianNetwork, problem: MapProblem) -> Tuple[_Plan, ...]:
    """`conditional`'s plan for each MAP variable, in map-variable order,
    given the evidence and every other MAP variable."""
    bound = frozenset(problem.evidence.keys()).union(problem.map_vars)
    return tuple(_plan(net, (j,), bound - {j}, "low") for j in problem.map_vars)


def _indicator_plan(net: BayesianNetwork, problem: MapProblem) -> _Plan:
    """The plan of ln p(E) with an indicator on each MAP variable: on a
    context of E and any of the MAP variables, `_log_total` gives
    ln p(context), the unbound MAP variables summed out."""
    return _plan(net, (), frozenset(problem.evidence.keys()), "low",
                 frozenset(problem.map_vars))


def map_posterior(net: BayesianNetwork, x: Assignment, evidence: Assignment,
                  log_p_evidence: Optional[float] = None) -> float:
    """ln p(x | evidence) with the non-MAP variables summed out.

    `log_p_evidence` may carry a precomputed ln p(E) to avoid recomputing it
    in scoring loops. A variable or state that `net` does not have raises
    ValueError.
    """
    context = evidence.merged(x)
    check_context(net, context)
    if log_p_evidence is None:
        log_p_evidence = eliminate(net, (), evidence).log_total()
    if log_p_evidence == -math.inf:
        raise InconsistentEvidenceError("evidence has probability zero")
    joint = eliminate(net, (), context).log_total()
    return joint - log_p_evidence


def _sample_index(dist: Sequence[float], rng: random.Random) -> int:
    """One draw from the distribution `dist`, a sequence of Python floats,
    with one rng variate. Rows may sum to slightly less than 1; a variate
    past the rounded total falls to the last state with mass, never to a
    state of probability zero."""
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(dist):
        acc += p
        if u < acc:
            return i
    return int(np.flatnonzero(dist)[-1])


def forward_sample(net: BayesianNetwork, rng: random.Random) -> Assignment:
    """One draw from the network prior, sampling in topological order."""
    out = Assignment()
    for v in net.order():
        out.set(v, _sample_index(net.cpts[v].table[net.row_index(v, out)], rng))
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
