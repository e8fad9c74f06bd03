"""Exact inference: variable elimination with evidence-based pruning,
plus prior forward sampling.

Each elimination is compiled once per network, kept variables, set of
bound variables and set of indicator variables into a plan, on the
min-fill order of its own graph, save that the site plans of a MAP
problem (keep one MAP variable, bind the evidence and the others) all
share one order, found by one min-fill run (see `_site_plans`). The steps of
all of a network's plans form one graph: a step is a node keyed by the
CPTs and nodes it multiplies and the variable it sums out, identical steps
are one node, and a plan is its final node, the root of a tree, which the
network's `_plans` map holds under the plan's key. A node keeps its output
while the bound and indicator variables that output depends on keep their
values, so a call walks down from the final node and runs, children
first, only the nodes whose output is not already held for the current
values. Every reader of a final output reads it in place, save
`eliminate`, which hands out a copy. The final node of a site plan (keep
one variable) also memoises the site records `conditional` makes from its output, one
per value tuple of its support: the normalised conditional as a read-only
array, its running sums as Python floats and the logs of its entries. The
support holds only bound variables, never the kept one, so a site update
may leave its target bound at its current state. One that returns to an
earlier neighbourhood reads the support's values with the node's
`memo_key` getter (one `itemgetter` call for two variables or more), built
with the node, finds the record by one dictionary lookup, with no call of
`_conditional`, and draws the next state by one `bisect_right` on the
running sums. Records count against the same per-network budget as
kept outputs, and a context of probability zero is never memoised.

An indicator variable is eliminated like any other, but its CPT's own
column is masked to the state the context binds it to, if any: one plan
with keep () and an indicator on each MAP variable gives ln p(E, y) for
every partial assignment y of the MAP variables (the λ inputs of Darwiche,
JACM 2003), and a changed indicator re-runs only the steps above its CPT,
read from a stack of its masks and the CPT itself (`_Cpts.masks`). With no
indicator bound its results are bit for bit those of the plan without
indicators.

Factor products and sums run in linear domain; a separate log scale is
carried and folded in only at the boundary, so deep products on large
components cannot overflow or underflow: a node rescales when its
product's maximum leaves [_RESCALE_LO, _RESCALE_HI]. How a node fetches each
input (a kid's output or one indexing of a CPT array), and whether it
computes that maximum at all, is fixed when it is built; the maximum is
skipped where bounds on the product prove that no rescale can fire (see
`_step`), so no result's bits change.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from .model import (Assignment, BayesianNetwork, Cpt, MapProblem, Variable, _unchecked,
                    check_context)

_RESCALE_HI = 1e100
_RESCALE_LO = 1e-100
# a node whose ln magnitude bounds stay within these, 3 nats inside the
# rescale thresholds, cannot need a rescale
_LOG_LO, _LOG_HI = math.log(_RESCALE_LO) + 3.0, math.log(_RESCALE_HI) - 3.0
MAX_TABLE_ENTRIES = 2 ** 27  # 1 GiB of float64
_CPTS = "cpts"  # key of a network's _Cpts among its plans


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


@dataclass(eq=False)
class _Node:
    """One elimination step and its output, one object for every plan of
    the network that runs an identical step: multiply its inputs, the CPTs
    and nodes that its key in `_Cpts.nodes` lists, into a table over
    `scope`, the product's variables in axis order, then sum out `axis`
    (None for a plan's final product, whose scope is the kept variables in
    their given order). A plan is its final node: its inputs lead to every
    other node of the plan, each reached once.

    Everything an evaluation would otherwise decide per input is fixed when
    the node is built: `kids` are its input nodes in input order, and
    `fetch` holds one `(a, key, perm, shape)` per input, read as the kid
    a's output if key is None, else as a[key(context)], a CPT (or its stack
    of masks) with its bound axes leading, then transposed by perm and
    reshaped to shape unless None. `copy` says whether a lone input must be
    copied into C order: a kid's output, kept or not, already is a
    C-ordered array, and no reader writes into an output.
    `low` bounds ln of every positive entry of the output from below and
    `high` bounds ln of every entry from above, and `check` is False only if
    these bounds, with a margin to spare, prove that the product's maximum
    can never call for a rescale, so `_run` does not compute it.

    The output depends only on the values of `support`, the bound variables
    that the step's subtree selects on and the indicator variables whose
    CPTs it reads (None while unbound). A node that `keeps` (its output
    fits in the network's budget) holds its output read-only and its log
    scale, valid while its support has the values in `values` (None until
    an evaluation completes). Any other node holds an output only until the
    node that reads it has run. `memo_key`, built with the node, is the
    `_getter` of its support, for a context that binds all of it. `memo`
    maps a value tuple of the support to the `_Site` that `conditional`
    made from the output for those values; only a site plan's final node
    fills it."""

    scope: Tuple[int, ...]
    axis: Optional[int]
    support: Tuple[int, ...]
    keeps: bool
    memo_key: Callable[[Mapping[int, int]], Tuple[int, ...]]
    kids: Tuple["_Node", ...]
    fetch: Tuple[tuple, ...]
    copy: bool
    low: float
    high: float
    check: bool
    output: Optional[np.ndarray] = None
    scale: float = 0.0
    values: Optional[Tuple[int, ...]] = None
    memo: Dict[Tuple[int, ...], "_Site"] = field(default_factory=dict)


# a site record: p(target | context) as a read-only array `dist`, the
# `_running_sums` `cum` of its entries as Python floats, which a draw
# bisects, and the entries' `math.log`s `logs` (-inf for a zero)
_Site = namedtuple("_Site", ("dist", "cum", "logs"))


@dataclass(eq=False)
class _Cpts:
    """A network's CPT arrays, each indicator variable's stack of masks,
    and the nodes, all shared by its plans and held among them under
    `_CPTS`, with the number of table entries those nodes keep, a site
    record counting as its three values per state (`dist`, `cum` and
    `logs`) and its key's values (at most MAX_TABLE_ENTRIES in all).
    `masks[v]`, of shape (card(v) + 1, *CPT v's shape), holds CPT v masked
    to each state of v, then CPT v itself. A node's key is what it
    multiplies and what it sums out: (inputs, v) for a step that sums out
    v, and (inputs, keep) for a final product, each input a node or a CPT
    as (index, selection pattern or None, whether it takes an indicator);
    its layout follows from the key. `floors[s]` is ln of CPT s's smallest
    positive entry."""

    arrays: Tuple[np.ndarray, ...]
    floors: Tuple[float, ...]
    masks: Dict[int, np.ndarray] = field(default_factory=dict)
    nodes: Dict[tuple, _Node] = field(default_factory=dict)
    retained: int = 0


def _getter(keys: Tuple[int, ...]) -> Callable[[Mapping[int, int]], Tuple[int, ...]]:
    """A function of a mapping m that holds every one of `keys`, returning
    `tuple(map(m.get, keys))`: one C-level `itemgetter` call for two keys or
    more."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        k, = keys
        return lambda m: (m[k],)
    return lambda m: ()


def _min_fill_order(scopes: Sequence[Tuple[int, ...]], elim: Set[int],
                    cards: Sequence[int]) -> Tuple[List[int], int]:
    """Elimination order over `elim` by the min-fill heuristic, ties to the
    lowest id, and its width: the entries of the largest table it multiplies,
    an eliminated variable and its neighbours then, of `cards[v]` states
    each v (1 if `elim` is empty).

    Vertices are renumbered 0.. in id order and each neighbourhood is an int
    bitset. Each fill score is computed in full once, and again only for the
    neighbours N(v) of an eliminated v. No other vertex gains or loses a
    neighbour, so its score falls by exactly one per new fill edge with both
    ends among its neighbours: that is applied as a delta to the common
    neighbours, outside N(v), of each fill edge's ends.
    """
    ids = sorted(elim.union(*scopes))
    local = {v: i for i, v in enumerate(ids)}
    adj = [0] * len(ids)
    for scope in scopes:
        clique = sum([1 << local[v] for v in scope])
        for v in scope:
            adj[local[v]] |= clique
    for i in range(len(adj)):
        adj[i] &= ~(1 << i)

    def fill(i: int) -> int:
        # each edge among the neighbours is counted from both ends
        nbrs = b = adj[i]
        present = 0
        while b:
            low = b & -b
            present += (adj[low.bit_length() - 1] & nbrs).bit_count()
            b ^= low
        d = nbrs.bit_count()
        return (d * (d - 1) - present) // 2

    # score[i]: vertex i's fill while it is still to be eliminated, else -1
    score = [-1] * len(ids)
    heap = []
    for i in map(local.__getitem__, elim):
        score[i] = fill(i)
        heap.append((score[i], i))
    heapq.heapify(heap)
    order: List[int] = []
    width = 1
    while heap:
        f, i = heapq.heappop(heap)
        if score[i] != f:
            continue  # stale entry, or i already eliminated
        order.append(ids[i])
        score[i] = -1
        nbrs = adj[i]
        outside = ~(nbrs | (1 << i))
        delta: Dict[int, int] = {}
        size = cards[ids[i]]
        # the bit loops below visit set bits lowest first, as `fill`'s does
        rest = nbrs
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = bit.bit_length() - 1
            size *= cards[ids[a]]
            new = nbrs & ~adj[a] & ~bit  # fill edges at a
            later = new & ~((bit << 1) - 1)  # each edge once, as a < b
            while later:
                b = later & -later
                later ^= b
                common = adj[a] & adj[b.bit_length() - 1] & outside
                while common:
                    w = common & -common
                    common ^= w
                    w = w.bit_length() - 1
                    delta[w] = delta.get(w, 0) + 1
            adj[a] = (adj[a] | new) & ~(1 << i)
        width = max(width, size)
        for w, d in delta.items():
            if score[w] >= 0:
                score[w] -= d
                heapq.heappush(heap, (score[w], w))
        rest = nbrs
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            if score[u] >= 0:
                f = fill(u)
                if f != score[u]:
                    score[u] = f
                    heapq.heappush(heap, (f, u))
    return order, width


def _site_widths(scopes: Sequence[Tuple[int, ...]], order: Sequence[int],
                 map_vars: Sequence[int], cards: Sequence[int]) -> List[int]:
    """The width of each MAP variable j's site plan on `order`, an order of
    every variable of `scopes` that is not a MAP variable: the entries of
    the largest table the plan multiplies, or of its final product, card(j).

    One elimination along `order`, with the MAP variables kept, gives every
    plan's: a site plan has no other MAP variable and so no path through
    one, so at each eliminated v it multiplies v, the same neighbours that
    are not MAP variables, and j only if j is a neighbour then.
    Neighbourhoods are int bitsets indexed by variable id."""
    adj: Dict[int, int] = {}
    for scope in scopes:
        clique = sum([1 << v for v in scope])
        for v in scope:
            adj[v] = adj.get(v, 0) | clique
    mask = sum([1 << j for j in map_vars])
    widths = {j: cards[j] for j in map_vars}
    common = 1
    for v in order:
        nbrs = adj.pop(v) & ~(1 << v)
        size = cards[v]
        rest = nbrs & ~mask  # no MAP variable's neighbours are read
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            size *= cards[u]
            adj[u] = (adj[u] | nbrs) & ~(1 << v)
        common = max(common, size)
        rest = nbrs & mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            widths[u] = max(widths[u], size * cards[u])
    return [max(common, widths[j]) for j in map_vars]


def _step(cpts: _Cpts, cards: Sequence[int], inputs: Tuple[object, ...],
          scopes: Sequence[Tuple[int, ...]], v: Optional[int], keep: Tuple[int, ...]) -> _Node:
    """A new node multiplying `inputs`, of `scopes`, and summing out `v`, or
    for v None a plan's final product, laid out in `keep` order. Any other
    variable takes the next axis where it first appears. Each input's
    fetch (see `_Node`) is compiled here, and a selection is exact.

    Its magnitude bounds, in ln, compose from its inputs': ln of a positive
    product entry is at least the sum of each kid's `low` and of ln of each
    CPT input's smallest positive entry, and, as no CPT entry exceeds 1, ln
    of any entry is at most the sum of the kids' `high`s; summing out v
    keeps `low` and adds ln card(v) to `high`. A node checks its maximum unless both bounds stay
    within [_LOG_LO, _LOG_HI], and so does any node that reads a checking
    kid, whose output a rescale may have moved."""
    pos = {u: a for a, u in enumerate(keep)} if v is None else {}
    for sc in scopes:
        for u in sc:
            pos.setdefault(u, len(pos))
    scope = tuple(pos)
    support: Set[int] = set()
    kids: List[_Node] = []
    fetch = []
    low = high = 0.0
    check = False
    for a, sc in zip(inputs, scopes):
        axes = list(map(pos.__getitem__, sc))
        ordered = sorted(axes)
        perm = None if ordered == axes else tuple(map(axes.index, ordered))
        # broadcasting already supplies leading unit axes, so a reshape is
        # needed only when the input's axes do not end the output's
        shape = None
        if axes and ordered[0] != len(scope) - len(axes):
            padded = [1] * len(scope)
            for i, u in zip(axes, sc):
                padded[i] = cards[u]
            shape = tuple(padded)
        if isinstance(a, _Node):
            support.update(a.support)
            kids.append(a)
            low += a.low
            high += a.high
            check = check or a.check
            fetch.append((a, None, perm, shape))
            continue
        s, sel, indicator = a
        low += cpts.floors[s]
        a = cpts.arrays[s]
        bound: Tuple[int, ...] = ()
        order = None
        if sel is not None:
            # transposed only if a bound axis follows a free one, so that the
            # bound axes lead and the key's integers select the free axes' view
            lead = [i for i, u in enumerate(sel) if u >= 0]
            bound = tuple([sel[i] for i in lead])
            support.update(bound)
            order = lead + [i for i, u in enumerate(sel) if u < 0]
            if order == sorted(order):
                order = None
        key = _getter(bound)
        if indicator:
            # state card(s), while s is unbound, is the unmasked CPT
            support.add(s)
            a = cpts.masks[s]
            key = lambda m, s=s, c=cards[s], k=key: (m.get(s, c),) + k(m)
            if order is not None:
                order = [0] + [i + 1 for i in order]
        if order is not None:
            a = a.transpose(order)
        fetch.append((a, key, perm, shape))
    check = check or low < _LOG_LO or high > _LOG_HI
    if v is not None:
        high += math.log(cards[v])
    size = math.prod(map(cards.__getitem__, scope)) // (1 if v is None else cards[v])
    keeps = cpts.retained + size <= MAX_TABLE_ENTRIES
    cpts.retained += size if keeps else 0
    # a lone kid read as it is needs no copy: `_factor` copies what it hands out
    copy = len(fetch) == 1 and fetch[0][1:] != (None, None, None)
    ordered = tuple(sorted(support))
    return _Node(scope, None if v is None else pos[v], ordered, keeps, _getter(ordered),
                 tuple(kids), tuple(fetch), copy, low, high, check)


def _plan(net: BayesianNetwork, keep: Tuple[int, ...], bound: FrozenSet[int],
          indicators: FrozenSet[int] = frozenset(),
          order: Optional[Tuple[int, ...]] = None) -> _Node:
    """The network's compiled plan, its final node, for eliminating all but
    `keep` with the variables in `bound` fixed, compiled on first use. Each
    variable in `indicators` (disjoint from both) is eliminated, its CPT
    column masked to the state an evaluation's context binds it to, if
    any; the indicators do not change the order or the steps. The order is
    min-fill's, and WidthCapError is raised, before any array is built or
    step interned, if its width or the final product, laid out in `keep`
    order, exceeds MAX_TABLE_ENTRIES. A given `order`, which must list
    every variable eliminated, is taken as it is, its width checked by the
    caller, and the plan is held under a key of its own that holds it.
    Each slot, a CPT or a step's output, goes into the bucket of its first
    variable in the order, or the final product's if it has none, and the
    step for v multiplies v's bucket in slot order."""
    key = (keep, bound, indicators) if order is None else (keep, bound, indicators, order)
    plan = net._plans.get(key)
    if plan is not None:
        return plan
    cards = net._cards
    # per slot, its scope, and what node inputs hold for it: CPT s as (s,
    # selection pattern, takes-indicator), or a step's node
    scopes: List[Tuple[int, ...]] = []
    refs: List[object] = []
    for s, full in enumerate(net._scopes):
        sel = None if bound.isdisjoint(full) else tuple([v if v in bound else -1 for v in full])
        scopes.append(full if sel is None else tuple([v for v in full if v not in bound]))
        refs.append((s, sel, s in indicators))
    if order is None:
        order, width = _min_fill_order(scopes, set(range(len(cards))) - set(keep) - bound, cards)
        width = max(width, math.prod([cards[v] for v in keep]))
        if width > MAX_TABLE_ENTRIES:
            raise WidthCapError(
                f"elimination needs a table of {width} entries "
                f"(2^{math.log2(width):.1f}), cap is {MAX_TABLE_ENTRIES}")

    cpts = net._plans.get(_CPTS)
    if cpts is None:
        cpts = net._plans[_CPTS] = _Cpts(tuple(
            np.asarray(cpt.table, dtype=float).reshape([cards[v] for v in full])
            for cpt, full in zip(net.cpts, net._scopes)), tuple(
            # every row sums to 1, so each CPT has a positive entry
            [math.log(min(filter(None, chain(*cpt.table)))) for cpt in net.cpts]))
    for v in indicators - cpts.masks.keys():
        # CPT v's last axis is v's own column: slice s of the product with
        # the identity is the CPT masked to state s
        a = cpts.arrays[v]
        eye = np.eye(cards[v], dtype=bool).reshape((cards[v],) + (1,) * (a.ndim - 1) + (cards[v],))
        cpts.masks[v] = np.concatenate((a * eye, a[np.newaxis]))
    # at[u]: the bucket of a slot whose first variable is u; kept ones file last
    at = dict.fromkeys(keep, len(order))
    at.update(zip(order, range(len(order))))
    buckets: List[List[int]] = [[] for _ in range(len(order) + 1)]
    for s, sc in enumerate(scopes):
        buckets[min(map(at.__getitem__, sc)) if sc else len(order)].append(s)
    for i, v in enumerate([*order, None]):
        slots = buckets[i]
        inputs = tuple([refs[s] for s in slots])
        node_key = (inputs, keep if v is None else v)
        node = cpts.nodes.get(node_key)
        if node is None:
            node = cpts.nodes[node_key] = _step(cpts, cards, inputs, [scopes[s] for s in slots],
                                                v, keep)
        if v is not None:
            out = tuple([u for u in node.scope if u != v])
            buckets[min(map(at.__getitem__, out)) if out else len(order)].append(len(scopes))
            scopes.append(out)
            refs.append(node)
    net._plans[key] = node
    return node


def eliminate(net: BayesianNetwork, keep: Sequence[int], evidence: Assignment) -> Factor:
    """Unnormalized f(keep) = sum over the rest of the CPT product, with
    evidence rows selected, on the plan compiled from the min-fill order
    (ties to the lowest id). Scope order of the result follows `keep`.

    Only the steps whose node holds no output for the current values of its
    support are run; every other node's output and log scale are the ones
    running its step would give, bit for bit. A variable or state that
    `net` does not have, or a variable kept twice, raises ValueError."""
    keep_t = tuple(keep)
    check_context(net, evidence, keep_t)
    keep_t = tuple(map(int, keep_t))  # the cached plan builds every result scope from these
    bound = frozenset(evidence.keys())
    if not bound.isdisjoint(keep_t):
        raise ValueError(f"keep and evidence overlap on {sorted(bound.intersection(keep_t))}")
    if len(set(keep_t)) != len(keep_t):
        raise ValueError(f"keep lists a variable twice: {keep_t}")
    return _factor(_plan(net, keep_t, bound), evidence)


def _factor(plan: _Node, context: Assignment) -> Factor:
    """The plan's result for the context's values, as `eliminate` returns
    it: a C-ordered copy of the output `_run` gives, of shape () for the
    empty scope, which no node holds. `context` binds every bound variable
    of the plan and, of its other variables, only indicators."""
    return Factor(plan.scope, np.array(_run(plan, context), order="C"), plan.scale)


def _log_total(plan: _Node, context: Assignment) -> float:
    """`_factor(plan, context).log_total()` for a plan with keep (), without
    building the factor."""
    total = float(_run(plan, context))
    return -math.inf if total == 0.0 else math.log(total) + plan.scale


def _run(plan: _Node, context: Assignment) -> np.ndarray:
    """The plan's final output for the context's values, its log scale in
    `plan.scale`, to be read in place (it may be a kept kid's output) and
    read-only if the final node keeps it; one that does not lets go of it.
    From the final node down, each node that holds no output for the values
    has its kids checked in turn, and the nodes found then run in reverse
    order of discovery, so each after the nodes it reads, as a plan is a
    tree. A node's values are set only once its output is, so a failed
    evaluation leaves nothing stale. Each input is fetched as its node
    compiled it, and a node whose bounds rule out a rescale skips its
    maximum: every output and log scale has the bits it would have with
    every check made."""
    todo, stack = [], [plan]
    while stack:
        node = stack.pop()
        values = tuple(map(context.get, node.support))
        if values != node.values:
            todo.append((node, values))
            stack.extend(node.kids)
    for node, values in reversed(todo):
        out = None
        log_scale = 0.0
        for a, key, perm, shape in node.fetch:
            if key is None:
                kid, a = a, a.output
                log_scale += kid.scale
                if not kid.keeps:
                    kid.output = None  # read once
            else:
                a = a[key(context)]
            if perm is not None:
                a = a.transpose(perm)
            if shape is not None:
                a = a.reshape(shape)
            # the product starts from the first input (1.0 * a == a) and is
            # laid out in C order, as the sums below assume
            out = a if out is None else np.multiply(out, a, order="C")
        if node.copy:
            out = np.array(out, order="C")  # a lone input may be a view of a CPT
        if node.check:
            # the ufunc reductions that `.max()` and `.sum(axis=)` call
            m = float(np.maximum.reduce(out, None))
            if m > _RESCALE_HI or 0.0 < m < _RESCALE_LO:
                out = out / m
                log_scale += math.log(m)
        if node.axis is not None:
            out = np.add.reduce(out, node.axis)
        node.output, node.scale = out, log_scale
        if node.keeps:
            if isinstance(out, np.ndarray):
                out.setflags(write=False)
            node.values = values
    out = plan.output
    if not plan.keeps:
        plan.output = None
    return out


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
    return _conditional(net, target, _plan(net, (target,), frozenset(context.keys())),
                        context).dist


def _conditional(net: BayesianNetwork, target: int, plan: _Node,
                 context: Assignment) -> _Site:
    """`conditional` on `plan`, the plan it would look up for `context`
    without the target, as a site record. The context may bind the target;
    the plan never reads it, as its selections and supports hold only the
    plan's bound variables, so the record is the same object either way. A
    record is memoised by the values of the final node's support, read by
    the node's `memo_key`, while the network's budget has room for it; a
    caller may look it up there first, and a draw from it is
    `bisect_right(site.cum, u)`."""
    values = plan.memo_key(context)
    site = plan.memo.get(values)
    if site is not None:
        return site
    out = _run(plan, context)
    total = float(np.add.reduce(out, None))
    if total <= 0.0:
        raise ImpossibleContextError(
            f"context has probability zero (variable {net.var(target).name!r})")
    dist = out / total
    dist.setflags(write=False)
    probs = dist.tolist()
    site = _Site(dist, _running_sums(probs),
                 tuple([math.log(p) if p > 0.0 else -math.inf for p in probs]))
    cpts = net._plans[_CPTS]
    size = 3 * len(probs) + len(values)
    if cpts.retained + size <= MAX_TABLE_ENTRIES:
        cpts.retained += size
        plan.memo[values] = site
    return site


def _site_plans(net: BayesianNetwork, problem: MapProblem) -> Tuple[_Node, ...]:
    """The site plan of each MAP variable j, in map-variable order: p(x_j)
    given the evidence and every other MAP variable, all compiled on one
    order of the hidden variables. That order is min-fill's over the CPT
    scopes with the evidence selected away and the MAP variables as one
    more clique: a site plan binds every MAP variable but its own, so a
    fill edge between two of them never adds a table axis. A site plan
    whose width on that order (`_site_widths`) exceeds MAX_TABLE_ENTRIES
    is compiled on its own min-fill order, as `conditional`'s plan, which
    alone may then raise WidthCapError."""
    evidence = frozenset(problem.evidence.keys())
    bound = evidence.union(problem.map_vars)
    scopes = [tuple([v for v in full if v not in evidence]) for full in net._scopes]
    order = tuple(_min_fill_order(scopes + [problem.map_vars], set(range(len(net))) - bound,
                                  net._cards)[0])
    widths = _site_widths(scopes, order, problem.map_vars, net._cards)
    return tuple(_plan(net, (j,), bound - {j}, order=order if width <= MAX_TABLE_ENTRIES else None)
                 for j, width in zip(problem.map_vars, widths))


def _indicator_plan(net: BayesianNetwork, problem: MapProblem) -> _Node:
    """The plan of ln p(E) with an indicator on each MAP variable: on a
    context of E and any of the MAP variables, `_log_total` gives
    ln p(context), the unbound MAP variables summed out."""
    return _plan(net, (), frozenset(problem.evidence.keys()), frozenset(problem.map_vars))


def map_posterior(net: BayesianNetwork, x: Assignment, evidence: Assignment,
                  log_p_evidence: Optional[float] = None) -> float:
    """ln p(x | evidence) with the non-MAP variables summed out; x's states
    override the evidence's.

    Both terms come from one plan, ln p(E) with an indicator on each variable
    x binds and E does not: its tables are those of the ln p(E) plan, built
    anyway when `log_p_evidence`, a precomputed ln p(E) for scoring loops, is
    not given, and a full MAP assignment scores on the indicator plan. A
    variable or state that `net` does not have raises ValueError, p(E) = 0
    InconsistentEvidenceError.
    """
    context = {**evidence, **x}
    check_context(net, context)
    plan = _plan(net, (), frozenset(evidence), frozenset(x.keys() - evidence.keys()))
    if log_p_evidence is None:
        check_context(net, evidence)  # x may override a state it does not have
        log_p_evidence = _log_total(plan, evidence)
    if log_p_evidence == -math.inf:
        raise InconsistentEvidenceError("evidence has probability zero")
    return _log_total(plan, context) - log_p_evidence


def _running_sums(dist: Sequence[float]) -> Tuple[float, ...]:
    """The running sums of the distribution `dist`, added left to right,
    with the last state that has mass, and each state after it, at
    infinity: the one draw rule. `bisect_right(sums, u)`, for a variate u in
    [0, 1), is the first state whose running sum exceeds u, and a u past
    the rounded total, as rows may sum to slightly less than 1, falls to
    the last state with mass, never to a state of probability zero."""
    last = len(dist) - 1
    while not dist[last] > 0.0:  # a row has mass
        last -= 1
    return (*accumulate(dist[:last]), *[math.inf] * (len(dist) - last))


def forward_sample(net: BayesianNetwork, rng: random.Random) -> Assignment:
    """One draw from the network prior, sampling in topological order, one
    rng variate per variable, each by `bisect_right` on the `_running_sums`
    of its CPT row."""
    out: Assignment = {}
    for v in net.order():
        out[v] = bisect_right(_running_sums(net.cpts[v].table[net.row_index(v, out)]),
                              rng.random())
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
        return {self.orig_ids[v]: s for v, s in sub.items()}


@dataclass(frozen=True)
class PrunedNetwork:
    components: Tuple[Component, ...]
    dropped: Tuple[int, ...]


def prune(net: BayesianNetwork, problem: MapProblem) -> PrunedNetwork:
    """Barren-node removal plus decomposition into weakly-connected components;
    components without MAP variables are discarded (their contribution to
    p(X|E) cancels in the normalization). A variable is barren unless it is
    a MAP or evidence variable or has a child that is not; visiting children
    before parents settles every variable in one sweep.

    The surviving set holds every parent of each of its variables, so a
    component's CPTs, child lists and topological order are the network's,
    restricted and renumbered in id order: each component is assembled
    from them with no check re-run. A discarded component's evidence can
    still be impossible only if one of its CPTs has a zero entry; such a
    component is eliminated for its ln p(E), and InconsistentEvidenceError
    raised if that is -inf (WidthCapError if it is too wide)."""
    problem.validate_for(net)
    protected = set(problem.map_vars) | set(problem.evidence.keys())
    alive: Set[int] = set()
    for v in reversed(net.order()):
        if v in protected or not alive.isdisjoint(net.children(v)):
            alive.add(v)
    dropped = tuple(v for v in range(len(net)) if v not in alive)

    # weakly-connected components of the surviving DAG
    seen: Set[int] = set()
    components: List[Component] = []
    for start in sorted(alive):
        if start in seen:
            continue
        stack, group = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            group.append(v)
            for u in net.parents(v) + net.children(v):
                if u in alive and u not in seen:
                    seen.add(u)
                    stack.append(u)
        orig = tuple(sorted(group))
        remap = {old: new for new, old in enumerate(orig)}
        map_vars = tuple(remap[v] for v in problem.map_vars if v in remap)
        evidence = {remap[v]: s for v, s in problem.evidence.items() if v in remap}
        if not (map_vars or evidence and any(
                0.0 in row for v in orig for row in net.cpts[v].table)):
            continue
        sub = BayesianNetwork._checked(
            net.name,
            tuple([_unchecked(Variable, new, net.variables[old].name, net.variables[old].states)
                   for new, old in enumerate(orig)]),
            tuple([_unchecked(Cpt, new, tuple([remap[p] for p in net.cpts[old].parents]),
                              net.cpts[old].table) for new, old in enumerate(orig)]),
            tuple([tuple([remap[c] for c in net.children(old) if c in remap]) for old in orig]),
            tuple([remap[v] for v in net.order() if v in remap]))
        if map_vars:
            components.append(Component(sub, _unchecked(MapProblem, map_vars, evidence), orig))
        elif _log_total(_plan(sub, (), frozenset(evidence)), evidence) == -math.inf:
            raise InconsistentEvidenceError("evidence has probability zero")
    return PrunedNetwork(tuple(components), dropped)
