import bisect
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amap import (
    Assignment,
    BayesianNetwork,
    Cpt,
    ImpossibleContextError,
    InconsistentEvidenceError,
    MapProblem,
    Variable,
    WidthCapError,
    conditional,
    eliminate,
    forward_sample,
    map_posterior,
    parse_network,
    prune,
)
from amap import engine, solver
from amap.cli import generate_problem
from amap.engine import MAX_TABLE_ENTRIES, _min_fill_order
from conftest import reference_site, shared_order
from netgen import (
    disjoint_union,
    enum_conditional,
    enum_factor,
    enum_map_posterior,
    joint_size,
    random_network,
    random_problem,
    relabelled,
    scan_draw,
)

# Brute-force sums over the sprinkler joint with W=t:
#   f(R=t) = 0.2 * (0.01*0.99 + 0.99*0.8) = 0.16038
#   f(R=f) = 0.8 * (0.4*0.9 + 0.6*0.0)    = 0.288
SPRINKLER_F_R = (0.16038, 0.288)
SPRINKLER_PE = 0.16038 + 0.288  # 0.44838


class TestEliminate:
    def test_sprinkler_keep_rain(self, sprinkler, sprinkler_problem):
        rain = sprinkler.by_name("Rain").id
        f = eliminate(sprinkler, (rain,), sprinkler_problem.evidence)
        assert f.scope == (rain,)
        assert f.values == pytest.approx(SPRINKLER_F_R, rel=1e-12)
        assert f.log_scale == 0.0

    def test_keep_all_gives_joint(self, sprinkler):
        f = eliminate(sprinkler, (0, 1, 2), Assignment())
        assert f.values.shape == (2, 2, 2)
        assert f.values.sum() == pytest.approx(1.0, abs=1e-12)
        # spot-check one cell against the chain rule: R=f, S=t, W=t
        assert f.values[1, 0, 0] == pytest.approx(0.288, rel=1e-12)

    def test_contradictory_evidence_gives_zero_factor(self, sprinkler):
        # W=t is impossible under S=f, R=f (deterministic CPT row)
        ev = Assignment({sprinkler.by_name("Sprinkler").id: 1,
                         sprinkler.by_name("Rain").id: 1,
                         sprinkler.by_name("WetGrass").id: 0})
        f = eliminate(sprinkler, (), ev)
        assert f.total() == 0.0

    def test_overlap_rejected(self, sprinkler):
        with pytest.raises(ValueError, match="overlap"):
            eliminate(sprinkler, (0,), Assignment({0: 0}))

    def test_repeated_keep_rejected(self, sprinkler):
        with pytest.raises(ValueError, match=r"^keep lists a variable twice: \(1, 0, 1\)$"):
            eliminate(sprinkler, (1, 0, 1), Assignment())
        assert not sprinkler._plans

    @pytest.mark.parametrize("call", [
        lambda net: conditional(net, 1, Assignment({0: -1})),
        lambda net: conditional(net, 1, Assignment({0: 2})),
        lambda net: conditional(net, 1, Assignment({9: 0})),
        lambda net: conditional(net, 7, Assignment()),
        lambda net: eliminate(net, (0,), Assignment({2: -1})),
        lambda net: eliminate(net, (0,), Assignment({9: 0})),
        lambda net: eliminate(net, (5,), Assignment()),
        lambda net: map_posterior(net, Assignment({0: -1}), Assignment({2: 0})),
        lambda net: map_posterior(net, Assignment({0: 0}), Assignment({2: 2})),
        lambda net: map_posterior(net, Assignment({9: 0}), Assignment({2: 0})),
        lambda net: map_posterior(net, Assignment({2: 0}), Assignment({2: -1})),
    ], ids=["cond-negative-state", "cond-state-too-high", "cond-unknown-var",
            "cond-unknown-target", "elim-negative-state", "elim-unknown-var",
            "elim-unknown-keep", "post-negative-state", "post-evidence-state",
            "post-unknown-var", "post-overridden-evidence-state"])
    def test_context_outside_the_network_rejected(self, sprinkler, call):
        # a negative state would wrap around to the last one, an unknown
        # variable would be ignored or raise a bare KeyError or IndexError
        with pytest.raises(ValueError, match="not in network|out of range") as info:
            call(sprinkler)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("call, message", [
        (lambda net: eliminate(net, (), {2: 0.0}), "state 0.0 out of range for 'WetGrass'"),
        (lambda net: eliminate(net, (), {2.0: 0}), "variable 2.0 not in network 'sprinkler'"),
        (lambda net: eliminate(net, (True,), {}), "variable True not in network 'sprinkler'"),
        (lambda net: conditional(net, 1, {0: True}), "state True out of range for 'Rain'"),
        (lambda net: conditional(net, 1.0, {}), "variable 1.0 not in network 'sprinkler'"),
        (lambda net: conditional(net, 1, {"0": 0}), "variable '0' not in network 'sprinkler'"),
        (lambda net: map_posterior(net, {0: 0}, {2: False}),
         "state False out of range for 'WetGrass'"),
        (lambda net: map_posterior(net, {0: 0.5}, {2: 0}), "state 0.5 out of range for 'Rain'"),
        (lambda net: map_posterior(net, {0.5: 0}, {2: 0}),
         "variable 0.5 not in network 'sprinkler'"),
        (lambda net: MapProblem((1.0,), {}).validate_for(net),
         "variable 1.0 not in network 'sprinkler'"),
        (lambda net: MapProblem((0,), {True: 0}).validate_for(net),
         "variable True not in network 'sprinkler'"),
        (lambda net: MapProblem((0,), {2: True}).validate_for(net),
         "state True out of range for 'WetGrass'"),
    ], ids=["elim-float-state", "elim-float-var", "elim-bool-keep", "cond-bool-state",
            "cond-float-target", "cond-str-var", "post-bool-evidence-state",
            "post-float-state", "post-float-var", "problem-float-map-var",
            "problem-bool-evidence-var", "problem-bool-state"])
    def test_non_integer_context_rejected(self, sprinkler, call, message):
        # a float or bool would index a CPT as numpy reads it, or fail there
        with pytest.raises(ValueError) as info:
            call(sprinkler)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_numpy_integers_accepted(self, sprinkler):
        i = np.int64
        ev = {i(2): np.uint8(0)}
        _same_bits(eliminate(sprinkler, (i(0),), ev), eliminate(_rebuilt(sprinkler), (0,), {2: 0}))
        # the plan compiled from numpy ids gives a plain call plain ids
        assert type(eliminate(sprinkler, (0,), {2: 0}).scope[0]) is int
        assert conditional(sprinkler, i(1), ev).tolist() == \
            conditional(_rebuilt(sprinkler), 1, {2: 0}).tolist()
        assert map_posterior(sprinkler, {i(0): i(1)}, ev) == \
            map_posterior(_rebuilt(sprinkler), {0: 1}, {2: 0})
        MapProblem((i(0), i(1)), ev).validate_for(sprinkler)

    def test_matches_enumeration_on_random_nets(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            net = random_network(rng, rng.randint(2, 8))
            if joint_size(net) > 4096:
                continue
            checked += 1
            keep = tuple(sorted(rng.sample(range(len(net)),
                                           rng.randint(1, min(3, len(net))))))
            ev_candidates = [v for v in range(len(net)) if v not in keep]
            evidence = Assignment({v: rng.randrange(net.cardinality(v))
                                   for v in rng.sample(ev_candidates,
                                                       min(2, len(ev_candidates)))})
            f = eliminate(net, keep, evidence)
            expected = enum_factor(net, keep, evidence)
            for combo, val in expected.items():
                got = float(f.values[combo]) * math.exp(f.log_scale)
                if val == 0.0:
                    assert got == 0.0
                else:
                    assert math.log(got) == pytest.approx(math.log(val), abs=1e-9)

    def test_tie_break_independence(self):
        # min-fill breaks ties by the lowest id, so with the ids reversed it
        # eliminates in another order
        rng = random.Random(77)
        for _ in range(20):
            net = random_network(rng, rng.randint(3, 9))
            keep = (rng.randrange(len(net)),)
            f = eliminate(net, keep, Assignment())
            g = eliminate(relabelled(net), (len(net) - 1 - keep[0],), Assignment())
            np.testing.assert_allclose(f.values, g.values, rtol=1e-12)


def _quadratic_min_fill_order(scopes, elim, cards):
    """Reference min-fill that rescans every remaining vertex at every step
    (the engine's implementation before fill scores were kept), and its
    width: the most entries of an eliminated vertex and its neighbours."""
    adjacency = {}
    for scope in scopes:
        for v in scope:
            adjacency.setdefault(v, set())
        for a in scope:
            for b in scope:
                if a != b:
                    adjacency[a].add(b)
    remaining = set(elim)
    order, width = [], 1
    while remaining:
        best_v, best_fill = -1, None
        for v in sorted(remaining):
            nbrs = [u for u in adjacency.get(v, ()) if u in adjacency]
            fill = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    if nbrs[j] not in adjacency[nbrs[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        order.append(best_v)
        nbrs = [u for u in adjacency.get(best_v, ()) if u in adjacency]
        width = max(width, cards[best_v] * math.prod(cards[u] for u in nbrs))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adjacency[nbrs[i]].add(nbrs[j])
                adjacency[nbrs[j]].add(nbrs[i])
        for u in nbrs:
            adjacency[u].discard(best_v)
        adjacency.pop(best_v, None)
        remaining.discard(best_v)
    return order, width


def _reversed_ids(n, scopes, elim, cards):
    """The graph of `scopes` over vertices 0..n-1 with vertex v renamed
    n - 1 - v, as `relabelled` renames a network's variables."""
    return ([tuple(n - 1 - v for v in scope) for scope in scopes], {n - 1 - v for v in elim},
            cards[::-1])


def _inputs(net):
    """Each node of the network's plans mapped to its inputs, the first
    part of its key in the network's node map: a CPT as (index, selection
    pattern, takes-indicator), or an input node."""
    return {node: key[0] for key, node in net._plans[engine._CPTS].nodes.items()}


def _tree(net, node, plain=False):
    """A node of the network's plans as a nested tuple (inputs, perms,
    shapes, scope, axis), each input a CPT as (index, selection pattern,
    takes-indicator), or as (index, selection pattern) if `plain`, or an
    input node's tree; each perm and shape as the node's fetch holds it."""
    inputs = _inputs(net)

    def tree(node):
        return (tuple(tree(a) if isinstance(a, engine._Node) else (a[:2] if plain else a)
                      for a in inputs[node]), tuple(f[2] for f in node.fetch),
                tuple(f[3] for f in node.fetch), node.scope, node.axis)

    return tree(node)


def _entries(net, node):
    """The number of entries of the node's output."""
    size = math.prod(map(net.cardinality, node.scope))
    return size if node.axis is None else size // net.cardinality(node.scope[node.axis])


def _nodes(plan):
    """The plan's nodes, its final node first and each node's input nodes
    after it, depth first."""
    out, stack = [], [plan]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.kids))
    return out


def _reference_plan(net, keep, bound, order=None):
    """(tree, bound, entries, width) of the plan `engine._plan` compiles,
    its tree rendered as `_tree` renders it, assembled as the engine did
    before it indexed live slots by variable: two scans of every live slot
    per eliminated variable, and each input's permutation and shape found
    by list searches. The final product is laid out in `keep` order. The
    order is `order` if given, and width the largest table a summing step
    multiplies; else the min-fill order and its width."""
    cards = [v.cardinality for v in net.variables]
    scopes, select = [], []
    for cpt in net.cpts:
        full = cpt.parents + (cpt.child,)
        scopes.append(tuple(v for v in full if v not in bound))
        select.append(tuple(v if v in bound else -1 for v in full)
                      if len(scopes[-1]) < len(full) else None)
    elim = set(range(len(cards))) - set(keep) - bound
    order_given = order is not None
    if order_given:
        order, width = list(order), 1
    else:
        order, width = _min_fill_order(scopes, elim, cards)

    live = list(range(len(scopes)))
    trees = [(s, sel, False) for s, sel in enumerate(select)]  # per slot
    entries = 0
    for v in order + [None]:
        if v is None:
            related, live = live, []
        else:
            related = [s for s in live if v in scopes[s]]
            live = [s for s in live if v not in scopes[s]]
            if not related:
                continue
        scope = list(keep) if v is None else []
        for s in related:
            scope.extend(u for u in scopes[s] if u not in scope)
        perms, shapes = [], []
        for s in related:
            present = [u for u in scope if u in scopes[s]]
            perm = tuple(scopes[s].index(u) for u in present)
            perms.append(None if perm == tuple(range(len(perm))) else perm)
            shape = tuple(cards[u] if u in scopes[s] else 1 for u in scope)
            lead = next((i for i, u in enumerate(scope) if u in scopes[s]), len(scope))
            shapes.append(None if shape[lead:] == tuple(cards[u] for u in present)
                          else shape)
        entries += math.prod(cards[u] for u in scope) // (1 if v is None else cards[v])
        if v is not None and order_given:
            width = max(width, math.prod(cards[u] for u in scope))
        axis = None if v is None else scope.index(v)
        trees.append((tuple(trees[s] for s in related), tuple(perms), tuple(shapes),
                      tuple(scope), axis))
        if v is not None:
            live.append(len(scopes))
            scopes.append(tuple(u for u in scope if u != v))
    return trees[-1], tuple(sorted(bound)), entries, width


def _fill_edges(scopes, order):
    """Per eliminated vertex of `order`: the fill edges it adds, and the
    number of (fill edge, vertex still to be eliminated outside the
    neighbourhood) pairs where that vertex is next to both ends, that is,
    how often a score outside N(v) must fall by one."""
    adjacency = {}
    for scope in scopes:
        for v in scope:
            adjacency.setdefault(v, set()).update(u for u in scope if u != v)
    remaining = set(order)
    out = []
    for v in order:
        remaining.discard(v)
        nbrs = adjacency.pop(v, set())
        added = [(a, b) for a in nbrs for b in nbrs if a < b and b not in adjacency[a]]
        shared = sum(len((adjacency[a] & adjacency[b] & remaining) - nbrs)
                     for a, b in added)
        for a, b in added:
            adjacency[a].add(b)
            adjacency[b].add(a)
        for u in nbrs:
            adjacency[u].discard(v)
        out.append((len(added), shared))
    return out


def _wide_instance():
    """Largest pruned component of a 300-variable net under the paper's
    protocol: its ln p(E) elimination needs a table of 2^38.7 entries."""
    net = random_network(random.Random(7), 300, max_parents=4)
    problem = generate_problem(net, 20, 20, random.Random(0))
    return net, problem


class TestPlans:
    def test_one_bound_set_many_evidence_values(self):
        rng = random.Random(41)
        checked = 0
        while checked < 15:
            net = random_network(rng, rng.randint(3, 8))
            if joint_size(net) > 4096:
                continue
            checked += 1
            keep = (rng.randrange(len(net)),)
            bound = rng.sample([v for v in range(len(net)) if v not in keep],
                               rng.randint(1, min(3, len(net) - 1)))
            for _ in range(6):
                evidence = Assignment({v: rng.randrange(net.cardinality(v))
                                       for v in bound})
                f = eliminate(net, keep, evidence)
                again = eliminate(net, keep, evidence)
                assert again.values.tobytes() == f.values.tobytes()
                assert again.log_scale == f.log_scale
                for combo, val in enum_factor(net, keep, evidence).items():
                    got = float(f.values[combo]) * math.exp(f.log_scale)
                    assert got == pytest.approx(val, rel=1e-9, abs=1e-300)

    def test_same_structure_different_cpts_share_no_plan(self, sprinkler):
        flipped = BayesianNetwork(
            "flipped", sprinkler.variables,
            [Cpt(c.child, c.parents, tuple(tuple(reversed(r)) for r in c.table))
             for c in sprinkler.cpts])
        ev = Assignment({2: 0})
        a = eliminate(sprinkler, (0,), ev)
        b = eliminate(flipped, (0,), ev)
        assert sprinkler._plans and flipped._plans
        assert not ({id(p) for p in sprinkler._plans.values()}
                    & {id(p) for p in flipped._plans.values()})
        assert a.values == pytest.approx(SPRINKLER_F_R, rel=1e-12)
        assert not np.allclose(a.values, b.values)

    def test_min_fill_matches_quadratic_reference(self):
        rng = random.Random(8)
        for _ in range(400):
            n = rng.randint(1, 20)
            scopes = [tuple(rng.sample(range(n), rng.randint(0, min(4, n))))
                      for _ in range(rng.randint(0, 20))]
            elim = set(rng.sample(range(n), rng.randint(0, n)))
            cards = [2 + v % 3 for v in range(n)]
            for graph in ((scopes, elim, cards), _reversed_ids(n, scopes, elim, cards)):
                assert _min_fill_order(*graph) == _quadratic_min_fill_order(*graph)

    def test_min_fill_matches_quadratic_reference_on_wide_graphs(self):
        # graphs the size of r120's pruned components, where one elimination
        # adds several fill edges whose ends share neighbours outside N(v)
        rng = random.Random(9)
        several = shared = 0
        for _ in range(24):
            n = rng.randint(40, 80)
            scopes = [tuple(rng.sample(range(n), rng.randint(2, 6)))
                      for _ in range(rng.randint(n // 2, n))]
            elim = set(rng.sample(range(n), rng.randint(n // 2, n)))
            cards = [2 + v % 3 for v in range(n)]
            for graph in ((scopes, elim, cards), _reversed_ids(n, scopes, elim, cards)):
                order, width = _min_fill_order(*graph)
                assert (order, width) == _quadratic_min_fill_order(*graph)
                fills = _fill_edges(graph[0], order)
                several += sum(added >= 3 for added, _ in fills)
                shared += sum(s for _, s in fills)
        assert several >= 500 and shared >= 5000

    def test_plans_match_reference_assembly(self):
        rng = random.Random(13)
        nets = [random_network(rng, rng.randint(8, 40), max_parents=3) for _ in range(8)]
        cases = []
        for net in nets:
            for _ in range(3):
                keep = tuple(rng.sample(range(len(net)), rng.randint(0, 3)))
                others = [v for v in range(len(net)) if v not in keep]
                cases.append((net, keep, frozenset(rng.sample(others, rng.randint(0, len(others))))))
        for seed in (7, 11):
            net = random_network(random.Random(seed), 120, max_parents=3, cards=(2, 3))
            problem = generate_problem(net, 20, 20, random.Random(seed))
            for comp in prune(net, problem).components:
                ev = set(comp.problem.evidence.keys())
                map_vars = comp.problem.map_vars
                cases.append((comp.net, (), frozenset(ev)))
                for k, j in enumerate(map_vars[:4]):
                    site = frozenset(ev | set(map_vars)) - {j}
                    prefix = frozenset(ev | set(map_vars[:k]))
                    cases += [(comp.net, (j,), site), (comp.net, (j,), prefix)]
        assert len(cases) > 50
        for net, keep, bound in cases:
            n = len(net)
            for net, keep, bound in ((net, keep, bound),
                                     (relabelled(net), tuple(n - 1 - v for v in keep),
                                      frozenset(n - 1 - v for v in bound))):
                plan = engine._plan(net, keep, bound)
                # the final node's support is the bound set; the nodes'
                # entries add up to the plan's; the min-fill width is the
                # largest table a summing step multiplies
                got = (_tree(net, plan), plan.support,
                       sum(_entries(net, node) for node in _nodes(plan)),
                       max([math.prod(map(net.cardinality, node.scope)) for node in _nodes(plan)
                            if node.axis is not None], default=1))
                assert got == _reference_plan(net, keep, bound)

    def test_plan_trees_and_shared_masks(self):
        # No node is reached twice from a plan's final node, and indicator
        # plans of one network with overlapping indicators read one stack of
        # masked CPTs per indicator, built when the first plan compiles: a
        # slice per state, then the CPT itself.
        net = random_network(random.Random(17), 20, max_parents=3, cards=(2, 3))
        ev = frozenset(range(14, 20))
        first = engine._plan(net, (), ev, frozenset({0, 1, 2, 3}))
        cpts = net._plans[engine._CPTS]
        masks = dict(cpts.masks)
        plans = [first, engine._plan(net, (), ev, frozenset({2, 3, 4})),
                 engine._plan(net, (5,), ev, frozenset({0, 4}))]
        plans += engine._site_plans(net, MapProblem((0, 1, 2, 3), {v: 0 for v in ev}))
        shared = set(map(id, cpts.nodes.values()))
        assert all(id(node) in shared for plan in plans for node in _nodes(plan))
        assert sorted(cpts.masks) == [0, 1, 2, 3, 4]
        assert all(cpts.masks[v] is masks[v] for v in masks)
        for v, stack in cpts.masks.items():
            card = net.cardinality(v)
            assert stack.shape == (card + 1, *cpts.arrays[v].shape)
            for state in range(card):
                want = cpts.arrays[v] * (np.arange(card) == state)
                assert stack[state].tobytes() == want.tobytes()
            assert stack[-1].tobytes() == cpts.arrays[v].tobytes()
        inputs = _inputs(net)
        for plan in plans:
            nodes = _nodes(plan)
            assert len({id(node) for node in nodes}) == len(nodes)
            for node in nodes:
                for a, (read, *_) in zip(inputs[node], node.fetch):
                    if not isinstance(a, engine._Node) and a[2]:
                        assert read is cpts.masks[a[0]] or read.base is cpts.masks[a[0]]

    def test_pickle_leaves_compiled_plans_behind(self):
        net = random_network(random.Random(23), 60)
        size = len(pickle.dumps(net))
        f = eliminate(net, (0,), {})
        assert net._plans
        copy = pickle.loads(pickle.dumps(net))
        assert len(pickle.dumps(net)) == size
        assert not copy._plans
        g = eliminate(copy, (0,), {})
        assert (g.scope, g.log_scale) == (f.scope, f.log_scale)
        assert g.values.dtype == f.values.dtype and g.values.tobytes() == f.values.tobytes()

    def test_deep_chain_matches_backward_messages(self):
        # X0 -> X1 -> ... -> X2999 with evidence on X2999: keeping X0, the
        # plan sums out X2998 down to X1, a tree 2,999 nodes deep, beyond
        # Python's recursion limit
        n = 3000
        rng = random.Random(61)
        rows = [(p, 1.0 - p) for p in (rng.uniform(0.05, 0.95) for _ in range(2 * n))]
        cpts = [Cpt(0, (), (rows[0],))]
        cpts += [Cpt(v, (v - 1,), (rows[2 * v], rows[2 * v + 1])) for v in range(1, n)]
        net = BayesianNetwork("chain", [Variable(v, f"X{v}", ("a", "b")) for v in range(n)],
                              cpts)
        ev = Assignment({n - 1: 1})
        depth, node = 0, engine._plan(net, (0,), frozenset(ev))
        inputs = _inputs(net)
        while inputs[node] and isinstance(inputs[node][-1], engine._Node):
            depth, node = depth + 1, inputs[node][-1]
        assert depth == n - 2
        f = eliminate(net, (0,), ev)
        # beta[x] = p(e | X_v = x), normalised at every step, its log scale
        # carried apart
        beta, log_scale = np.array([0.0, 1.0]), 0.0
        for v in range(n - 1, 0, -1):
            beta = np.array(cpts[v].table) @ beta
            log_scale += math.log(beta.sum())
            beta /= beta.sum()
        want = np.log(np.array(cpts[0].table[0]) * beta) + log_scale
        got = np.log(f.values) + f.log_scale
        assert f.scope == (0,)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_width_cap_raised_before_allocating(self):
        net, problem = _wide_instance()
        comp = max(prune(net, problem).components, key=lambda c: len(c.net))
        j, *rest = comp.problem.map_vars
        x = Assignment({v: 0 for v in comp.problem.map_vars})
        context = {**comp.problem.evidence, **{v: 0 for v in rest}}
        with pytest.raises(WidthCapError, match=f"cap is {MAX_TABLE_ENTRIES}"):
            conditional(comp.net, j, context)
        with pytest.raises(WidthCapError):
            map_posterior(comp.net, x, comp.problem.evidence)
        assert not comp.net._plans


def _rebuilt(net):
    """The same network built again: the same CPTs and no compiled plans."""
    return BayesianNetwork(net.name, net.variables, net.cpts)


def _unchecked_eliminate(net, keep, evidence):
    """`eliminate` without its check of the context, so that an out-of-range
    state fails part-way through the evaluation instead of before it."""
    return engine._factor(engine._plan(net, tuple(keep), frozenset(evidence.keys())), evidence)


def _sharpened(net):
    """`net` with state 0 of every variable made 1e-40 times as likely, so
    that a product of three CPT rows with their child in state 0 falls below
    the rescaling threshold."""
    cpts = []
    for c in net.cpts:
        rows = []
        for row in c.table:
            raw = (row[0] * 1e-40,) + row[1:]
            rows.append(tuple(p / sum(raw) for p in raw))
        cpts.append(Cpt(c.child, c.parents, tuple(rows)))
    return BayesianNetwork(net.name, net.variables, cpts)


def _same_bits(got, want):
    assert got.scope == want.scope
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.log_scale.hex() == want.log_scale.hex()


def _zeroed(net, rng):
    """`net` with about a third of its CPT rows given a zero entry (the row
    renormalised), so that some contexts have probability zero."""
    cpts = []
    for c in net.cpts:
        rows = []
        for row in c.table:
            if len(row) > 1 and rng.random() < 0.35:
                k = rng.randrange(len(row))
                raw = tuple(0.0 if i == k else p for i, p in enumerate(row))
                row = tuple(p / sum(raw) for p in raw)
            rows.append(row)
        cpts.append(Cpt(c.child, c.parents, tuple(rows)))
    return BayesianNetwork(net.name, net.variables, cpts)


def _evaluated(net, plan, context):
    """The result of the network's plan for the context, computed from
    `_tree` with no node reuse, each product started from ones in C order,
    and an indicator CPT masked here: the reference for the bits
    `engine._factor` gives."""
    arrays = net._plans[engine._CPTS].arrays

    def run(tree):
        inputs, perms, shapes, scope, axis = tree
        # CPT v's last axis is v's own
        out, log_scale = np.ones([arrays[v].shape[-1] for v in scope]), 0.0
        for a, perm, reshape in zip(inputs, perms, shapes):
            if len(a) == 3:  # a CPT
                s, sel, indicator = a
                a, scale = arrays[s], 0.0
                if indicator and s in context:
                    a = a * (np.arange(a.shape[-1]) == context[s])
                if sel is not None:
                    a = a[tuple(slice(None) if v < 0 else context[v] for v in sel)]
            else:
                a, scale = run(a)
            log_scale += scale
            if perm is not None:
                a = a.transpose(perm)
            if reshape is not None:
                a = a.reshape(reshape)
            out = out * a
        m = float(out.max())
        if m > engine._RESCALE_HI or 0.0 < m < engine._RESCALE_LO:
            out = out / m
            log_scale += math.log(m)
        if axis is not None:
            out = out.sum(axis=axis)
        return out, log_scale

    out, log_scale = run(_tree(net, plan))
    return engine.Factor(plan.scope, np.array(out, order="C"), log_scale)


class TestStepReuse:
    """A call runs only the steps whose node holds no output for the current
    values of the bound variables it reads; every result must have the bits
    of the same call on a network that has never evaluated the plan."""

    @pytest.mark.parametrize("sharpen", [False, True])
    def test_matches_rebuilt_network(self, sharpen):
        rng = random.Random(83)
        lam_rng = random.Random(89)  # the indicator moves, on a stream of their own
        scales = []
        for _ in range(10):
            net = random_network(rng, rng.randint(8, 25))
            if sharpen:
                net = _sharpened(net)
            n = len(net)
            keep = tuple(rng.sample(range(n), rng.randint(0, 2)))
            others = [v for v in range(n) if v not in keep]
            bound = rng.sample(others, rng.randint(1, len(others)))
            free = [v for v in others if v not in bound]
            indicators = frozenset(lam_rng.sample(free, lam_rng.randint(0, len(free))))
            for net, keep, bound, indicators in (
                    (net, keep, bound, indicators),
                    (relabelled(net), tuple(n - 1 - v for v in keep), [n - 1 - v for v in bound],
                     frozenset(n - 1 - v for v in indicators))):
                ev = {v: rng.randrange(net.cardinality(v)) for v in bound}
                lam = {}  # the bound indicators
                for _ in range(12):
                    move = rng.choice(("one", "none", "all"))
                    if move == "one":
                        v = rng.choice(bound)
                        ev[v] = (ev[v] + 1) % net.cardinality(v)
                    elif move == "all":
                        ev = {v: rng.randrange(net.cardinality(v)) for v in bound}
                    got = eliminate(net, keep, Assignment(ev))
                    want = eliminate(_rebuilt(net), keep, Assignment(ev))
                    _same_bits(got, want)
                    scales.append(got.log_scale)

                    lam_move = lam_rng.choice(("bind", "unbind", "flip", "none"))
                    if lam_move == "bind" and len(lam) < len(indicators):
                        v = lam_rng.choice(sorted(indicators - lam.keys()))
                        lam[v] = lam_rng.randrange(net.cardinality(v))
                    elif lam_move == "unbind" and lam:
                        del lam[lam_rng.choice(sorted(lam))]
                    elif lam_move == "flip" and lam:
                        v = lam_rng.choice(sorted(lam))
                        lam[v] = (lam[v] + 1) % net.cardinality(v)
                    context = Assignment({**ev, **lam})
                    got = engine._factor(engine._plan(net, keep, frozenset(bound), indicators),
                                         context)
                    want = engine._factor(engine._plan(_rebuilt(net), keep, frozenset(bound),
                                                       indicators), context)
                    _same_bits(got, want)
                    # a bound indicator selects its state as evidence would
                    plain = eliminate(net, keep, context)
                    assert np.allclose(got.values * math.exp(got.log_scale),
                                       plain.values * math.exp(plain.log_scale),
                                       rtol=1e-12, atol=0.0)
                for ind in (frozenset(), indicators):
                    plan = net._plans[(keep, frozenset(bound), ind)]
                    assert all(node.keeps and node.values is not None for node in _nodes(plan))
        # the sharpened nets go through the rescaling path
        assert any(scales) == sharpen

    def test_no_indicator_bound_gives_plain_plan_bits(self):
        rng = random.Random(131)
        cases = []
        for _ in range(6):
            net = random_network(rng, rng.randint(8, 20), max_parents=3)
            cases.append((net, random_problem(rng, net)))
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(7))
        cases += [(c.net, c.problem) for c in prune(net, problem).components]
        for net, problem in cases:
            plan = engine._indicator_plan(net, problem)
            ev = problem.evidence
            want = eliminate(_rebuilt(net), (), ev)
            # the same steps as the plain plan, which the indicators leave as
            # they are, with the MAP variables' CPTs taking indicators
            plain = engine._plan(net, (), frozenset(ev.keys()))
            assert _tree(net, plan, plain=True) == _tree(net, plain, plain=True)
            inputs = _inputs(net)
            cpts = [a for node in _nodes(plan) for a in inputs[node]
                    if not isinstance(a, engine._Node)]
            assert sorted(a[0] for a in cpts if a[2]) == sorted(problem.map_vars)
            for y in ({}, {v: 0 for v in problem.map_vars}, {problem.map_vars[0]: 1}, {}):
                context = {**ev, **y}
                got = engine._factor(plan, context)
                assert engine._log_total(plan, context).hex() == got.log_total().hex()
                if not y:
                    _same_bits(got, want)
                    assert got.log_total().hex() == eliminate(net, (), ev).log_total().hex()

    def test_writing_into_a_result_changes_no_later_result(self):
        net = random_network(random.Random(97), 12)
        for keep in ((), (3,), (5, 1)):
            ev = Assignment({v: 0 for v in range(8, 12)})
            want = eliminate(_rebuilt(net), keep, ev)
            for _ in range(5):
                f = eliminate(net, keep, ev)
                _same_bits(f, want)
                f.values[...] = 7.0
            plan = net._plans[(keep, frozenset(ev.keys()), frozenset())]
            kept = [node.output for node in _nodes(plan)]
            assert not any(isinstance(a, np.ndarray) and a.flags.writeable for a in kept)

    def test_products_match_stepwise_reference(self):
        # Nine and ten states make the sums depend on the products' memory
        # layout, so a product laid out other than in C order shows here.
        rng = random.Random(157)
        for _ in range(10):
            net = random_network(rng, rng.randint(8, 16), max_parents=3,
                                 cards=rng.choice(((2, 3, 9), (9, 10))))
            n = len(net)
            for _ in range(6):
                keep = tuple(rng.sample(range(n), rng.randint(0, 2)))
                others = [v for v in range(n) if v not in keep]
                bound = rng.sample(others, rng.randint(0, len(others) // 2))
                free = [v for v in others if v not in bound]
                indicators = frozenset(rng.sample(free, rng.randint(0, len(free) // 2)))
                plan = engine._plan(net, keep, frozenset(bound), indicators)
                for _ in range(2):
                    sample = forward_sample(net, rng)
                    kept = bound + rng.sample(sorted(indicators), rng.randint(0, len(indicators)))
                    context = {v: s for v, s in sample.items() if v in kept}
                    _same_bits(engine._factor(plan, context), _evaluated(net, plan, context))

    def test_single_input_step_owns_its_output(self, monkeypatch):
        # The one step of p(A) reads A's CPT alone. With a budget of two
        # entries, which p() fills first, that step's node keeps nothing and
        # its output is handed out as it is, so it must not be a view of the
        # CPT array.
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 2)
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.2 0.8 }\n")
        assert eliminate(net, (), Assignment()).total() == 1.0
        for _ in range(3):
            f = eliminate(net, (0,), Assignment())
            assert f.values.tolist() == [0.2, 0.8]
            f.values[...] = 7.0
        assert not net._plans[((0,), frozenset(), frozenset())].keeps

    def test_result_of_a_kept_lone_kid_is_a_copy(self, monkeypatch):
        # p(B) for A -> B sums out A by the step that p() runs first, whose
        # nodes fill a budget of four entries: the final node of p(B) keeps
        # nothing and takes that step's kept output, with no transpose or
        # reshape, as its own; the factor must still own its values, or a
        # write into them would reach the kid's output
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 4)
        net = parse_network("network n\nvar A { t, f }\nvar B { t, f }\ncpt A { 0.2 0.8 }\n"
                            "cpt B | A { 0.9 0.1 ; 0.3 0.7 }\n")
        want = eliminate(_rebuilt(net), (1,), Assignment())
        assert eliminate(net, (), Assignment()).total() == 1.0
        plan = engine._plan(net, (1,), frozenset())
        kid, = plan.kids
        assert kid.keeps and not plan.keeps
        assert plan.fetch[0][2:] == (None, None) and not plan.copy
        for _ in range(3):
            f = eliminate(net, (1,), Assignment())
            _same_bits(f, want)
            assert not np.shares_memory(f.values, kid.output)
            f.values[...] = 7.0

    def test_failed_evaluation_leaves_no_stale_output(self):
        # An out-of-range state fails part-way, after the steps before it
        # have been re-run for the other changed values; the next call
        # changes only that variable back to a valid state.
        base = random_network(random.Random(103), 10)
        bound = tuple(range(4, 10))
        for bad in bound:
            net = _rebuilt(base)
            for _ in range(3):
                eliminate(net, (), Assignment({v: 0 for v in bound}))
            bad_ev = Assignment({v: 9 if v == bad else 1 for v in bound})
            with pytest.raises(ValueError, match="out of range"):
                eliminate(net, (), bad_ev)
            for _ in range(2):  # nothing is kept for the failed values either
                with pytest.raises(IndexError):
                    _unchecked_eliminate(net, (), bad_ev)
            ev = Assignment({v: 1 if v == bad else 0 for v in bound})
            _same_bits(eliminate(net, (), ev), eliminate(base, (), ev))

    def test_retained_entries_stay_within_budget(self, monkeypatch):
        budget = 40
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", budget)
        net = random_network(random.Random(101), 14, cards=(2,))
        rng = random.Random(5)
        for _ in range(4):
            for j in range(len(net)):
                ev = Assignment({v: rng.randrange(2) for v in range(1, len(net), 2)
                                 if v != j})
                _same_bits(eliminate(net, (j,), ev), eliminate(_rebuilt(net), (j,), ev))
        nodes = list(net._plans[engine._CPTS].nodes.values())
        kept = [node for node in nodes if node.keeps]
        assert 0 < len(kept) < len(nodes)
        assert (sum(_entries(net, node) for node in kept)
                == net._plans[engine._CPTS].retained <= budget)
        assert all(node.output is None for node in nodes if not node.keeps)

    def test_budget_applies_per_component_network(self, monkeypatch):
        # Each network pruning makes has a budget of its own, so one solve of
        # two components can keep more than the budget in all.
        net = disjoint_union(*(random_network(random.Random(seed), 12, cards=(2,))
                               for seed in (107, 109)))
        problem = MapProblem(tuple(range(0, 24, 2)),
                             Assignment({v: 0 for v in range(1, 24, 4)}))
        schedule = solver.AnnealSchedule(wait=3, stop=6)
        want = solver.annealed_map(net, problem, schedule, random.Random(3))

        budget = 16
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", budget)
        pruned = []
        monkeypatch.setattr(solver, "prune",
                            lambda n, p: pruned.append(prune(n, p)) or pruned[-1])
        got = solver.annealed_map(_rebuilt(net), problem, schedule, random.Random(3))
        assert got.best == want.best
        assert got.logp.hex() == want.logp.hex()
        retained = [c.net._plans[engine._CPTS].retained for c in pruned[0].components]
        assert len(retained) == 2
        assert all(0 < r <= budget for r in retained)
        assert sum(retained) > budget

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans(),
           st.lists(st.tuples(st.integers(0, 7), st.sampled_from(("none", "one", "all", "bad")),
                              st.integers(0, 2 ** 32)), min_size=1, max_size=25))
    def test_interleaved_plans_match_rebuilt_network(self, seed, sharpen, calls):
        # the plans of a solve on one network: ln p(E), site conditionals,
        # a sequential-init prefix and ln p(x, E), called in any order, with
        # calls that fail part-way on an out-of-range state in between
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(6, 16))
        if sharpen:
            net = _sharpened(net)
        ev = rng.sample(range(len(net)), len(net) // 3)
        map_vars = rng.sample([v for v in range(len(net)) if v not in ev], 4)
        plans = [((), frozenset(ev)), ((map_vars[2],), frozenset(ev + map_vars[:2])),
                 ((), frozenset(ev + map_vars))]
        plans += [((j,), frozenset(ev + map_vars) - {j}) for j in map_vars]
        state = {v: rng.randrange(net.cardinality(v)) for v in ev + map_vars}
        for pick, move, r in calls:
            keep, bound = plans[pick % len(plans)]
            draw = random.Random(r)
            if move == "one":
                v = draw.choice(map_vars)
                state[v] = (state[v] + 1) % net.cardinality(v)
            elif move == "all":
                state.update({v: draw.randrange(net.cardinality(v)) for v in map_vars})
            ev_call = Assignment({v: state[v] for v in bound})
            if move == "bad":
                v = draw.choice(sorted(bound))
                ev_call[v] = net.cardinality(v) + draw.randrange(3)
                for target in (net, _rebuilt(net)):
                    with pytest.raises(IndexError):
                        _unchecked_eliminate(target, keep, ev_call)
                continue
            _same_bits(eliminate(net, keep, ev_call), eliminate(_rebuilt(net), keep, ev_call))

    def test_site_plans_share_nodes(self):
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(7))
        comp = max(prune(net, problem).components, key=lambda c: len(c.net))
        x = Assignment({v: 0 for v in comp.problem.map_vars})
        contexts, plans = {}, []
        for j in comp.problem.map_vars:
            contexts[j] = {**comp.problem.evidence, **x}
            contexts[j].pop(j, None)
            plan = engine._plan(comp.net, (j,), frozenset(contexts[j].keys()))
            # every site plan after the first finds nodes held by the others
            held = sum(node.values is not None for node in _nodes(plan))
            assert (held > 0) == bool(plans)
            conditional(comp.net, j, contexts[j])
            plans.append(plan)
        steps = sum(len(_nodes(plan)) for plan in plans)
        assert 2 * len(comp.net._plans[engine._CPTS].nodes) < steps
        # a repeat call at unchanged values recomputes no node
        outputs = [[node.output for node in _nodes(plan)] for plan in plans]
        for j, plan, before in zip(contexts, plans, outputs):
            want = conditional(_rebuilt(comp.net), j, contexts[j])
            assert conditional(comp.net, j, contexts[j]).tobytes() == want.tobytes()
            assert all(node.output is out for node, out in zip(_nodes(plan), before))
        # after one MAP variable changes, only nodes that read it run again
        m, j = comp.problem.map_vars[:2]
        contexts[j][m] = 1
        plan = plans[1]
        before = [node.output for node in _nodes(plan)]
        want = conditional(_rebuilt(comp.net), j, contexts[j])
        assert conditional(comp.net, j, contexts[j]).tobytes() == want.tobytes()
        rerun = [node.output is not out for node, out in zip(_nodes(plan), before)]
        assert 0 < sum(rerun) < len(rerun)
        assert all(m in node.support for node, r in zip(_nodes(plan), rerun) if r)

    def test_empty_scope(self, sprinkler):
        # total() and log_total() as float.hex, as they were when the
        # empty-scope result had shape (1,)
        cases = [
            (sprinkler, {2: 0}, "0x1.cb242070b8cfep-2", "-0x1.9aaeb61afaa0ep-1"),
            (sprinkler, {}, "0x1.0000000000000p+0", "0x0.0p+0"),
            (sprinkler, {0: 1, 2: 0}, "0x1.26e978d4fdf3cp-2", "-0x1.3eaadf3746795p+0"),
            (random_network(random.Random(5), 20),
             {2: 0, 9: 1, 11: 2, 12: 1, 13: 0, 14: 0},
             "0x1.9de404410dcbcp-7", "-0x1.17c863b538865p+2"),
        ]
        for net, ev, total, log_total in cases:
            for _ in range(4):  # later calls reuse the final node
                f = eliminate(net, (), Assignment(ev))
                assert f.values.shape == ()
                assert f.total().hex() == total
                assert f.log_total().hex() == log_total


def _partly_sharpened(net, rng):
    """`net` with about half of its CPTs, chosen by `rng`, as `_sharpened`
    makes them and the rest as they are."""
    sharp = _sharpened(net).cpts
    cpts = [rng.choice(pair) for pair in zip(net.cpts, sharp)]
    return BayesianNetwork(net.name, net.variables, cpts)


def _maxima(net, plan, context):
    """(node, the maximum of its product) for every node of the network's
    plan, the products formed as `_evaluated` forms them, every rescale
    made."""
    arrays, inputs, found = net._plans[engine._CPTS].arrays, _inputs(net), []

    def run(node):
        out = np.ones([arrays[v].shape[-1] for v in node.scope])
        log_scale = 0.0
        for a, (_, _, perm, reshape) in zip(inputs[node], node.fetch):
            if isinstance(a, engine._Node):
                a, scale = run(a)
                log_scale += scale
            else:
                s, sel, indicator = a
                a = arrays[s]
                if indicator and s in context:
                    a = a * (np.arange(a.shape[-1]) == context[s])
                if sel is not None:
                    a = a[tuple(slice(None) if v < 0 else context[v] for v in sel)]
            if perm is not None:
                a = a.transpose(perm)
            if reshape is not None:
                a = a.reshape(reshape)
            out = out * a
        m = float(out.max())
        found.append((node, m))
        if m > engine._RESCALE_HI or 0.0 < m < engine._RESCALE_LO:
            out = out / m
            log_scale += math.log(m)
        return (out if node.axis is None else out.sum(axis=node.axis)), log_scale

    run(plan)
    return found


class TestMagnitudeBounds:
    """A node skips its rescale check only where its compiled bounds prove
    that the check could not fire, so every result keeps the bits of the
    always-checking reference."""

    def test_unchecked_nodes_never_need_a_rescale(self):
        rng = random.Random(211)
        kinds = {"unchecked": 0, "rescaled": 0, "mixed plans": 0}
        for i in range(24):
            net = random_network(rng, rng.randint(8, 30), max_parents=3)
            if i % 3 == 1:
                net = _sharpened(net)
            elif i % 3 == 2:
                net = _partly_sharpened(net, rng)
            n = len(net)
            for _ in range(4):
                keep = tuple(rng.sample(range(n), rng.randint(0, 2)))
                others = [v for v in range(n) if v not in keep]
                bound = rng.sample(others, rng.randint(0, len(others) // 2))
                free = [v for v in others if v not in bound]
                indicators = frozenset(rng.sample(free, rng.randint(0, len(free) // 2)))
                plan = engine._plan(net, keep, frozenset(bound), indicators)
                checks = {node.check for node in _nodes(plan)}
                kinds["mixed plans"] += checks == {True, False}
                for _ in range(3):
                    # uniform states, so that the sharpened ones are bound too
                    kept = bound + rng.sample(sorted(indicators), rng.randint(0, len(indicators)))
                    context = {v: rng.randrange(net.cardinality(v)) for v in kept}
                    for node, m in _maxima(net, plan, context):
                        if node.check:
                            rescaled = m > engine._RESCALE_HI or 0.0 < m < engine._RESCALE_LO
                            kinds["rescaled"] += rescaled
                        else:
                            # no node below it rescales, so its bounds hold
                            # as compiled: `high` less what summing out adds
                            summed = 0.0 if node.axis is None else math.log(
                                net.cardinality(node.scope[node.axis]))
                            assert m == 0.0 or (node.low - 1e-9 <= math.log(m)
                                                <= node.high - summed + 1e-9)
                            assert m == 0.0 or engine._RESCALE_LO <= m <= engine._RESCALE_HI
                            kinds["unchecked"] += 1
                    want = _evaluated(net, plan, context)
                    _same_bits(engine._factor(plan, context), want)
                    if not keep:
                        got = engine._log_total(plan, context)
                        assert got.hex() == want.log_total().hex()
                    if len(keep) == 1 and all(v in context for v in plan.support):
                        total = float(np.add.reduce(want.values, None))
                        if total > 0.0:
                            site = engine._conditional(net, keep[0], plan, context)
                            assert site.dist.tobytes() == (want.values / total).tobytes()
        # every kind of node ran, in plans that hold both kinds, and the
        # checking nodes still rescale
        assert all(kinds.values()), kinds

    def test_r120_plans_check_no_node(self):
        # the site and indicator plans of the r120 workload's problem shapes:
        # no product there can reach a rescale threshold, though the smallest
        # lower bound, about 1e-85, is not far above 1e-100
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        low = 0.0
        for i in range(16):
            for comp in prune(net, generate_problem(net, 20, 20, random.Random(i))).components:
                plans = engine._site_plans(comp.net, comp.problem)
                for plan in plans + (engine._indicator_plan(comp.net, comp.problem),):
                    nodes = _nodes(plan)
                    assert not any(node.check for node in nodes)
                    low = min(low, min(node.low for node in nodes))
        assert math.log(1e-90) < low < math.log(1e-80)

    def test_deep_chain_nodes_with_deep_subtrees_check(self):
        # X0 -> ... -> X2999 with evidence on X2999, keeping X0: rows in
        # [0.05, 0.95] allow a product of 3,000 CPT entries to underflow, so
        # every node whose subtree holds enough CPTs checks, and so does
        # every node above it
        n = 3000
        rng = random.Random(61)
        rows = [(p, 1.0 - p) for p in (rng.uniform(0.05, 0.95) for _ in range(2 * n))]
        cpts = [Cpt(0, (), (rows[0],))]
        cpts += [Cpt(v, (v - 1,), (rows[2 * v], rows[2 * v + 1])) for v in range(1, n)]
        net = BayesianNetwork("chain", [Variable(v, f"X{v}", ("a", "b")) for v in range(n)],
                              cpts)
        chain = [engine._plan(net, (0,), frozenset({n - 1}))]
        while chain[-1].kids:
            chain.append(chain[-1].kids[-1])
        checks = [node.check for node in chain]
        assert len(chain) == n - 1
        first = checks.index(False)
        assert 0 < first < n - 1 - 40
        assert not any(checks[first:])
        assert all(checks[:first])


class TestConditional:
    def test_sprinkler_rain_given_wet(self, sprinkler, sprinkler_problem):
        rain = sprinkler.by_name("Rain").id
        dist = conditional(sprinkler, rain, sprinkler_problem.evidence)
        assert dist == pytest.approx([SPRINKLER_F_R[0] / SPRINKLER_PE,
                                      SPRINKLER_F_R[1] / SPRINKLER_PE], rel=1e-12)

    def test_empty_context_reads_prior(self, sprinkler):
        dist = conditional(sprinkler, sprinkler.by_name("Rain").id, Assignment())
        assert dist == pytest.approx([0.2, 0.8], rel=1e-12)

    def test_target_in_context_rejected(self, sprinkler):
        with pytest.raises(ValueError, match="^target variable 1 is bound in the context$"):
            conditional(sprinkler, 1, Assignment({1: 0, 2: 0}))
        assert not sprinkler._plans

    def test_impossible_context(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 0.5 0.5 }\ncpt B | A { 1.0 0.0 ; 1.0 0.0 }\n")
        with pytest.raises(ImpossibleContextError):
            conditional(net, 0, Assignment({1: 1}))  # B=f has probability 0

    def test_kept_conditional_follows_eliminate(self, sprinkler):
        # eliminate and conditional share a site plan's final node, so an
        # eliminate at other values must retire the kept conditional
        rain, wet = sprinkler.by_name("Rain").id, sprinkler.by_name("WetGrass").id
        cases = [(sprinkler, rain, Assignment({wet: 0}), Assignment({wet: 1}))]
        rng = random.Random(4)
        while len(cases) < 6:
            net = random_network(rng, rng.randint(6, 12))
            j = rng.randrange(len(net))
            bound = rng.sample([v for v in range(len(net)) if v != j], 3)
            a, b = ({v: s for v, s in forward_sample(net, rng).items() if v in bound}
                    for _ in range(2))
            if a != b:
                cases.append((net, j, a, b))
        for net, j, a, b in cases:
            for ctx in (a, b, a, b):
                _same_bits(eliminate(net, (j,), ctx), eliminate(_rebuilt(net), (j,), ctx))
                got = conditional(net, j, ctx)
                assert got.tobytes() == conditional(_rebuilt(net), j, ctx).tobytes()
        assert conditional(sprinkler, rain, cases[0][2]).tobytes() != \
            conditional(sprinkler, rain, cases[0][3]).tobytes()

    def test_returns_read_only_array(self, sprinkler, sprinkler_problem):
        rain = sprinkler.by_name("Rain").id
        for _ in range(2):  # computed, then kept
            dist = conditional(sprinkler, rain, sprinkler_problem.evidence)
            assert not dist.flags.writeable
            with pytest.raises(ValueError):
                dist[0] = 1.0

    def test_impossible_context_raises_on_every_repeat(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 0.5 0.5 }\ncpt B | A { 1.0 0.0 ; 1.0 0.0 }\n")
        for _ in range(3):
            with pytest.raises(ImpossibleContextError):
                conditional(net, 0, Assignment({1: 1}))
            assert conditional(net, 0, Assignment({1: 0})).tolist() == [0.5, 0.5]

    def test_sums_to_one(self):
        rng = random.Random(13)
        for _ in range(30):
            net = random_network(rng, rng.randint(2, 8))
            target = rng.randrange(len(net))
            others = [v for v in range(len(net)) if v != target]
            ctx = Assignment({v: rng.randrange(net.cardinality(v))
                              for v in rng.sample(others, min(2, len(others)))})
            try:
                dist = conditional(net, target, ctx)
            except ImpossibleContextError:
                continue
            assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)
            expected = enum_conditional(net, target, ctx)
            assert dist == pytest.approx(expected, abs=1e-9)


def _reference_cum(probs):
    """A site record's running sums of `probs`, added one by one from 0.0,
    the last state with mass and every state after it at infinity."""
    last = max(i for i, p in enumerate(probs) if p != 0.0)
    acc, cum = 0.0, []
    for i, p in enumerate(probs):
        acc += p
        cum.append(acc if i < last else math.inf)
    return cum


def _memo_calls(seed, calls):
    """Interleaved site updates, as anneal and Gibbs make them with
    `engine._conditional` on the site plan and a context that still binds
    the target, and `conditional` calls on one network with zeros in its
    CPTs, each checked against a rebuilt network: a site update against
    `reference_site`, on the site plans' shared order, and `conditional`
    against itself, on its own min-fill plan, which memoises its own
    records. Returns how many calls repeated an earlier context and how many
    had probability zero. Each call draws its site from `pick` and, by
    `move`, first keeps x, moves another site or returns to an earlier x."""
    rng = random.Random(seed)
    net = _zeroed(random_network(rng, rng.randint(5, 12), max_parents=3), rng)
    problem = random_problem(rng, net)
    ev, map_vars = problem.evidence, problem.map_vars
    plans = engine._site_plans(net, problem)
    x = {v: rng.randrange(net.cardinality(v)) for v in map_vars}
    history, seen = [dict(x)], set()
    repeats = impossible = 0
    for pick, via_site, move, r in calls:
        draw = random.Random(r)
        i = pick % len(map_vars)
        j = map_vars[i]
        if move == "other":
            v = draw.choice(map_vars)
            x[v] = draw.randrange(net.cardinality(v))
        elif move == "back":
            x = dict(draw.choice(history))
        history.append(dict(x))
        context = {**ev, **x}
        context.pop(j, None)
        key = (j, tuple(sorted(context.items())))
        repeats += key in seen
        seen.add(key)

        def call():
            if via_site:  # as anneal and Gibbs update a site: x_j bound
                full = {**ev, **x}
                assert j in full and {v: s for v, s in full.items() if v != j} == context
                return engine._conditional(net, j, plans[i], full)
            return conditional(net, j, context)

        if via_site:
            final, reference = plans[i], lambda: reference_site(net, problem, j, context)
        else:
            final = engine._plan(net, (j,), frozenset(context))
            reference = lambda: conditional(_rebuilt(net), j, context)
        values = tuple(map(context.get, final.support))
        try:
            want = reference()
        except ImpossibleContextError:
            impossible += 1
            for _ in range(2):  # raises on every call, and is never kept
                with pytest.raises(ImpossibleContextError):
                    call()
                assert values not in final.memo
            continue
        got = call()
        dist = got.dist if via_site else got
        assert dist.tobytes() == want.tobytes()
        assert not dist.flags.writeable
        assert final.memo[values].dist is dist
        if via_site:
            probs = want.tolist()
            assert [c.hex() for c in got.cum] == [c.hex() for c in _reference_cum(probs)]
            assert [lp.hex() for lp in got.logs] == [
                (math.log(p) if p > 0.0 else -math.inf).hex() for p in probs]
    return repeats, impossible


_MEMO_CALL = st.tuples(st.integers(0, 7), st.booleans(),
                       st.sampled_from(("stay", "other", "back")), st.integers(0, 2 ** 32))


class TestSiteMemo:
    """A site plan's final node memoises one site record per value tuple of
    its support; every record must hold the bits that computing the
    conditional on a rebuilt network gives."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.lists(_MEMO_CALL, min_size=1, max_size=30))
    def test_interleaved_calls_match_rebuilt_network(self, seed, calls):
        _memo_calls(seed, calls)

    def test_repeats_and_impossible_contexts_occur(self):
        rng = random.Random(163)
        calls = [(rng.randrange(8), rng.random() < 0.5,
                  rng.choice(("stay", "other", "back")), rng.randrange(2 ** 32))
                 for _ in range(40)]
        totals = [_memo_calls(seed, calls) for seed in range(8)]
        assert sum(r for r, _ in totals) > 0
        assert sum(i for _, i in totals) > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_bound_target_is_never_read(self, seed):
        # A site plan keeps j and selects only on its bound variables, so no
        # node of it has j in its support, and a context that also binds j,
        # to any state, gets the record it gets with j unbound: the same
        # object, or the same ImpossibleContextError. The first call binds j,
        # so at new values it is the one that computes and stores the record.
        rng = random.Random(seed)
        net = _zeroed(random_network(rng, rng.randint(2, 9), max_parents=3), rng)
        problem = random_problem(rng, net)
        plans = engine._site_plans(net, problem)
        for j, plan in zip(problem.map_vars, plans):
            assert all(j not in node.support for node in _nodes(plan))
        for _ in range(4):
            j = rng.randrange(len(net))
            others = [v for v in range(len(net)) if v != j]
            context = {v: rng.randrange(net.cardinality(v))
                       for v in rng.sample(others, rng.randint(0, len(others)))}
            plan = engine._plan(net, (j,), frozenset(context))
            assert all(j not in node.support for node in _nodes(plan))
            states = range(net.cardinality(j))
            calls = [{**context, j: rng.choice(states)}, context]
            calls += [{**context, j: s} for s in states]
            try:
                want = conditional(_rebuilt(net), j, context)
            except ImpossibleContextError:
                for ctx in calls:
                    with pytest.raises(ImpossibleContextError):
                        engine._conditional(net, j, plan, ctx)
                continue
            site = engine._conditional(net, j, plan, calls[0])
            assert site.dist.tobytes() == want.tobytes()
            assert all(engine._conditional(net, j, plan, ctx) is site for ctx in calls)

    def test_memo_keys_by_support_size(self, sprinkler, sprinkler_problem):
        # A alone has an empty support, A given B one variable, and each
        # sprinkler site two: keys come from `memo_key` in one call
        chain = parse_network("network c\nvar A { t, f }\nvar B { t, f }\n"
                              "cpt A { 0.3 0.7 }\ncpt B | A { 0.9 0.1 ; 0.2 0.8 }\n")
        cases = [(chain, 0, {}), (chain, 0, {1: 1}), (chain, 1, {0: 0})]
        wet = sprinkler_problem.evidence
        for j in sprinkler_problem.map_vars:
            for s in (0, 1):
                other, = set(sprinkler_problem.map_vars) - {j}
                cases.append((sprinkler, j, {**wet, other: s}))
        sizes = set()
        for net, j, context in cases:
            plan = engine._plan(net, (j,), frozenset(context))
            sizes.add(len(plan.support))
            site = engine._conditional(net, j, plan, context)
            values = tuple(map(context.get, plan.support))
            assert plan.memo_key(context) == values
            assert plan.memo[values] is site
            assert engine._conditional(net, j, plan, dict(context)) is site
            assert conditional(net, j, context) is site.dist
        assert sizes == {0, 1, 2}

    def test_memo_stops_growing_at_the_budget(self, monkeypatch):
        net = random_network(random.Random(151), 12, max_parents=3, cards=(2,))
        problem = random_problem(random.Random(152), net)
        configs = [dict(zip(problem.map_vars, states)) for states in
                   itertools.product((0, 1), repeat=len(problem.map_vars))]
        contexts = []
        for x in configs:
            for j in problem.map_vars:
                context = {**problem.evidence, **x}
                context.pop(j, None)
                contexts.append((j, context))
        want = [reference_site(net, problem, j, context).tobytes() for j, context in contexts]
        schedule = solver.AnnealSchedule(wait=3, stop=6)
        anneal = solver.annealed_map(_rebuilt(net), problem, schedule, random.Random(3),
                                     restarts=3, collect_trace=True)

        plans = engine._site_plans(net, problem)
        cpts = net._plans[engine._CPTS]
        nodes_kept = cpts.retained
        # room for a few records: each counts its 3 * 2 values and its key
        budget = nodes_kept + 3 * (3 * 2 + len(plans[0].support))
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", budget)
        sizes = []
        plan = dict(zip(problem.map_vars, plans))
        for _ in range(2):  # the second pass finds the memo full
            for (j, context), dist in zip(contexts, want):
                assert engine._conditional(net, j, plan[j], context).dist.tobytes() == dist
            sizes.append([len(node.memo) for node in plans])
        assert sizes[0] == sizes[1]
        assert 0 < sum(sizes[0]) < len(contexts)
        assert cpts.retained == nodes_kept + sum(
            len(node.memo) * (3 * 2 + len(node.support)) for node in plans) <= budget
        # a solve under a budget that keeps hardly anything gives the same run
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 16)
        assert solver.annealed_map(_rebuilt(net), problem, schedule, random.Random(3),
                                   restarts=3, collect_trace=True) == anneal


def _reference_width(scopes, order, cards):
    """The largest table that eliminating `order` multiplies, by sets of
    neighbours: an eliminated vertex and its neighbours then."""
    adjacency = {}
    for scope in scopes:
        for v in scope:
            adjacency.setdefault(v, set()).update(u for u in scope if u != v)
    width = 1
    for v in order:
        nbrs = adjacency.pop(v)
        width = max(width, cards[v] * math.prod(cards[u] for u in nbrs))
        for u in nbrs:
            adjacency[u] |= nbrs - {u}
            adjacency[u].discard(v)
    return width


def _site_cases():
    """(network, problem) pairs with two MAP variables or more: the
    components of r120-shaped problems at two seeds, and small random
    networks under `random_problem`."""
    cases = []
    for seed in (7, 11):
        net = random_network(random.Random(seed), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(seed))
        cases += [(c.net, c.problem) for c in prune(net, problem).components
                  if len(c.problem.map_vars) > 1]
    rng = random.Random(29)
    while len(cases) < 16:
        net = random_network(rng, rng.randint(5, 15), max_parents=3)
        problem = random_problem(rng, net)
        if len(problem.map_vars) > 1:
            cases.append((net, problem))
    return cases


def _capped_instance():
    """A component of three MAP variables (4, 5 and 10) whose site plan of
    5 needs a table of 72 entries on the shared order and 54 on its own
    min-fill order. Every other site plan needs 54 on either order, and so
    does the indicator plan, while the oracle's MAP-space elimination needs
    72. The network's other component is a lone MAP root."""
    net = random_network(random.Random(21), 20, max_parents=3, cards=(2, 3))
    problem = generate_problem(net, 4, 4, random.Random(21))
    return net, problem, max(prune(net, problem).components, key=lambda c: len(c.net))


# `conditional` on the largest component of the golden r120 problem (network
# seed 7, problem seed 0), each variable's context the evidence and every
# other MAP variable at state 0: the bits recorded when every site plan still
# ran its own min-fill order. The site records of these contexts, on the
# shared order, differ from them in their last bits.
_CONDITIONAL_BITS = {
    1: ("0x1.3ce5b0d818f02p-1", "0x1.86349e4fce1fcp-2"),
    12: ("0x1.5fec9f7e845a7p-1", "0x1.76a1b3320e610p-5", "0x1.11528a9cb57f0p-2"),
    58: ("0x1.7b21f119203cbp-1", "0x1.09bc1dcdbf86cp-2"),
}


class TestSharedSiteOrder:
    """A MAP problem's site plans are compiled on one order of its hidden
    variables (`shared_order` finds it from its definition); every other
    plan, `conditional`'s included, keeps its own min-fill order and its
    bits."""

    def test_site_widths_match_references(self):
        # on random graphs, against eliminating each site plan's own graph,
        # the scopes without the other MAP variables, by sets; on the site
        # plans of real problems, against the largest table each multiplies
        rng = random.Random(10)
        for _ in range(300):
            n = rng.randint(2, 30)
            scopes = [tuple(rng.sample(range(n), rng.randint(1, min(5, n))))
                      for _ in range(rng.randint(1, 30))]
            present = sorted(set().union(*scopes))
            map_vars = tuple(rng.sample(present, rng.randint(1, len(present))))
            order = [v for v in present if v not in map_vars]
            rng.shuffle(order)
            cards = [2 + v % 3 for v in range(n)]
            want = [max(cards[j], _reference_width(
                [tuple(u for u in sc if u == j or u not in map_vars) for sc in scopes],
                order, cards)) for j in map_vars]
            assert engine._site_widths(scopes, order, map_vars, cards) == want
        for net, problem in _site_cases():
            order = shared_order(net, problem)
            bound = frozenset(problem.evidence).union(problem.map_vars)
            scopes = [tuple(v for v in cpt.parents + (cpt.child,) if v not in problem.evidence)
                      for cpt in net.cpts]
            want = [max(net.cardinality(j), _reference_plan(net, (j,), bound - {j}, order)[3])
                    for j in problem.map_vars]
            cards = [v.cardinality for v in net.variables]
            assert engine._site_widths(scopes, order, problem.map_vars, cards) == want

    def test_site_plans_compile_on_one_order(self):
        for net, problem in _site_cases():
            order = shared_order(net, problem)
            bound = frozenset(problem.evidence).union(problem.map_vars)
            assert sorted(order) == sorted(set(range(len(net))) - bound)
            for j, plan in zip(problem.map_vars, engine._site_plans(net, problem)):
                site = bound - {j}
                assert net._plans[((j,), site, frozenset(), order)] is plan
                assert ((j,), site, frozenset()) not in net._plans
                got = (_tree(net, plan), plan.support,
                       sum(_entries(net, node) for node in _nodes(plan)),
                       max([math.prod(map(net.cardinality, node.scope)) for node in _nodes(plan)
                            if node.axis is not None], default=1))
                assert got == _reference_plan(net, (j,), site, order)

    def test_min_fill_runs_once_per_component(self, monkeypatch):
        calls = []
        real = engine._min_fill_order
        monkeypatch.setattr(engine, "_min_fill_order", lambda *a: calls.append(a) or real(*a))
        for net, problem in _site_cases():
            before = len(calls)
            engine._site_plans(net, problem)
            assert len(calls) == before + 1
        # an annealing solve orders each component's indicator plan, and then
        # all of its site plans at once if it runs a chain
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(7))
        comps = prune(net, problem).components
        calls.clear()
        solver.annealed_map(net, problem, rng=random.Random(1))
        chains = sum(len(c.problem.map_vars) > 1 for c in comps)
        assert chains
        assert len(calls) == 2 * chains + sum(len(c.problem.map_vars) == 1 < len(c.net)
                                              for c in comps)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 32)),
                                             max_size=8))
    def test_site_plans_do_not_depend_on_call_history(self, seed, calls):
        # site plans compiled before arbitrary `conditional` and `eliminate`
        # calls, after them, and on a network that has run nothing else have
        # the same node trees and give records of the same bits
        rng = random.Random(seed)
        net = _zeroed(random_network(rng, rng.randint(4, 14), max_parents=3), rng)
        problem = random_problem(rng, net)
        early, late, fresh = net, _rebuilt(net), _rebuilt(net)

        def history(target_net):
            for use_conditional, r in calls:
                draw = random.Random(r)
                j = draw.randrange(len(net))
                others = [v for v in range(len(net)) if v != j]
                context = {v: draw.randrange(net.cardinality(v))
                           for v in draw.sample(others, draw.randint(0, len(others)))}
                if use_conditional:
                    try:
                        conditional(target_net, j, context)
                    except ImpossibleContextError:
                        pass
                else:
                    eliminate(target_net, draw.choice(((), (j,))), context)

        want = engine._site_plans(fresh, problem)
        got_early = engine._site_plans(early, problem)
        for target_net in (early, late):
            history(target_net)
        got_late = engine._site_plans(late, problem)
        contexts = [{**problem.evidence, **{v: rng.randrange(net.cardinality(v))
                                            for v in problem.map_vars}} for _ in range(3)]
        for i, j in enumerate(problem.map_vars):
            for target_net, plans in ((early, got_early), (late, got_late)):
                assert _tree(target_net, plans[i]) == _tree(fresh, want[i])
                for context in contexts:
                    try:
                        site = engine._conditional(fresh, j, want[i], context)
                    except ImpossibleContextError:
                        with pytest.raises(ImpossibleContextError):
                            engine._conditional(target_net, j, plans[i], context)
                        continue
                    got = engine._conditional(target_net, j, plans[i], context)
                    assert got.dist.tobytes() == site.dist.tobytes()

    def test_conditional_keeps_its_own_order_and_bits(self):
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(0))
        for sites_first in (False, True):
            comp = max(prune(net, problem).components, key=lambda c: len(c.net))
            map_vars = comp.problem.map_vars
            plans = dict(zip(map_vars, engine._site_plans(comp.net, comp.problem)))
            for j, want in _CONDITIONAL_BITS.items():
                context = {**comp.problem.evidence, **{v: 0 for v in map_vars if v != j}}
                if sites_first:
                    site = engine._conditional(comp.net, j, plans[j], context)
                got = conditional(comp.net, j, context)
                assert [p.hex() for p in got.tolist()] == list(want)
                if not sites_first:
                    site = engine._conditional(comp.net, j, plans[j], context)
                assert site.dist.tobytes() != got.tobytes()
                plan = comp.net._plans[((j,), frozenset(context), frozenset())]
                assert _tree(comp.net, plan) == _reference_plan(comp.net, (j,),
                                                                frozenset(context))[0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
    def test_site_records_are_exact(self, seed, zeroed, protocol):
        # every record within 1e-12 of enumeration and of `conditional`, and
        # ImpossibleContextError raised exactly where `conditional` raises it
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(3, 9), max_parents=3)
        if zeroed:
            net = _zeroed(net, rng)
        if protocol:
            problem = random_problem(rng, net)
        else:
            map_vars = tuple(rng.sample(range(len(net)), rng.randint(1, min(4, len(net)))))
            rest = [v for v in range(len(net)) if v not in map_vars]
            sample = forward_sample(net, rng)
            problem = MapProblem(map_vars, Assignment(
                {v: sample[v] for v in rng.sample(rest, rng.randint(0, len(rest)))}))
        plans = engine._site_plans(net, problem)
        for _ in range(3):
            context = {**problem.evidence, **{v: rng.randrange(net.cardinality(v))
                                              for v in problem.map_vars}}
            for j, plan in zip(problem.map_vars, plans):
                without = {v: s for v, s in context.items() if v != j}
                exact = enum_conditional(net, j, without)
                try:
                    old = conditional(net, j, without)
                except ImpossibleContextError:
                    old = None
                try:
                    site = engine._conditional(net, j, plan, context)
                except ImpossibleContextError:
                    site = None
                assert (site is None) == (old is None) == (exact is None)
                if site is not None:
                    assert np.allclose(site.dist, exact, rtol=0.0, atol=1e-12)
                    assert np.allclose(site.dist, old, rtol=0.0, atol=1e-12)
        schedule = solver.AnnealSchedule(wait=3, stop=6)
        try:
            report = solver.annealed_map(net, problem, schedule, random.Random(seed),
                                         debug_check=True)
        except InconsistentEvidenceError:
            with pytest.raises(InconsistentEvidenceError):
                solver.gibbs_chain(net, problem, 5, random.Random(seed))
            return
        assert report.logp == pytest.approx(
            map_posterior(net, report.best, problem.evidence), abs=1e-9)
        for states in solver.gibbs_chain(net, problem, 20, random.Random(seed)):
            x = Assignment(zip(problem.map_vars, states))
            assert map_posterior(net, x, problem.evidence) > -math.inf

    def test_cap_falls_back_to_the_own_order(self, monkeypatch):
        net, problem, comp = _capped_instance()
        order = shared_order(comp.net, comp.problem)
        bound = frozenset(comp.problem.evidence).union(comp.problem.map_vars)
        assert comp.problem.map_vars == (4, 5, 10)
        assert [(_reference_plan(comp.net, (j,), bound - {j})[3],
                 _reference_plan(comp.net, (j,), bound - {j}, order)[3])
                for j in comp.problem.map_vars] == [(54, 54), (54, 72), (54, 54)]
        want = solver.brute_force_map(net, problem)
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 54)
        with pytest.raises(WidthCapError):
            solver.brute_force_map(net, problem)
        got = solver.annealed_map(net, problem, rng=random.Random(3), debug_check=True)
        assert got.best == want.best
        assert got.logp == pytest.approx(want.logp, abs=1e-9)
        plans = engine._site_plans(comp.net, comp.problem)
        keys = {id(plan): key for key, plan in comp.net._plans.items()}
        assert [keys[id(plan)] for plan in plans] == [
            ((4,), bound - {4}, frozenset(), order), ((5,), bound - {5}, frozenset()),
            ((10,), bound - {10}, frozenset(), order)]

    def test_cap_over_both_orders_raises_as_before(self, monkeypatch):
        # variable 4's site plan needs 54 entries on either order, so under a
        # cap of 53 the site plans raise the error its own min-fill plan
        # raises, before any array is built
        _, _, comp = _capped_instance()
        bound = frozenset(comp.problem.evidence).union(comp.problem.map_vars)
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 53)
        with pytest.raises(WidthCapError) as own:
            engine._plan(_rebuilt(comp.net), (4,), bound - {4})
        assert str(own.value) == "elimination needs a table of 54 entries (2^5.8), cap is 53"
        net = _rebuilt(comp.net)
        with pytest.raises(WidthCapError) as shared:
            engine._site_plans(net, comp.problem)
        assert str(shared.value) == str(own.value)
        assert not net._plans


class TestMapPosterior:
    def test_sprinkler(self, sprinkler, sprinkler_problem):
        x = Assignment({sprinkler.by_name("Sprinkler").id: 0,
                        sprinkler.by_name("Rain").id: 1})
        lp = map_posterior(sprinkler, x, sprinkler_problem.evidence)
        assert lp == pytest.approx(math.log(0.288 / SPRINKLER_PE), abs=1e-12)

    def test_single_root_prior(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.8 0.2 }\n")
        assert map_posterior(net, Assignment({0: 0}), Assignment()) == \
            pytest.approx(math.log(0.8), rel=1e-12)

    def test_zero_branch_minus_inf(self, sprinkler):
        x = Assignment({sprinkler.by_name("Sprinkler").id: 1,
                        sprinkler.by_name("Rain").id: 1})
        ev = Assignment({sprinkler.by_name("WetGrass").id: 0})
        assert map_posterior(sprinkler, x, ev) == -math.inf

    def test_inconsistent_evidence(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 1.0 0.0 }\ncpt B | A { 1.0 0.0 ; 0.5 0.5 }\n")
        with pytest.raises(InconsistentEvidenceError):
            map_posterior(net, Assignment({0: 0}), Assignment({1: 1}))

    def test_matches_enumeration(self):
        rng = random.Random(19)
        checked = 0
        while checked < 30:
            net = random_network(rng, rng.randint(2, 8))
            if joint_size(net) > 4096:
                continue
            checked += 1
            problem = random_problem(rng, net)
            x = Assignment({v: rng.randrange(net.cardinality(v))
                            for v in problem.map_vars})
            try:
                got = map_posterior(net, x, problem.evidence)
            except InconsistentEvidenceError:
                continue
            want = enum_map_posterior(net, x, problem.evidence)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_matches_two_eliminations(self):
        # ln p(E, x) - ln p(E) by two plain eliminations on a rebuilt network,
        # for x empty, x a subset of the non-evidence variables, and x moving
        # an evidence variable to another state; with and without ln p(E)
        # supplied, and by enumeration where the joint is small
        rng = random.Random(1616)
        checked = 0
        for i in range(60):
            net = random_network(rng, rng.randint(2, 9) if i < 45 else rng.randint(20, 40),
                                 max_parents=3)
            problem = random_problem(rng, net)
            evidence = problem.evidence
            free = [v for v in range(len(net)) if v not in evidence]
            xs = [Assignment(),
                  Assignment({v: rng.randrange(net.cardinality(v)) for v in problem.map_vars}),
                  Assignment({v: rng.randrange(net.cardinality(v))
                              for v in rng.sample(free, rng.randint(1, len(free)))})]
            if evidence:
                v, s = next(iter(evidence.items()))
                moved = Assignment({u: rng.randrange(net.cardinality(u))
                                    for u in rng.sample(free, rng.randint(0, len(free)))})
                moved[v] = (s + 1) % net.cardinality(v)
                xs.append(moved)
            ref = _rebuilt(net)
            log_pe = eliminate(ref, (), evidence).log_total()
            for x in xs:
                if log_pe == -math.inf:
                    with pytest.raises(InconsistentEvidenceError):
                        map_posterior(net, x, evidence)
                    continue
                want = eliminate(ref, (), {**evidence, **x}).log_total() - log_pe
                enum = (enum_map_posterior(net, x, evidence) if joint_size(net) <= 4096
                        else None)
                for got in (map_posterior(net, x, evidence),
                            map_posterior(net, x, evidence, log_pe)):
                    if want == -math.inf:
                        assert got == -math.inf
                        assert enum in (None, -math.inf)
                        continue
                    assert got == pytest.approx(want, rel=0.0, abs=1e-12)
                    if not x:  # no indicator bound: the plain ln p(E) plan
                        assert got == 0.0
                    if enum is not None:
                        assert got == pytest.approx(enum, abs=1e-9)
                    checked += 1
        assert checked > 300

    def test_full_map_assignment_scores_on_the_indicator_plan(self):
        rng = random.Random(1617)
        for _ in range(20):
            net = random_network(rng, rng.randint(4, 30), max_parents=3)
            problem = random_problem(rng, net)
            engine._indicator_plan(net, problem)
            plans = dict(net._plans)
            x = Assignment({v: rng.randrange(net.cardinality(v)) for v in problem.map_vars})
            try:
                map_posterior(net, x, problem.evidence)
            except InconsistentEvidenceError:
                pass
            assert net._plans == plans


class TestForwardSample:
    def test_deterministic_chain(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 1.0 0.0 }\ncpt B | A { 0.0 1.0 ; 0.5 0.5 }\n")
        rng = random.Random(4)
        for _ in range(20):
            s = forward_sample(net, rng)
            assert s[0] == 0 and s[1] == 1

    def test_root_frequency(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.8 0.2 }\n")
        rng = random.Random(99)
        n = 10000
        hits = sum(forward_sample(net, rng)[0] == 0 for _ in range(n))
        # 5-sigma band around 0.8 with sigma = sqrt(p(1-p)/n)
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert abs(hits / n - 0.8) < 5 * sigma

    def test_fixed_seed_reproducible(self, sprinkler):
        a = [tuple(map(forward_sample(sprinkler, random.Random(7)).__getitem__, (0, 1, 2)))
             for _ in range(5)]
        b = [tuple(map(forward_sample(sprinkler, random.Random(7)).__getitem__, (0, 1, 2)))
             for _ in range(5)]
        assert a == b

    def test_short_row_never_draws_impossible_state(self):
        # the row sums to 1 - 5e-7: a variate past that total falls to the
        # last state with mass, not to the last state, whose p is 0
        net = parse_network("network n\nvar A { a, b, c }\ncpt A { 0.4999995 0.5 0.0 }\n")

        class StubRng:
            draws = 0

            def random(self):
                self.draws += 1
                return 0.9999999

        rng = StubRng()
        assert forward_sample(net, rng)[0] == 1
        assert rng.draws == 1

    def test_kept_row_sums_draw_as_a_linear_scan(self):
        # repeated draws on a network, and on a pickled copy, which leaves
        # its compiled plans behind, are the states a linear scan of each
        # row gives for the same variates
        net = random_network(random.Random(11), 40, max_parents=3, cards=(2, 3, 4))

        def scan_sample(rng):
            out = {}
            for v in net.order():
                out[v] = scan_draw(net.cpts[v].table[net.row_index(v, out)], rng.random())
            return out

        for seed in (1, 2, 1):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert forward_sample(net, rng) == scan_sample(ref)
        copy = pickle.loads(pickle.dumps(net))
        assert not copy._plans
        rng, ref = random.Random(1), random.Random(1)
        for _ in range(200):
            assert forward_sample(copy, rng) == scan_sample(ref)


# entries that make zeros, tiny masses a running sum can absorb, and rows
# that sum to slightly less or more than 1 once normalised
_DRAW_ENTRY = st.one_of(st.just(0.0), st.sampled_from((5e-324, 1e-300, 1e-17, 0.1, 0.7)),
                        st.floats(0.0, 1.0))


@st.composite
def _draw_cases(draw):
    row = draw(st.lists(_DRAW_ENTRY, min_size=1, max_size=6).filter(any))
    if draw(st.booleans()):
        total = math.fsum(row)
        row = [p / total for p in row]
    sums = list(itertools.accumulate(row))
    at = draw(st.sampled_from(sums))  # a running sum, the total among them
    u = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(at),
                       st.just(math.nextafter(at, math.inf)),
                       st.floats(sums[-1], sums[-1] + 1.0)))
    return row, u


class TestDrawRule:
    """A draw bisects the running sums of `_running_sums`: the state a
    linear scan of the row gives, for forward sampling and site records."""

    @settings(max_examples=400, deadline=None)
    @given(_draw_cases())
    def test_bisect_matches_linear_scan(self, case):
        row, u = case
        want = scan_draw(row, u)
        assert row[want] > 0.0
        assert bisect.bisect_right(engine._running_sums(row), u) == want
        logs = tuple(math.log(p) if p > 0.0 else -math.inf for p in row)
        site = engine._Site(np.array(row), engine._running_sums(row), logs)
        assert bisect.bisect_right(site.cum, u) == want

    def test_edge_rows(self):
        # [0.1] * 10 and (0.7, 0.2, 0.1) sum to 1 - 2^-53; 1e-300 is lost
        # in the running sum but still has mass
        for row in ([0.1] * 10, [0.7, 0.2, 0.1, 0.0], [0.5, 0.0, 0.5], [0.0, 0.9, 1e-300],
                    [1.0], [0.0, 0.0, 1.0, 0.0]):
            sums = list(itertools.accumulate(row))
            for u in (0.0, *sums, *[math.nextafter(s, math.inf) for s in sums],
                      math.nextafter(1.0, 0.0)):
                assert bisect.bisect_right(engine._running_sums(row), u) == scan_draw(row, u)
        assert scan_draw([0.1] * 10, math.nextafter(1.0, 0.0)) == 9
        assert scan_draw([0.0, 0.9, 1e-300], 0.95) == 2


def _shuffled(net, rng):
    """The same network with its variable ids permuted at random, so that
    its topological order is not its id order."""
    new = list(range(len(net)))
    rng.shuffle(new)
    variables = sorted((Variable(new[v.id], v.name, v.states) for v in net.variables),
                       key=lambda v: v.id)
    cpts = [Cpt(new[c.child], tuple(new[p] for p in c.parents), c.table) for c in net.cpts]
    return BayesianNetwork(net.name, variables, cpts)


class TestPrune:
    def test_sprinkler_nothing_pruned(self, sprinkler, sprinkler_problem):
        pr = prune(sprinkler, sprinkler_problem)
        assert len(pr.components) == 1
        assert pr.dropped == ()
        assert len(pr.components[0].net) == 3

    def test_barren_cascade(self):
        net = parse_network(
            "network c\nvar A { t, f }\nvar B { t, f }\nvar C { t, f }\n"
            "cpt A { 0.3 0.7 }\ncpt B | A { 0.9 0.1 ; 0.2 0.8 }\n"
            "cpt C | B { 0.5 0.5 ; 0.4 0.6 }\n")
        pr = prune(net, MapProblem((0,), Assignment()))
        assert pr.dropped == (1, 2)
        assert len(pr.components) == 1
        assert pr.components[0].orig_ids == (0,)

    def test_component_without_map_var_discarded(self):
        net = parse_network(
            "network two\nvar A { t, f }\nvar B { t, f }\n"
            "var C { t, f }\nvar D { t, f }\n"
            "cpt A { 0.3 0.7 }\ncpt B | A { 0.9 0.1 ; 0.2 0.8 }\n"
            "cpt C { 0.6 0.4 }\ncpt D | C { 0.5 0.5 ; 0.1 0.9 }\n")
        problem = MapProblem((0,), Assignment({1: 0, 3: 0}))
        pr = prune(net, problem)
        assert len(pr.components) == 1
        assert pr.components[0].orig_ids == (0, 1)

    def test_map_vars_partition(self):
        rng = random.Random(55)
        for _ in range(20):
            net = random_network(rng, rng.randint(2, 12))
            problem = random_problem(rng, net)
            pr = prune(net, problem)
            seen = []
            for comp in pr.components:
                for v in comp.problem.map_vars:
                    seen.append(comp.orig_ids[v])
                comp_others = [c for c in pr.components if c is not comp]
                for other in comp_others:
                    assert not set(comp.orig_ids) & set(other.orig_ids)
            assert sorted(seen) == sorted(problem.map_vars)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_components_equal_constructed_networks(self, seed, protocol):
        # each component is assembled from its parent's checked parts; the
        # constructor, given the same variables and CPTs, builds the same
        # network, and so does a pickle round trip
        rng = random.Random(seed)
        net = _shuffled(random_network(rng, rng.randint(1, 14), max_parents=rng.randint(1, 3)),
                        rng)
        problem = (random_problem(rng, net) if protocol else
                   generate_problem(net, rng.randint(1, 4), rng.randint(0, 4), rng))
        for comp in prune(net, problem).components:
            remap = {old: new for new, old in enumerate(comp.orig_ids)}
            want = BayesianNetwork(
                net.name,
                [Variable(new, net.var(old).name, net.var(old).states)
                 for new, old in enumerate(comp.orig_ids)],
                [Cpt(new, tuple(remap[p] for p in net.parents(old)), net.cpts[old].table)
                 for new, old in enumerate(comp.orig_ids)])
            for got in (comp.net, pickle.loads(pickle.dumps(comp.net))):
                assert type(got) is BayesianNetwork and got.name == want.name
                assert got.variables == want.variables and got.cpts == want.cpts
                assert all(type(v) is Variable for v in got.variables)
                assert all(type(c) is Cpt for c in got.cpts)
                assert [got.children(v) for v in range(len(got))] == \
                    [want.children(v) for v in range(len(want))]
                assert got.order() == want.order()
                assert [got.by_name(v.name) for v in want.variables] == list(want.variables)
                assert got._cards == want._cards and got._scopes == want._scopes
                assert got._plans == {}
            assert comp.problem == MapProblem(comp.problem.map_vars, comp.problem.evidence)

    def test_component_product_equals_unpruned_posterior(self):
        rng = random.Random(61)
        checked = 0
        while checked < 25:
            net = random_network(rng, rng.randint(2, 10))
            if joint_size(net) > 4096:
                continue
            problem = random_problem(rng, net)
            x = Assignment({v: rng.randrange(net.cardinality(v))
                            for v in problem.map_vars})
            try:
                whole = map_posterior(net, x, problem.evidence)
            except InconsistentEvidenceError:
                continue
            checked += 1
            pr = prune(net, problem)
            parts = 0.0
            for comp in pr.components:
                remap = {orig: new for new, orig in enumerate(comp.orig_ids)}
                sub_x = Assignment({remap[v]: x[v] for v in problem.map_vars
                                    if v in remap})
                parts += map_posterior(comp.net, sub_x, comp.problem.evidence)
            if whole == -math.inf:
                assert parts == -math.inf
            else:
                assert parts == pytest.approx(whole, abs=1e-12)
