import itertools
import math
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
from netgen import (
    disjoint_union,
    enum_conditional,
    enum_factor,
    enum_map_posterior,
    joint_size,
    random_network,
    random_problem,
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
    ], ids=["cond-negative-state", "cond-state-too-high", "cond-unknown-var",
            "cond-unknown-target", "elim-negative-state", "elim-unknown-var",
            "elim-unknown-keep", "post-negative-state", "post-evidence-state",
            "post-unknown-var"])
    def test_context_outside_the_network_rejected(self, sprinkler, call):
        # a negative state would wrap around to the last one, an unknown
        # variable would be ignored or raise a bare KeyError or IndexError
        with pytest.raises(ValueError, match="not in network|out of range") as info:
            call(sprinkler)
        assert type(info.value) is ValueError

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
        rng = random.Random(77)
        for _ in range(20):
            net = random_network(rng, rng.randint(3, 9))
            keep = (rng.randrange(len(net)),)
            f_low = eliminate(net, keep, Assignment(), tie_break="low")
            f_high = eliminate(net, keep, Assignment(), tie_break="high")
            np.testing.assert_allclose(f_low.values, f_high.values, rtol=1e-12)


def _quadratic_min_fill_order(scopes, elim, tie_break):
    """Reference min-fill that rescans every remaining vertex at every step
    (the engine's implementation before fill scores were kept)."""
    adjacency = {}
    for scope in scopes:
        for v in scope:
            adjacency.setdefault(v, set())
        for a in scope:
            for b in scope:
                if a != b:
                    adjacency[a].add(b)
    remaining = set(elim)
    order = []
    while remaining:
        best_v, best_fill = -1, None
        candidates = sorted(remaining, reverse=(tie_break == "high"))
        for v in candidates:
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
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adjacency[nbrs[i]].add(nbrs[j])
                adjacency[nbrs[j]].add(nbrs[i])
        for u in nbrs:
            adjacency[u].discard(best_v)
        adjacency.pop(best_v, None)
        remaining.discard(best_v)
    return order


def _reference_plan(net, keep, bound, tie_break):
    """(select, bound, steps, perm, entries) of the plan `engine._plan`
    compiles, assembled as the engine did before it indexed live slots by
    variable: two scans of every live slot per eliminated variable, and
    each input's permutation and shape found by list searches."""
    cards = [v.cardinality for v in net.variables]
    scopes, select = [], []
    for cpt in net.cpts:
        full = cpt.parents + (cpt.child,)
        scopes.append(tuple(v for v in full if v not in bound))
        select.append(tuple(v if v in bound else -1 for v in full)
                      if len(scopes[-1]) < len(full) else None)
    elim = set(range(len(cards))) - set(keep) - bound
    order = _min_fill_order(scopes, elim, tie_break)

    live = list(range(len(scopes)))
    steps = []
    entries = 0
    scope = []
    for v in order + [None]:
        if v is None:
            related, live = live, []
        else:
            related = [s for s in live if v in scopes[s]]
            live = [s for s in live if v not in scopes[s]]
            if not related:
                continue
        scope = []
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
        shape = tuple(cards[u] for u in scope)
        entries += math.prod(shape) // (1 if v is None else cards[v])
        axis = None if v is None else scope.index(v)
        steps.append(engine._Step(tuple(related), tuple(perms), tuple(shapes), shape, axis))
        if v is not None:
            live.append(len(scopes))
            scopes.append(tuple(u for u in scope if u != v))
    return (tuple(select), tuple(sorted(bound)), tuple(steps),
            tuple(scope.index(v) for v in keep), entries)


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
            for tie_break in ("low", "high"):
                assert _min_fill_order(scopes, set(elim), tie_break) == \
                    _quadratic_min_fill_order(scopes, set(elim), tie_break)

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
            for tie_break in ("low", "high"):
                order = _min_fill_order(scopes, set(elim), tie_break)
                assert order == _quadratic_min_fill_order(scopes, set(elim), tie_break)
                fills = _fill_edges(scopes, order)
                several += sum(added >= 3 for added, _ in fills)
                shared += sum(s for _, s in fills)
        assert several >= 500 and shared >= 5000

    def test_unknown_tie_break_rejected(self, sprinkler):
        for tie_break in ("middle", "LOW", ""):
            with pytest.raises(ValueError, match="tie_break"):
                eliminate(sprinkler, (0,), Assignment(), tie_break=tie_break)
        assert not sprinkler._plans

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
            for tie_break in ("low", "high"):
                plan = engine._plan(net, keep, bound, tie_break)
                # the final node's support is the bound set; the nodes'
                # entries add up to the plan's
                got = (plan.select, plan.nodes[-1].support, plan.steps, plan.perm,
                       sum(node.entries for node in plan.nodes))
                assert got == _reference_plan(net, keep, bound, tie_break)

    def test_width_cap_raised_before_allocating(self):
        net, problem = _wide_instance()
        comp = max(prune(net, problem).components, key=lambda c: len(c.net))
        j, *rest = comp.problem.map_vars
        x = Assignment({v: 0 for v in comp.problem.map_vars})
        context = comp.problem.evidence.merged(Assignment({v: 0 for v in rest}))
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
    return engine._factor(engine._plan(net, tuple(keep), frozenset(evidence.keys()), "low"),
                          evidence)


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


def _evaluated(plan, context):
    """The plan's result for the context, computed step by step with no node
    reuse, each product started from ones in C order: the reference for the
    bits `engine._factor` gives."""
    slots = []
    for s, a in enumerate(plan.cpts.arrays):
        if s in plan.masks and s in context:
            a = plan.masks[s][context[s]]
        if plan.select[s] is not None:
            a = a[tuple(slice(None) if v < 0 else context[v] for v in plan.select[s])]
        slots.append((a, 0.0))
    for step in plan.steps:
        out, log_scale = np.ones(step.shape), 0.0
        for s, perm, shape in zip(step.slots, step.perms, step.shapes):
            a, scale = slots[s]
            log_scale += scale
            if perm is not None:
                a = a.transpose(perm)
            if shape is not None:
                a = a.reshape(shape)
            out = out * a
        m = float(out.max())
        if m > engine._RESCALE_HI or 0.0 < m < engine._RESCALE_LO:
            out = out / m
            log_scale += math.log(m)
        if step.axis is not None:
            out = out.sum(axis=step.axis)
        slots.append((out, log_scale))
    out, log_scale = slots[-1]
    return engine.Factor(plan.keep, np.array(out.transpose(plan.perm) if plan.keep else out,
                                             order="C"), log_scale)


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
            for tie_break in ("low", "high"):
                ev = {v: rng.randrange(net.cardinality(v)) for v in bound}
                lam = {}  # the bound indicators
                for _ in range(12):
                    move = rng.choice(("one", "none", "all"))
                    if move == "one":
                        v = rng.choice(bound)
                        ev[v] = (ev[v] + 1) % net.cardinality(v)
                    elif move == "all":
                        ev = {v: rng.randrange(net.cardinality(v)) for v in bound}
                    got = eliminate(net, keep, Assignment(ev), tie_break)
                    want = eliminate(_rebuilt(net), keep, Assignment(ev), tie_break)
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
                    got = engine._factor(engine._plan(net, keep, frozenset(bound), tie_break,
                                                      indicators), context)
                    want = engine._factor(engine._plan(_rebuilt(net), keep, frozenset(bound),
                                                       tie_break, indicators), context)
                    _same_bits(got, want)
                    # a bound indicator selects its state as evidence would
                    plain = eliminate(net, keep, context, tie_break)
                    assert np.allclose(got.values * math.exp(got.log_scale),
                                       plain.values * math.exp(plain.log_scale),
                                       rtol=1e-12, atol=0.0)
                for ind in (frozenset(), indicators):
                    plan = net._plans[(keep, frozenset(bound), ind, tie_break)]
                    assert all(node.keeps and node.values is not None for node in plan.nodes)
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
            # the same steps as the plain plan, which the indicators leave as they are
            assert plan.steps == engine._plan(net, (), frozenset(ev.keys()), "low").steps
            for y in ({}, {v: 0 for v in problem.map_vars}, {problem.map_vars[0]: 1}, {}):
                context = ev.merged(Assignment(y))
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
            plan = net._plans[(keep, frozenset(ev.keys()), frozenset(), "low")]
            kept = [node.output for node in plan.nodes]
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
                plan = engine._plan(net, keep, frozenset(bound), "low", indicators)
                for _ in range(2):
                    context = forward_sample(net, rng).restricted(
                        bound + rng.sample(sorted(indicators), rng.randint(0, len(indicators))))
                    _same_bits(engine._factor(plan, context), _evaluated(plan, context))

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
        assert not net._plans[((0,), frozenset(), frozenset(), "low")].nodes[-1].keeps

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
        assert sum(node.entries for node in kept) == net._plans[engine._CPTS].retained <= budget
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
                ev_call.set(v, net.cardinality(v) + draw.randrange(3))
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
            contexts[j] = comp.problem.evidence.merged(x)
            contexts[j].discard(j)
            plan = engine._plan(comp.net, (j,), frozenset(contexts[j].keys()), "low")
            # every site plan after the first finds nodes held by the others
            held = sum(node.values is not None for node in plan.nodes)
            assert (held > 0) == bool(plans)
            conditional(comp.net, j, contexts[j])
            plans.append(plan)
        steps = sum(len(plan.nodes) for plan in plans)
        assert 2 * len(comp.net._plans[engine._CPTS].nodes) < steps
        # a repeat call at unchanged values recomputes no node
        outputs = [[node.output for node in plan.nodes] for plan in plans]
        for j, plan, before in zip(contexts, plans, outputs):
            want = conditional(_rebuilt(comp.net), j, contexts[j])
            assert conditional(comp.net, j, contexts[j]).tobytes() == want.tobytes()
            assert all(node.output is out for node, out in zip(plan.nodes, before))
        # after one MAP variable changes, only nodes that read it run again
        m, j = comp.problem.map_vars[:2]
        contexts[j].set(m, 1)
        plan = plans[1]
        before = [node.output for node in plan.nodes]
        want = conditional(_rebuilt(comp.net), j, contexts[j])
        assert conditional(comp.net, j, contexts[j]).tobytes() == want.tobytes()
        rerun = [node.output is not out for node, out in zip(plan.nodes, before)]
        assert 0 < sum(rerun) < len(rerun)
        assert all(m in node.support for node, r in zip(plan.nodes, rerun) if r)

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


class TestConditional:
    def test_sprinkler_rain_given_wet(self, sprinkler, sprinkler_problem):
        rain = sprinkler.by_name("Rain").id
        dist = conditional(sprinkler, rain, sprinkler_problem.evidence)
        assert dist == pytest.approx([SPRINKLER_F_R[0] / SPRINKLER_PE,
                                      SPRINKLER_F_R[1] / SPRINKLER_PE], rel=1e-12)

    def test_empty_context_reads_prior(self, sprinkler):
        dist = conditional(sprinkler, sprinkler.by_name("Rain").id, Assignment())
        assert dist == pytest.approx([0.2, 0.8], rel=1e-12)

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
            a, b = (forward_sample(net, rng).restricted(bound) for _ in range(2))
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


def _memo_calls(seed, calls):
    """Interleaved `solver._site` and `conditional` calls on one network with
    zeros in its CPTs, each checked against a rebuilt network; returns how
    many calls repeated an earlier context and how many had probability
    zero. Each call draws its site from `pick` and, by `move`, first keeps
    x, moves another site or returns to an earlier x."""
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
        j, final = map_vars[i], plans[i].nodes[-1]
        if move == "other":
            v = draw.choice(map_vars)
            x[v] = draw.randrange(net.cardinality(v))
        elif move == "back":
            x = dict(draw.choice(history))
        history.append(dict(x))
        context = ev.merged(Assignment(x))
        context.discard(j)
        key = (j, tuple(sorted(context.items())))
        repeats += key in seen
        seen.add(key)

        def call():
            if via_site:
                full = ev.merged(Assignment(x))
                site = solver._site(net, j, full, plans[i])
                assert full == context  # j unbound
                return site
            return conditional(net, j, context)

        values = context.states(final.support)
        try:
            want = conditional(_rebuilt(net), j, context)
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
            assert [p.hex() for p in got.probs] == [p.hex() for p in probs]
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

    def test_memo_stops_growing_at_the_budget(self, monkeypatch):
        net = random_network(random.Random(151), 12, max_parents=3, cards=(2,))
        problem = random_problem(random.Random(152), net)
        configs = [dict(zip(problem.map_vars, states)) for states in
                   itertools.product((0, 1), repeat=len(problem.map_vars))]
        contexts = []
        for x in configs:
            for j in problem.map_vars:
                context = problem.evidence.merged(Assignment(x))
                context.discard(j)
                contexts.append((j, context))
        want = [conditional(_rebuilt(net), j, context).tobytes() for j, context in contexts]
        schedule = solver.AnnealSchedule(wait=3, stop=6)
        anneal = solver.annealed_map(_rebuilt(net), problem, schedule, random.Random(3),
                                     restarts=3, collect_trace=True)

        plans = engine._site_plans(net, problem)
        finals = [plan.nodes[-1] for plan in plans]
        cpts = net._plans[engine._CPTS]
        nodes_kept = cpts.retained
        # room for a few records: each counts its 3 * 2 values and its key
        budget = nodes_kept + 3 * (3 * 2 + len(finals[0].support))
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", budget)
        sizes = []
        for _ in range(2):  # the second pass finds the memo full
            for (j, context), dist in zip(contexts, want):
                assert conditional(net, j, context).tobytes() == dist
            sizes.append([len(node.memo) for node in finals])
        assert sizes[0] == sizes[1]
        assert 0 < sum(sizes[0]) < len(contexts)
        assert cpts.retained == nodes_kept + sum(
            len(node.memo) * (3 * 2 + len(node.support)) for node in finals) <= budget
        # a solve under a budget that keeps hardly anything gives the same run
        monkeypatch.setattr(engine, "MAX_TABLE_ENTRIES", 16)
        assert solver.annealed_map(_rebuilt(net), problem, schedule, random.Random(3),
                                   restarts=3, collect_trace=True) == anneal


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
        a = [forward_sample(sprinkler, random.Random(7)).as_tuple((0, 1, 2))
             for _ in range(5)]
        b = [forward_sample(sprinkler, random.Random(7)).as_tuple((0, 1, 2))
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
