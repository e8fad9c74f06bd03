import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amap import (
    AnnealSchedule,
    Assignment,
    BayesianNetwork,
    Cpt,
    ImpossibleContextError,
    InconsistentEvidenceError,
    MapProblem,
    OracleCapError,
    acceptance_probability,
    annealed_map,
    brute_force_map,
    eliminate,
    geometric_cool,
    gibbs_chain,
    hill_climb_map,
    map_posterior,
    parse_network,
    prune,
    reheat_temperature,
    sequential_init,
    specific_heat,
    Variable,
)
from amap import engine, solver
from amap.cli import generate_problem
from amap.engine import PrunedNetwork, _sample_index
from netgen import disjoint_union, enum_best, joint_size, random_network, random_problem


def _reference_site(net, j, x, evidence):
    """p(x_j | E, x without j) computed from scratch: E and x merged into a
    new context, eliminated on a freshly built network, then normalised."""
    context = evidence.merged(x)
    context.discard(j)
    f = eliminate(BayesianNetwork(net.name, net.variables, net.cpts), (j,), context)
    if f.total() <= 0.0:
        raise ImpossibleContextError("context has probability zero")
    return f.values / f.total()


def _reference_kernel(net, j, context, plan):
    """solver._site's contract on top of _reference_site, which does not
    read `plan`: the caller's context, E together with x, is copied, j is
    left unbound in it, and the conditional comes back as a site record
    whose floats and logs are computed here."""
    dist = _reference_site(net, j, context, Assignment())
    context.discard(j)
    probs = tuple(dist.tolist())
    return engine._Site(dist, probs, tuple(math.log(p) if p > 0.0 else -math.inf
                                           for p in probs))


class TestAcceptanceProbability:
    def test_always_one_at_unit_temperature(self):
        rng = random.Random(1)
        for _ in range(100):
            a, b = -10 * rng.random(), -10 * rng.random()
            assert acceptance_probability(1.0, a, b) == 1.0

    def test_improving_ratio_clamps_to_one(self):
        # exponent (1/0.5 - 1) = 1, ratio 9 -> 1.0
        assert acceptance_probability(0.5, math.log(0.9), math.log(0.1)) == 1.0

    def test_worsening_ratio(self):
        a = acceptance_probability(0.5, math.log(0.1), math.log(0.9))
        assert a == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_infinite_cases(self):
        assert acceptance_probability(0.5, math.log(0.3), -math.inf) == 1.0
        assert acceptance_probability(0.5, -math.inf, math.log(0.3)) == 0.0
        assert acceptance_probability(0.5, -math.inf, -math.inf) == 1.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            acceptance_probability(0.0, -1.0, -2.0)


class TestScheduleArithmetic:
    def test_paper_default_first_step(self):
        assert geometric_cool(0.99, 0.8) == pytest.approx(0.792, rel=1e-12)

    def test_floor(self):
        assert geometric_cool(1e-6, 0.8, t_min=1e-6) == 1e-6

    def test_twice(self):
        assert geometric_cool(geometric_cool(1.0, 0.5), 0.5) == pytest.approx(0.25)

    @given(st.floats(1e-6, 1.0), st.floats(0.01, 0.99), st.floats(1e-9, 1e-3))
    def test_cool_closed_form(self, t, alpha, t_min):
        assert geometric_cool(t, alpha, t_min) == max(alpha * t, t_min)

    def test_specific_heat_examples(self):
        assert specific_heat([1.0, 2.0, 3.0], 0.5) == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert specific_heat([5.0, 5.0, 5.0], 0.3) == 0.0
        assert specific_heat([0.0, 2.0], 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_specific_heat_empty_rejected(self):
        with pytest.raises(ValueError):
            specific_heat([], 0.5)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
           st.floats(1e-3, 1.0))
    def test_specific_heat_closed_form(self, costs, t):
        mean = sum(costs) / len(costs)
        var = sum((c - mean) ** 2 for c in costs) / len(costs)
        got = specific_heat(costs, t)
        assert got == pytest.approx(var / t ** 2, rel=1e-12, abs=1e-300)

    def test_reheat_examples(self):
        assert reheat_temperature(2.0, 0.3, 0.1, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert reheat_temperature(0.0, 0.3, 0.1, 1.0) == 0.3
        assert reheat_temperature(47.0, 0.3, 0.1, 0.99) == 0.99  # clamp at t0

    @given(st.floats(0.0, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.01, 1.0))
    def test_reheat_closed_form(self, c_b, t_ch, k, t0):
        assert reheat_temperature(c_b, t_ch, k, t0) == min(t0, k * c_b + t_ch)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(alpha=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(t0=1.5)
        with pytest.raises(ValueError):
            AnnealSchedule(wait=30, stop=20)
        with pytest.raises(ValueError):
            AnnealSchedule(k=-0.1)


class TestSequentialInit:
    def test_sprinkler(self, sprinkler, sprinkler_problem):
        # p(R|W=t) favors f; then p(S|R=f,W=t) favors t
        init = sequential_init(sprinkler, sprinkler_problem)
        assert init[sprinkler.by_name("Rain").id] == 1
        assert init[sprinkler.by_name("Sprinkler").id] == 0

    def test_single_root_prior_argmax(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.2 0.8 }\n")
        init = sequential_init(net, MapProblem((0,), Assignment()))
        assert init[0] == 1

    def test_uniform_tie_breaks_low(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.5 0.5 }\n")
        init = sequential_init(net, MapProblem((0,), Assignment()))
        assert init[0] == 0

    def test_inconsistent_evidence(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 1.0 0.0 }\ncpt B | A { 1.0 0.0 ; 0.5 0.5 }\n")
        with pytest.raises(InconsistentEvidenceError):
            sequential_init(net, MapProblem((0,), Assignment({1: 1})))


class TestBruteForce:
    def test_sprinkler(self, sprinkler, sprinkler_problem):
        report = brute_force_map(sprinkler, sprinkler_problem)
        assert report.best[sprinkler.by_name("Sprinkler").id] == 0
        assert report.best[sprinkler.by_name("Rain").id] == 1
        assert math.exp(report.logp) == pytest.approx(0.288 / 0.44838, rel=1e-12)

    def test_single_variable(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.2 0.8 }\n")
        report = brute_force_map(net, MapProblem((0,), Assignment()))
        assert report.best[0] == 1

    def test_deterministic_net(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 1.0 0.0 }\ncpt B | A { 0.0 1.0 ; 0.5 0.5 }\n")
        report = brute_force_map(net, MapProblem((0, 1), Assignment()))
        assert report.best.as_tuple((0, 1)) == (0, 1)
        assert report.logp == pytest.approx(0.0, abs=1e-12)

    def test_cap(self, sprinkler, sprinkler_problem):
        with pytest.raises(OracleCapError, match="cap is 2"):
            brute_force_map(sprinkler, sprinkler_problem, cap=2)

    def test_cap_applies_per_component(self):
        # two disconnected components, each with 3 binary MAP roots and one
        # observed child: 2^3 = 8 configurations each, 64 in all
        rng = random.Random(3)
        variables, cpts = [], []
        for base in (0, 4):
            for i in range(base, base + 3):
                variables.append(Variable(i, f"m{i}", ("t", "f")))
                p = rng.uniform(0.2, 0.8)
                cpts.append(Cpt(i, (), ((p, 1.0 - p),)))
            variables.append(Variable(base + 3, f"e{base}", ("t", "f")))
            rows = [(p, 1.0 - p) for p in (rng.uniform(0.05, 0.95) for _ in range(8))]
            cpts.append(Cpt(base + 3, (base, base + 1, base + 2), tuple(rows)))
        net = BayesianNetwork("two", variables, cpts)
        problem = MapProblem((0, 1, 2, 4, 5, 6), Assignment({3: 0, 7: 1}))
        report = brute_force_map(net, problem, cap=8)
        want_states, want_lp = enum_best(net, problem)
        assert report.best.as_tuple(problem.map_vars) == want_states
        assert report.logp == pytest.approx(want_lp, abs=1e-9)
        with pytest.raises(OracleCapError, match="has 8 configurations, cap is 7"):
            brute_force_map(net, problem, cap=7)

    def test_agrees_with_full_enumeration(self):
        rng = random.Random(101)
        checked = 0
        while checked < 30:
            net = random_network(rng, rng.randint(2, 8))
            if joint_size(net) > 4096:
                continue
            problem = random_problem(rng, net)
            try:
                report = brute_force_map(net, problem)
            except InconsistentEvidenceError:
                continue
            checked += 1
            want_states, want_lp = enum_best(net, problem)
            assert report.best.as_tuple(problem.map_vars) == want_states
            assert report.logp == pytest.approx(want_lp, abs=1e-9)


class TestAnnealedMap:
    def test_single_variable_exact(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.2 0.8 }\n")
        report = annealed_map(net, MapProblem((0,), Assignment()),
                              rng=random.Random(3))
        assert report.best[0] == 1
        assert report.logp == pytest.approx(math.log(0.8), rel=1e-12)

    def test_sprinkler_matches_oracle(self, sprinkler, sprinkler_problem):
        report = annealed_map(sprinkler, sprinkler_problem,
                              rng=random.Random(7), debug_check=True)
        oracle = brute_force_map(sprinkler, sprinkler_problem)
        assert report.best.as_tuple(sprinkler_problem.map_vars) == \
            oracle.best.as_tuple(sprinkler_problem.map_vars)
        assert report.logp == pytest.approx(oracle.logp, abs=1e-9)

    def test_determinism(self, sprinkler, sprinkler_problem):
        runs = []
        for _ in range(2):
            r = annealed_map(sprinkler, sprinkler_problem,
                             rng=random.Random(42), restarts=3,
                             collect_trace=True)
            runs.append((r.best.as_tuple(sprinkler_problem.map_vars), r.logp,
                         r.sweeps, r.reheats, r.best_found_sweep,
                         [(t.sweep, t.temperature, t.current_logp, t.best_logp)
                          for t in r.trace]))
        assert runs[0] == runs[1]

    def test_best_logp_non_decreasing_and_temperature_bounds(
            self, sprinkler, sprinkler_problem):
        sched = AnnealSchedule()
        r = annealed_map(sprinkler, sprinkler_problem, sched,
                         rng=random.Random(5), collect_trace=True)
        last_best = -math.inf
        for row in r.trace:
            assert row.best_logp >= last_best
            assert sched.t_min <= row.temperature <= sched.t0
            assert row.best_logp >= row.current_logp - 1e-12
            last_best = row.best_logp

    def test_temperature_trace_geometric_or_reheat(self):
        rng = random.Random(2)
        net = random_network(rng, 9)
        problem = random_problem(rng, net)
        sched = AnnealSchedule()
        r = annealed_map(net, problem, sched, rng=random.Random(8),
                         collect_trace=True, debug_check=True)
        by_run = {}
        for row in r.trace:
            by_run.setdefault((row.component, row.restart), []).append(row)
        for rows in by_run.values():
            for prev, cur in zip(rows, rows[1:]):
                cooled = max(sched.alpha * prev.temperature, sched.t_min)
                is_cool = cur.temperature == pytest.approx(cooled, rel=1e-12)
                is_reheat = cur.temperature > prev.temperature or \
                    cur.temperature == sched.t0
                assert is_cool or is_reheat

    def test_small_corpus_matches_oracle(self):
        rng = random.Random(500)
        hits, total = 0, 0
        while total < 15:
            net = random_network(rng, rng.randint(5, 10), cards=(2, 2))
            problem = random_problem(rng, net)
            try:
                oracle = brute_force_map(net, problem)
            except InconsistentEvidenceError:
                continue
            total += 1
            report = annealed_map(net, problem, rng=random.Random(total),
                                  restarts=3, debug_check=True)
            if report.best.as_tuple(problem.map_vars) == \
                    oracle.best.as_tuple(problem.map_vars):
                hits += 1
        assert hits >= 14

    def test_inconsistent_evidence(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 1.0 0.0 }\ncpt B | A { 1.0 0.0 ; 0.5 0.5 }\n")
        with pytest.raises(InconsistentEvidenceError):
            annealed_map(net, MapProblem((0,), Assignment({1: 1})))


class TestGibbsChain:
    def test_visits_follow_conditional_support(self, sprinkler, sprinkler_problem):
        chain = gibbs_chain(sprinkler, sprinkler_problem, 500, random.Random(6))
        assert len(chain) == 500
        # (S=f, R=f) has zero posterior mass given W=t and must never appear
        assert (1, 1) not in set(chain)

    def test_same_chain_as_reference_sites(self, sprinkler, sprinkler_problem):
        chain = gibbs_chain(sprinkler, sprinkler_problem, 300, random.Random(8))
        rng = random.Random(8)
        x = sequential_init(sprinkler, sprinkler_problem)
        want = []
        for _ in range(300):
            for j in sprinkler_problem.map_vars:
                rng.random()
                dist = _reference_site(sprinkler, j, x, sprinkler_problem.evidence)
                x.set(j, _sample_index(dist.tolist(), rng))
            want.append(x.as_tuple(sprinkler_problem.map_vars))
        assert chain == want


def _reference_init(net, problem):
    """sequential_init from scratch: each MAP variable in topological order
    takes the lowest-index argmax of its exact conditional given E and the
    choices before it, on a rebuilt network."""
    x = Assignment()
    for v in net.order():
        if v in problem.map_vars:
            dist = _reference_site(net, v, x, problem.evidence).tolist()
            x.set(v, dist.index(max(dist)))
    return x


def _reference_climb(net, problem):
    """hill_climb_map from scratch: on each pruned component, from
    _reference_init, every single flip scored with map_posterior on a
    rebuilt network; the best strict gain moves, the first in map-variable,
    then state, order on ties."""
    total = solver.SolveReport(best=Assignment(), logp=0.0)
    for comp in prune(net, problem).components:
        evidence, map_vars = comp.problem.evidence, comp.problem.map_vars
        x = _reference_init(comp.net, comp.problem)

        def score(y):
            return map_posterior(BayesianNetwork(net.name, comp.net.variables, comp.net.cpts),
                                 y, evidence)

        here = score(x)
        while True:
            best_move, best_score = None, here
            for j in map_vars:
                for s in range(comp.net.cardinality(j)):
                    if s != x[j]:
                        y = x.copy()
                        y.set(j, s)
                        flip = score(y)
                        if flip > best_score:
                            best_move, best_score = (j, s), flip
            if best_move is None:
                break
            x.set(*best_move)
            here = best_score
            total.sweeps += 1
        total.best = total.best.merged(comp.to_original(x))
        total.logp += map_posterior(comp.net, x, evidence)
    return total


def _site_context_runs():
    rng = random.Random(21)
    runs = []
    for seed in range(4):
        net = random_network(rng, rng.randint(8, 12), max_parents=3)
        runs.append((net, random_problem(rng, net), seed))
    return runs


class TestSiteContext:
    """Solvers that keep their site context in step with x give the runs
    that recomputing every site from scratch gives: anneal through the
    reference site kernel, and sequential init and hill climbing, which
    score on the indicator plan, against references that score every state
    and move on a rebuilt network."""

    def test_anneal_and_hill_climb_match_reference_kernel(self, monkeypatch):
        runs = _site_context_runs()

        def anneal_all():
            # debug_check re-scores x exactly after every sweep
            return [annealed_map(net, problem, rng=random.Random(seed), restarts=2,
                                 collect_trace=True, debug_check=True)
                    for net, problem, seed in runs]

        got = anneal_all()
        monkeypatch.setattr(solver, "_site", _reference_kernel)
        want = anneal_all()
        assert got == want
        assert all(r.trace for r in got)
        for net, problem, _ in runs:
            assert hill_climb_map(net, problem) == _reference_climb(net, problem)

    def test_init_and_hill_climb_match_references_on_fixtures(
            self, sprinkler, sprinkler_problem, trap_net, trap_problem):
        # and on benchmark-style nets where hill climbing moves
        cases = [(sprinkler, sprinkler_problem), (trap_net, trap_problem)]
        for seed, n_vars, n_map, n_evid in ((82, 30, 6, 10), (224, 20, 4, 6), (93, 60, 12, 20)):
            net = random_network(random.Random(seed), n_vars, max_parents=3, cards=(2, 3))
            cases.append((net, generate_problem(net, n_map, n_evid, random.Random(seed + 1))))
        climbed = 0
        for net, problem in cases:
            r = hill_climb_map(net, problem)
            assert r == _reference_climb(net, problem)
            climbed += r.sweeps
        assert climbed >= 4
        for net, problem in cases + [(net, problem) for net, problem, _ in _site_context_runs()]:
            assert sequential_init(net, problem) == _reference_init(net, problem)

    def test_plans_compiled_per_component(self, monkeypatch):
        # hill climbing: the indicator plan and map_posterior's joint plan;
        # anneal: those and one site plan per MAP variable
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(7))
        for k in range(len(prune(net, problem).components)):
            for climb in (True, False):
                comp = prune(net, problem).components[k]
                monkeypatch.setattr(solver, "prune", lambda n, p: PrunedNetwork((comp,), ()))
                if climb:
                    hill_climb_map(net, problem)
                    want = 2
                else:
                    annealed_map(net, problem, rng=random.Random(k), restarts=2)
                    want = len(comp.problem.map_vars) + 2
                assert len([key for key in comp.net._plans if key != engine._CPTS]) == want


class TestHillClimb:
    def test_single_variable(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.2 0.8 }\n")
        r = hill_climb_map(net, MapProblem((0,), Assignment()))
        assert r.best[0] == 1

    def test_sprinkler(self, sprinkler, sprinkler_problem):
        r = hill_climb_map(sprinkler, sprinkler_problem)
        oracle = brute_force_map(sprinkler, sprinkler_problem)
        assert r.best.as_tuple(sprinkler_problem.map_vars) == \
            oracle.best.as_tuple(sprinkler_problem.map_vars)

    def test_local_maximum_under_exact_scoring(self):
        # moves are ranked from site conditionals; the answer must still be
        # a local maximum of exact ln p(x|E) and report its exact score
        rng = random.Random(808)
        for _ in range(20):
            net = random_network(rng, rng.randint(6, 10), max_parents=2)
            problem = random_problem(rng, net)
            r = hill_climb_map(net, problem)
            here = map_posterior(net, r.best, problem.evidence)
            for j in problem.map_vars:
                for s in range(net.cardinality(j)):
                    if s != r.best[j]:
                        flip = r.best.copy()
                        flip.set(j, s)
                        assert map_posterior(net, flip, problem.evidence) <= here
            exact = 0.0
            for comp in prune(net, problem).components:
                sub = Assignment({v: r.best[comp.orig_ids[v]]
                                  for v in comp.problem.map_vars})
                exact += map_posterior(comp.net, sub, comp.problem.evidence)
            assert r.logp == exact
            assert r.logp == pytest.approx(here, abs=1e-9)


class TestComponentPipeline:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_scores_add_up_over_components(self, seed, restarts):
        rng = random.Random(seed)
        net = disjoint_union(*(random_network(rng, rng.randint(2, 4)) for _ in range(2)))
        problem = random_problem(rng, net)
        components = prune(net, problem).components
        assert len(components) >= 2

        def parts(best):
            return [map_posterior(c.net, Assignment({v: best[c.orig_ids[v]]
                                                     for v in c.problem.map_vars}),
                                  c.problem.evidence)
                    for c in components]

        oracle = brute_force_map(net, problem)
        want, want_logp = enum_best(net, problem)
        assert oracle.best.as_tuple(problem.map_vars) == want
        assert oracle.logp == pytest.approx(want_logp, abs=1e-9)
        # the oracle scores from its kept table, not with map_posterior
        assert oracle.logp == pytest.approx(sum(parts(oracle.best)), abs=1e-9)
        for r in (annealed_map(net, problem, rng=random.Random(seed), restarts=restarts),
                  hill_climb_map(net, problem)):
            assert r.logp == sum(parts(r.best))
            assert r.logp <= oracle.logp + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 59), st.integers(0, 2 ** 32))
    def test_trace_numbers_sweeps_across_components_and_restarts(self, seed, anneal_seed):
        rng = random.Random(seed)
        net = random_network(rng, 14)
        problem = random_problem(rng, net)
        components = prune(net, problem).components
        assume(len(components) > 1)
        r = annealed_map(net, problem, rng=random.Random(anneal_seed), restarts=3,
                         collect_trace=True)
        assert [row.sweep for row in r.trace] == list(range(1, r.sweeps + 1))
        runs = [(row.component, row.restart) for row in r.trace]
        assert runs == sorted(runs)
        assert set(runs) == {(c, k) for c in range(len(components)) for k in range(3)}
        assert 0 <= r.best_found_sweep <= r.sweeps


class TestLocalOptimumInstance:
    """The crafted two-root network where greedy search gets trapped."""

    def test_instance_shape(self, trap_net, trap_problem):
        # verify by enumeration: (a0,b0) is a strict local optimum,
        # (a1,b1) the global one
        from netgen import enum_factor
        f = enum_factor(trap_net, trap_problem.map_vars, trap_problem.evidence)
        assert f[(0, 0)] == pytest.approx(0.30, rel=1e-4)
        assert f[(1, 1)] == pytest.approx(0.32, rel=1e-4)
        assert f[(0, 1)] < f[(0, 0)] and f[(1, 0)] < f[(0, 0)]
        assert f[(1, 1)] > f[(0, 0)]

    def test_hill_climb_trapped(self, trap_net, trap_problem):
        r = hill_climb_map(trap_net, trap_problem)
        assert r.best.as_tuple(trap_problem.map_vars) == (0, 0)

    def test_anneal_escapes(self, trap_net, trap_problem):
        oracle = brute_force_map(trap_net, trap_problem)
        assert oracle.best.as_tuple(trap_problem.map_vars) == (1, 1)
        hits = 0
        for seed in range(40):
            r = annealed_map(trap_net, trap_problem, rng=random.Random(seed),
                             restarts=5)
            if r.best.as_tuple(trap_problem.map_vars) == (1, 1):
                hits += 1
        assert hits >= 36


class TestTrackingIdentity:
    def test_tracked_logp_matches_exact_each_sweep(self):
        rng = random.Random(300)
        for i in range(10):
            net = random_network(rng, rng.randint(4, 9))
            problem = random_problem(rng, net)
            try:
                # debug_check recomputes ln p(x|E) after every sweep and
                # raises if the incremental value drifts past 1e-6
                annealed_map(net, problem, rng=random.Random(i),
                             restarts=2, debug_check=True)
            except InconsistentEvidenceError:
                continue
