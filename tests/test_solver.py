import math
import random
import resource

import numpy as np
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
    acceptance_probability,
    annealed_map,
    brute_force_map,
    conditional,
    eliminate,
    forward_sample,
    geometric_cool,
    gibbs_chain,
    hill_climb_map,
    map_posterior,
    parse_network,
    parse_problem,
    prune,
    reheat_temperature,
    sequential_init,
    specific_heat,
    Variable,
    WidthCapError,
)
from amap import engine, solver
from amap.cli import generate_problem
from amap.engine import PrunedNetwork
from conftest import (DISCARDED_ZERO_PROBLEM_TEXT, DISCARDED_ZERO_TEXT,
                      ZERO_EVIDENCE_PROBLEM_TEXT, ZERO_EVIDENCE_TEXT, reference_site)
from netgen import (chain_network, coupled_chain_network, coupled_chain_problem, disjoint_union,
                    enum_best, joint_size, random_network, random_problem, relabelled, scan_draw)


def _reference_site(net, j, x, evidence):
    """p(x_j | E, x without j) computed from scratch: E and x merged into a
    new context, eliminated on a freshly built network on `eliminate`'s
    min-fill order, then normalised; x may bind any of the MAP variables, as
    the greedy start's prefixes do."""
    context = {**evidence, **x}
    context.pop(j, None)
    f = eliminate(BayesianNetwork(net.name, net.variables, net.cpts), (j,), context)
    if f.total() <= 0.0:
        raise ImpossibleContextError("context has probability zero")
    return f.values / f.total()


def _reference_kernel(problems, net, j, plan, context):
    """The site update's contract on top of `reference_site`, which does not
    read `plan`: the caller's context, E together with x, still binds j,
    which is dropped before computing, and the conditional comes back as a
    site record whose floats and logs are computed here. `problems` maps
    each component network, by id, to its MAP problem. It fills no memo, so
    a chain that reads the memo first still calls it at every site."""
    assert j in context
    dist = reference_site(net, problems[id(net)], j, context)
    probs = tuple(dist.tolist())
    return engine._Site(dist, engine._running_sums(probs),
                        tuple(math.log(p) if p > 0.0 else -math.inf for p in probs))


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

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_nonpositive_temperature_rejected(self, t):
        message = f"^temperature must be positive, got {t}$"
        with pytest.raises(ValueError, match=message):
            geometric_cool(t, 0.8)
        with pytest.raises(ValueError, match=message):
            specific_heat([1.0, 2.0], t)

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
        with pytest.raises(ValueError):
            AnnealSchedule(k=math.nan)
        with pytest.raises(ValueError):
            AnnealSchedule(k=math.inf)


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
        assert tuple(map(report.best.__getitem__, (0, 1))) == (0, 1)
        assert report.logp == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_evidence(self):
        net = parse_network(ZERO_EVIDENCE_TEXT)
        with pytest.raises(InconsistentEvidenceError, match="probability zero"):
            brute_force_map(net, parse_problem(ZERO_EVIDENCE_PROBLEM_TEXT, net))

    def test_cap(self):
        # the component's MAP space, the oracle's final table, has 2^28
        # entries: refused from the plan's order, before any table is built
        net = chain_network(random.Random(5), 28)
        problem = random_problem(random.Random(6), net)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with pytest.raises(WidthCapError, match=(
                "elimination needs a table of 268435456 entries \\(2\\^28.0\\), "
                f"cap is {engine.MAX_TABLE_ENTRIES}")):
            brute_force_map(net, problem)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib < 256 * 1024

    def test_runs_past_the_old_map_space_cap(self):
        # 2^21 configurations, over the 2^20 the oracle once enumerated at
        # most: answered exactly, and no solver reports a better logp
        net = chain_network(random.Random(8), 21)
        problem = random_problem(random.Random(9), net)
        oracle = brute_force_map(net, problem)
        assert oracle.logp == pytest.approx(
            map_posterior(net, oracle.best, problem.evidence), rel=0.0, abs=1e-9)
        for report in (annealed_map(net, problem, AnnealSchedule(), random.Random(10)),
                       hill_climb_map(net, problem)):
            assert report.logp <= oracle.logp + 1e-9

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
        report = brute_force_map(net, problem)
        want_states, want_lp = enum_best(net, problem)
        assert tuple(map(report.best.__getitem__, problem.map_vars)) == want_states
        assert report.logp == pytest.approx(want_lp, abs=1e-9)
        # two chains of 14 MAP roots: 2^14 configurations each, within the
        # table-size cap, though 2^28 in all are not
        rng = random.Random(4)
        pair = disjoint_union(chain_network(rng, 14), chain_network(rng, 14))
        pair_problem = random_problem(rng, pair)
        assert len(prune(pair, pair_problem).components) == 2
        pair_report = brute_force_map(pair, pair_problem)
        assert pair_report.logp == pytest.approx(
            map_posterior(pair, pair_report.best, pair_problem.evidence), rel=0.0, abs=1e-9)
        # the narrow component beside a chain of 28 MAP roots: refused
        wide = disjoint_union(net, chain_network(rng, 28))
        with pytest.raises(WidthCapError, match="2\\^28.0"):
            brute_force_map(wide, random_problem(rng, wide))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_reads_its_kept_table_in_place(self, seed):
        # the oracle reads its MAP-space table where the plan keeps it, with
        # no copy: its answer has the bits of an argmax over the table
        # `eliminate` returns, also on a second call, which finds the table
        # kept, and the table stays read-only and unchanged
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(2, 12), max_parents=3)
        for comp in prune(net, random_problem(rng, net)).components:
            map_vars, ev = comp.problem.map_vars, comp.problem.evidence
            f = eliminate(BayesianNetwork(net.name, comp.net.variables, comp.net.cpts),
                          map_vars, ev)
            flat = f.values.reshape(-1)
            idx = int(np.argmax(flat))
            best = dict(zip(map_vars, map(int, np.unravel_index(idx, f.values.shape))))
            logp = math.log(float(flat[idx])) - math.log(f.total())
            for _ in range(2):
                report = solver._brute_force(comp)
                assert report.best == best and report.logp.hex() == logp.hex()
            plan = comp.net._plans[(map_vars, frozenset(ev), frozenset())]
            assert plan.keeps and not plan.output.flags.writeable
            again = eliminate(comp.net, map_vars, ev)
            assert again.values.tobytes() == f.values.tobytes()
            assert again.log_scale.hex() == f.log_scale.hex()

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
            assert tuple(map(report.best.__getitem__, problem.map_vars)) == want_states
            assert report.logp == pytest.approx(want_lp, abs=1e-9)



class TestRelabelling:
    def test_answers_do_not_depend_on_variable_ids(self):
        # min-fill breaks its ties by the lowest id, so the copy with its ids
        # reversed is pruned, ordered and eliminated another way
        rng = random.Random(211)
        checked = unique = 0
        while checked < 30:
            net = random_network(rng, rng.randint(4, 25), max_parents=3)
            problem = random_problem(rng, net)
            if math.prod(net.cardinality(v) for v in problem.map_vars) > 4096:
                continue
            n = len(net)

            def flip(x):
                return {n - 1 - v: s for v, s in x.items()}

            flipped = relabelled(net)
            flipped_problem = MapProblem(tuple(n - 1 - v for v in problem.map_vars),
                                         flip(problem.evidence))
            try:
                want = brute_force_map(net, problem)
            except InconsistentEvidenceError:
                continue
            checked += 1
            got = brute_force_map(flipped, flipped_problem)
            assert got.logp == pytest.approx(want.logp, rel=0.0, abs=1e-9)
            f = eliminate(net, problem.map_vars, problem.evidence)
            top = sorted(f.values.reshape(-1).tolist(), reverse=True)
            if len(top) == 1 or math.log(top[0]) - math.log(top[1]) > 1e-9:
                unique += 1
                assert flip(got.best) == want.best
            x = {v: rng.randrange(net.cardinality(v)) for v in problem.map_vars}
            for y in (want.best, x):
                assert map_posterior(flipped, flip(y), flipped_problem.evidence) == \
                    pytest.approx(map_posterior(net, y, problem.evidence), rel=0.0, abs=1e-12)
        assert unique >= 25


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
        assert tuple(map(report.best.__getitem__, sprinkler_problem.map_vars)) == \
            tuple(map(oracle.best.__getitem__, sprinkler_problem.map_vars))
        assert report.logp == pytest.approx(oracle.logp, abs=1e-9)

    def test_determinism(self, sprinkler, sprinkler_problem):
        runs = []
        for _ in range(2):
            r = annealed_map(sprinkler, sprinkler_problem,
                             rng=random.Random(42), restarts=3,
                             collect_trace=True)
            runs.append((tuple(map(r.best.__getitem__, sprinkler_problem.map_vars)), r.logp,
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
            if tuple(map(report.best.__getitem__, problem.map_vars)) == \
                    tuple(map(oracle.best.__getitem__, problem.map_vars)):
                hits += 1
        assert hits >= 14

    def test_inconsistent_evidence(self):
        net = parse_network(
            "network d\nvar A { t, f }\nvar B { t, f }\n"
            "cpt A { 1.0 0.0 }\ncpt B | A { 1.0 0.0 ; 0.5 0.5 }\n")
        with pytest.raises(InconsistentEvidenceError):
            annealed_map(net, MapProblem((0,), Assignment({1: 1})))

    def test_zero_restarts_rejected(self, sprinkler, sprinkler_problem):
        with pytest.raises(ValueError, match="^restarts must be >= 1, got 0$"):
            annealed_map(sprinkler, sprinkler_problem, restarts=0)

    def test_zero_context_resample(self, monkeypatch):
        # Only (a1, b1) explains C = c1. A restart from a prior sample such
        # as (a0, b0) has p(E, x) = 0 and no site has a context of positive
        # probability, so the sweep resamples such a site uniformly.
        net = parse_network(
            "network z\nvar A { a0, a1 }\nvar B { b0, b1 }\nvar C { c0, c1 }\n"
            "cpt A { 0.9 0.1 }\ncpt B { 0.9 0.1 }\n"
            "cpt C | A B { 1 0 ; 1 0 ; 1 0 ; 0 1 }\n")
        problem = parse_problem("map A B\nevidence C=c1\n", net)
        real = solver._conditional
        resampled = []

        def counting_site(*args):
            try:
                return real(*args)
            except ImpossibleContextError:
                resampled.append(args[1])
                raise

        monkeypatch.setattr(solver, "_conditional", counting_site)
        for seed in range(5):
            report = annealed_map(net, problem, AnnealSchedule(wait=2, stop=4),
                                  random.Random(seed), restarts=3, debug_check=True)
            assert report.best == {0: 1, 1: 1} and report.logp == 0.0
        assert resampled


class TestGibbsChain:
    def test_visits_follow_conditional_support(self, sprinkler, sprinkler_problem):
        chain = gibbs_chain(sprinkler, sprinkler_problem, 500, random.Random(6))
        assert len(chain) == 500
        # (S=f, R=f) has zero posterior mass given W=t and must never appear
        assert (1, 1) not in set(chain)

    def test_sweep_count_checked(self, sprinkler, sprinkler_problem):
        assert gibbs_chain(sprinkler, sprinkler_problem, 0, random.Random(6)) == []
        rng = random.Random(6)
        with pytest.raises(ValueError, match="^sweeps must be >= 0, got -1$"):
            gibbs_chain(sprinkler, sprinkler_problem, -1, rng)
        assert rng.getstate() == random.Random(6).getstate()

    def test_one_map_variable_gives_one_tuples(self, sprinkler):
        rain, wet = sprinkler.by_name("Rain").id, sprinkler.by_name("WetGrass").id
        problem = MapProblem((rain,), Assignment({wet: 0}))
        chain = gibbs_chain(sprinkler, problem, 300, random.Random(5))
        rng = random.Random(5)
        dist = conditional(sprinkler, rain, {wet: 0}).tolist()
        want = []
        for _ in range(300):
            rng.random()
            want.append((scan_draw(dist, rng.random()),))
        assert chain == want
        assert set(chain) == {(0,), (1,)}

    def test_same_chain_as_reference_sites(self, sprinkler, sprinkler_problem):
        chain = gibbs_chain(sprinkler, sprinkler_problem, 300, random.Random(8))
        rng = random.Random(8)
        x = sequential_init(sprinkler, sprinkler_problem)
        want = []
        for _ in range(300):
            for j in sprinkler_problem.map_vars:
                rng.random()
                dist = reference_site(sprinkler, sprinkler_problem, j,
                                      {**sprinkler_problem.evidence, **x})
                x[j] = scan_draw(dist.tolist(), rng.random())
            want.append(tuple(map(x.__getitem__, sprinkler_problem.map_vars)))
        assert chain == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(0, 40), st.integers(0, 2 ** 32))
    def test_same_chain_as_reference_sites_on_random_nets(self, net_seed, n_map, sweeps, seed):
        # the chain the sprinkler test checks, on random nets: E and some
        # other variables summed out around 2-4 MAP variables in any order
        rng = random.Random(net_seed)
        net = random_network(rng, rng.randint(n_map, n_map + 4), max_parents=2)
        map_vars = tuple(rng.sample(range(len(net)), n_map))
        sample = forward_sample(net, rng)
        rest = [v for v in range(len(net)) if v not in map_vars]
        problem = MapProblem(map_vars, Assignment(
            {v: sample[v] for v in rng.sample(rest, rng.randint(0, len(rest)))}))
        chain = gibbs_chain(net, problem, sweeps, random.Random(seed))
        draws = random.Random(seed)
        x = sequential_init(net, problem)
        want = []
        for _ in range(sweeps):
            for j in map_vars:
                draws.random()
                dist = reference_site(net, problem, j, {**problem.evidence, **x})
                x[j] = scan_draw(dist.tolist(), draws.random())
            want.append(tuple(map(x.__getitem__, map_vars)))
        assert chain == want


def _reference_init(net, problem):
    """sequential_init from scratch: each MAP variable in topological order
    takes the lowest-index argmax of its exact conditional given E and the
    choices before it, on a rebuilt network."""
    x = Assignment()
    for v in net.order():
        if v in problem.map_vars:
            dist = _reference_site(net, v, x, problem.evidence).tolist()
            x[v] = dist.index(max(dist))
    return x


def _reference_climb(net, problem):
    """hill_climb_map from scratch: on each pruned component, from
    _reference_init, every single flip scored with map_posterior on a
    rebuilt network; the best strict gain moves, the first in map-variable,
    then state, order on ties. A climb counts as a run only on a component
    with two or more MAP variables."""
    total = solver.SolveReport(best=Assignment(), logp=0.0, restarts_used=0)
    for comp in prune(net, problem).components:
        evidence, map_vars = comp.problem.evidence, comp.problem.map_vars
        if len(map_vars) > 1:
            total.restarts_used = 1
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
                        y[j] = s
                        flip = score(y)
                        if flip > best_score:
                            best_move, best_score = (j, s), flip
            if best_move is None:
                break
            j, s = best_move
            x[j] = s
            here = best_score
            total.sweeps += 1
        total.best = {**total.best, **comp.to_original(x)}
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
        problems = {}

        def pruned(net, problem):
            out = prune(net, problem)
            problems.update((id(c.net), c.problem) for c in out.components)
            return out

        monkeypatch.setattr(solver, "prune", pruned)
        monkeypatch.setattr(solver, "_conditional",
                            lambda *args: _reference_kernel(problems, *args))
        want = anneal_all()
        assert got == want
        # a chain runs, and leaves trace rows, exactly on each component with
        # two or more MAP variables; one-variable components run none
        chained = [{i for i, c in enumerate(prune(net, problem).components)
                    if len(c.problem.map_vars) > 1} for net, problem, _ in runs]
        assert [{row.component for row in r.trace} for r in got] == chained
        assert any(chained)
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
        # hill climbing: the indicator plan alone, on which map_posterior
        # scores a full MAP assignment; anneal: it and one site plan per MAP
        # variable, except on a component with one MAP variable, which runs
        # no chain and compiles the indicator plan alone; a component of
        # one variable is answered from its CPT row and compiles no plan
        net = random_network(random.Random(7), 120, max_parents=3, cards=(2, 3))
        problem = generate_problem(net, 20, 20, random.Random(7))
        for k in range(len(prune(net, problem).components)):
            for climb in (True, False):
                comp = prune(net, problem).components[k]
                monkeypatch.setattr(solver, "prune", lambda n, p: PrunedNetwork((comp,), ()))
                if climb:
                    hill_climb_map(net, problem)
                    want = 1
                else:
                    annealed_map(net, problem, rng=random.Random(k), restarts=2)
                    n_map = len(comp.problem.map_vars)
                    want = 1 if n_map == 1 else n_map + 1
                if len(comp.net) == 1:
                    want = 0
                plans = [p for p in comp.net._plans.values() if isinstance(p, engine._Node)]
                assert len(plans) == want


class TestHillClimb:
    def test_single_variable(self):
        net = parse_network("network n\nvar A { t, f }\ncpt A { 0.2 0.8 }\n")
        r = hill_climb_map(net, MapProblem((0,), Assignment()))
        assert r.best[0] == 1

    def test_sprinkler(self, sprinkler, sprinkler_problem):
        r = hill_climb_map(sprinkler, sprinkler_problem)
        oracle = brute_force_map(sprinkler, sprinkler_problem)
        assert tuple(map(r.best.__getitem__, sprinkler_problem.map_vars)) == \
            tuple(map(oracle.best.__getitem__, sprinkler_problem.map_vars))

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
                        flip[j] = s
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
        assert tuple(map(oracle.best.__getitem__, problem.map_vars)) == want
        assert oracle.logp == pytest.approx(want_logp, abs=1e-9)
        # the oracle scores from its kept table, not with map_posterior
        assert oracle.logp == pytest.approx(sum(parts(oracle.best)), abs=1e-9)
        for r in (annealed_map(net, problem, rng=random.Random(seed), restarts=restarts),
                  hill_climb_map(net, problem)):
            assert r.logp == sum(parts(r.best))
            assert r.logp <= oracle.logp + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_one_variable_components_answered_exactly(self, seed, restarts):
        rng = random.Random(seed)
        a, b = (random_network(rng, rng.randint(2, 4)) for _ in range(2))
        net = disjoint_union(a, b)
        problem = random_problem(rng, net)
        # variable 0 of each part is a root, so a MAP variable of the
        # problem above, and no other MAP variable shares its component
        roots_only = MapProblem((0, len(a)), problem.evidence)
        for p in (problem, roots_only):
            components = prune(net, p).components
            oracle = brute_force_map(net, p)
            runs = [annealed_map(net, p, rng=random.Random(seed), restarts=restarts,
                                 collect_trace=True),
                    hill_climb_map(net, p)]
            for comp in components:
                if len(comp.problem.map_vars) != 1:
                    continue
                want, want_logp = enum_best(comp.net, comp.problem)
                alone = brute_force_map(comp.net, comp.problem)
                assert alone.logp == pytest.approx(want_logp, abs=1e-9)
                for r in runs:
                    assert (r.best[comp.orig_ids[comp.problem.map_vars[0]]],) == want
                for r in (annealed_map(comp.net, comp.problem, rng=random.Random(seed),
                                       restarts=restarts),
                          hill_climb_map(comp.net, comp.problem)):
                    assert r.logp == pytest.approx(alone.logp, rel=0.0, abs=1e-9)
            if all(len(c.problem.map_vars) == 1 for c in components):
                for r in runs:
                    assert r.logp == pytest.approx(oracle.logp, rel=0.0, abs=1e-9)
                    assert (r.sweeps, r.reheats, r.best_found_sweep,
                            r.restarts_used) == (0, 0, 0, 0)
                assert runs[0].trace == []
        assert len(prune(net, roots_only).components) == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 59), st.integers(0, 2 ** 32))
    def test_trace_numbers_sweeps_across_components_and_restarts(self, seed, anneal_seed):
        rng = random.Random(seed)
        net = random_network(rng, 14)
        problem = random_problem(rng, net)
        components = prune(net, problem).components
        assume(len(components) > 1)
        # only components with two or more MAP variables run chains
        chained = [c for c in range(len(components))
                   if len(components[c].problem.map_vars) > 1]
        assume(chained)
        r = annealed_map(net, problem, rng=random.Random(anneal_seed), restarts=3,
                         collect_trace=True)
        assert [row.sweep for row in r.trace] == list(range(1, r.sweeps + 1))
        runs = [(row.component, row.restart) for row in r.trace]
        assert runs == sorted(runs)
        assert set(runs) == {(c, k) for c in chained for k in range(3)}
        assert 0 <= r.best_found_sweep <= r.sweeps


def _solvers(net, problem):
    """The answer of each of the three solvers, or the error it raised."""
    out = []
    for solve in (lambda: annealed_map(net, problem, rng=random.Random(1), restarts=2),
                  lambda: brute_force_map(net, problem), lambda: hill_climb_map(net, problem)):
        try:
            report = solve()
        except ValueError as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((report.best, report.logp.hex(), report.sweeps, report.reheats))
    return out


class TestDiscardedEvidence:
    def test_impossible_evidence_raises_in_every_solver(self):
        net = parse_network(DISCARDED_ZERO_TEXT)
        problem = parse_problem(DISCARDED_ZERO_PROBLEM_TEXT, net)
        with pytest.raises(InconsistentEvidenceError, match="probability zero"):
            map_posterior(net, Assignment({0: 0}), problem.evidence)
        with pytest.raises(InconsistentEvidenceError, match="probability zero"):
            prune(net, problem)
        assert _solvers(net, problem) == [
            (InconsistentEvidenceError, "evidence has probability zero")] * 3

    def test_possible_evidence_keeps_the_answer_bits(self):
        # D=t has probability 1: the zero entries of the discarded component
        # cost an elimination, and every answer is that of A -> B alone
        net = parse_network(DISCARDED_ZERO_TEXT)
        problem = parse_problem("map A\nevidence B=t D=t\n", net)
        pruned = prune(net, problem)
        assert [c.orig_ids for c in pruned.components] == [(0, 1)]
        alone = parse_network("\n".join(line for line in DISCARDED_ZERO_TEXT.splitlines()
                                         if "C" not in line and "D" not in line))
        assert len(alone) == 2
        got = _solvers(net, problem)
        assert got == _solvers(alone, parse_problem("map A\nevidence B=t\n", alone))
        assert all(isinstance(r[0], dict) for r in got)

    def test_wide_discarded_component_raises_the_width_cap(self):
        # every root of the 300-variable net made deterministic: p(E) > 0
        # still, but each component holding evidence has a zero entry, and
        # the widest needs a table of 2^38.7 entries for its ln p(E)
        wide = random_network(random.Random(7), 300, max_parents=4)
        cpts = [Cpt(c.child, c.parents, ((1.0,) + (0.0,) * (len(c.table[0]) - 1),))
                if not c.parents else c for c in wide.cpts]
        wide = BayesianNetwork(wide.name, wide.variables, cpts)
        evidence = generate_problem(wide, 20, 20, random.Random(0)).evidence
        lone = BayesianNetwork("lone", [Variable(0, "v0", ("t", "f"))], [Cpt(0, (), ((0.3, 0.7),))])
        net = disjoint_union(lone, wide)
        problem = MapProblem((0,), Assignment({v + 1: s for v, s in evidence.items()}))
        with pytest.raises(WidthCapError, match=f"cap is {engine.MAX_TABLE_ENTRIES}") as exc:
            prune(net, problem)
        assert _solvers(net, problem) == [(WidthCapError, str(exc.value))] * 3


class TestOneVariable:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_logp_bits_match_two_more_evaluations(self, seed):
        # the answer reads ln p(E) and its winning score from the greedy
        # start's own evaluations: the bits of the score re-evaluated less
        # ln p(E) re-evaluated, on a fresh copy of the component
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(2, 8))
        problem = generate_problem(net, 1, rng.randint(0, 3), rng)
        for comp in prune(net, problem).components:
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_log_total",
                              lambda *a: calls.append(1) or engine._log_total(*a))
                report = solver._one_variable(comp)
            j, = comp.problem.map_vars
            assert len(calls) == 1 + comp.net.cardinality(j)
            fresh = BayesianNetwork(comp.net.name, comp.net.variables, comp.net.cpts)
            x = sequential_init(fresh, comp.problem)
            plan = engine._indicator_plan(fresh, comp.problem)
            evidence = comp.problem.evidence
            want = engine._log_total(plan, {**evidence, **x}) - engine._log_total(plan, evidence)
            assert report.best == x
            assert report.logp.hex() == want.hex()


def _plan_answer(net, problem, solve):
    """`solve(index, component, sweeps_before)` on each component of a fresh
    pruning, the answers merged and their ln p(x|E) and sweeps added up in
    component order, as the solvers' shared pipeline does."""
    total = solver.SolveReport(best={}, logp=0.0)
    for index, comp in enumerate(prune(net, problem).components):
        part = solve(index, comp, total.sweeps)
        total.best.update(comp.to_original(part.best))
        total.logp += part.logp
        total.sweeps += part.sweeps
    return total


class TestLoneRoot:
    """A component of one variable, a MAP root that pruning leaves with no
    evidence and no child, is answered from its CPT row with no plan."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3))
    def test_bits_equal_the_plan_answers(self, seed, restarts):
        # cardinalities up to 9, so that some rows sum pairwise (numpy
        # does from 8 entries on); the last variable is an isolated MAP root
        rng = random.Random(seed)
        cards = tuple(range(2, 10))
        net = disjoint_union(random_network(rng, rng.randint(2, 8), cards=cards),
                             random_network(rng, 1, cards=cards))
        lone = len(net) - 1
        drawn = generate_problem(net, rng.randint(1, len(net.roots())), rng.randint(0, 3), rng)
        problem = MapProblem(tuple(sorted(set(drawn.map_vars) | {lone})),
                             Assignment({v: s for v, s in drawn.evidence.items() if v != lone}))
        assert any(len(c.net) == 1 for c in prune(net, problem).components)
        # the reference answers each lone root by its plans: the greedy
        # start's for anneal and hill climbing, the oracle's own table
        anneal_rng = random.Random(seed)
        cases = [
            (annealed_map(net, problem, rng=random.Random(seed), restarts=restarts),
             lambda i, comp, before: solver._one_variable(comp) or solver._anneal(
                 i, comp, before, AnnealSchedule(), anneal_rng, restarts, None, False)),
            (hill_climb_map(net, problem),
             lambda i, comp, before: solver._one_variable(comp) or solver._climb(comp)),
            (brute_force_map(net, problem), lambda i, comp, before: solver._brute_force(comp)),
        ]
        for report, solve in cases:
            want = _plan_answer(net, problem, solve)
            assert report.best == want.best
            assert report.logp.hex() == want.logp.hex()
            assert report.sweeps == want.sweeps

    @pytest.mark.parametrize("row", [(0.25,) * 4, (1.0 / 9.0,) * 9])
    def test_uniform_lone_root_answers_state_zero(self, row):
        net = BayesianNetwork("u", [Variable(0, "A", tuple(f"s{i}" for i in range(len(row))))],
                              [Cpt(0, (), (row,))])
        problem = MapProblem((0,), Assignment())
        for report in (annealed_map(net, problem), hill_climb_map(net, problem),
                       brute_force_map(net, problem)):
            assert report.best == {0: 0}
            assert report.logp == pytest.approx(-math.log(len(row)), rel=0.0, abs=1e-12)
            assert (report.sweeps, report.reheats, report.restarts_used) == (0, 0, 0)

    def test_compiles_no_plan(self, monkeypatch, sprinkler):
        # map Rain with no evidence: Sprinkler and WetGrass are barren, and
        # Rain is a component of its own
        problem = parse_problem("map Rain\nevidence\n", sprinkler)
        comp, = prune(sprinkler, problem).components
        assert len(comp.net) == 1
        monkeypatch.setattr(solver, "prune", lambda n, p: PrunedNetwork((comp,), ()))
        for solve in (annealed_map, hill_climb_map, brute_force_map):
            report = solve(sprinkler, problem)
            assert report.best == {sprinkler.by_name("Rain").id: 1}
            assert report.logp == math.log(0.8)
            assert comp.net._plans == {}


class TestCoupledChain:
    """Binary MAP roots r_i feeding a hidden chain h_i with parents
    (h_{i-1}, r_i), the last h observed: the oracle's table spans every
    root, while each site conditional stays narrow."""

    @staticmethod
    def _instance(seed, n):
        rng = random.Random(seed)
        net = coupled_chain_network(rng, n)
        return net, coupled_chain_problem(rng, net)

    def test_shape(self):
        net, problem = self._instance(5, 28)
        assert len(net) == 56
        assert [net.parents(v) for v in range(28)] == [()] * 28
        assert net.parents(28) == (0,)
        assert [net.parents(28 + i) for i in range(1, 28)] == [(27 + i, i) for i in range(1, 28)]
        assert problem.map_vars == tuple(range(28))
        assert list(problem.evidence) == [55]
        assert all(0.1 <= p <= 0.9 for cpt in net.cpts for row in cpt.table for p in row)

    def test_oracle_refuses_28_roots(self):
        net, problem = self._instance(5, 28)
        with pytest.raises(WidthCapError, match=(
                "elimination needs a table of 536870912 entries \\(2\\^29.0\\), "
                f"cap is {engine.MAX_TABLE_ENTRIES}")):
            brute_force_map(net, problem)

    def test_search_solves_28_roots(self):
        net, problem = self._instance(5, 28)
        for report in (hill_climb_map(net, problem),
                       annealed_map(net, problem, rng=random.Random(1))):
            assert sorted(report.best) == list(range(28))
            assert report.logp == pytest.approx(
                map_posterior(net, report.best, problem.evidence), rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_matches_enumeration_at_6_roots(self, seed):
        net, problem = self._instance(seed, 6)
        report = brute_force_map(net, problem)
        want, want_logp = enum_best(net, problem)
        assert tuple(map(report.best.__getitem__, problem.map_vars)) == want
        assert report.logp == pytest.approx(want_logp, rel=0.0, abs=1e-9)


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
        assert tuple(map(r.best.__getitem__, trap_problem.map_vars)) == (0, 0)

    def test_anneal_escapes(self, trap_net, trap_problem):
        oracle = brute_force_map(trap_net, trap_problem)
        assert tuple(map(oracle.best.__getitem__, trap_problem.map_vars)) == (1, 1)
        hits = 0
        for seed in range(40):
            r = annealed_map(trap_net, trap_problem, rng=random.Random(seed),
                             restarts=5)
            if tuple(map(r.best.__getitem__, trap_problem.map_vars)) == (1, 1):
                hits += 1
        assert hits >= 36


class TestTrackingIdentity:
    def test_drift_is_caught(self, monkeypatch):
        # site records whose logs are shifted by 0.5 per state index make the
        # tracked ln p(x|E) drift from exact elimination on the indicator plan;
        # only a component with two or more MAP variables runs a chain that
        # reads them. A chain calls the kernel only on a memo miss, so the
        # shifted record replaces the real one in the memo, and every later
        # read of that neighbourhood is shifted too. The drift is 0.5 per
        # state index moved from the start, so it shows only in a state
        # other than the start: on the Random(6) net in the best state, and
        # on the Random(31) net, whose best is its start, in the chain's last
        # state, which the end of each restart re-scores when it is not the
        # best.
        cases = []
        for seed in (6, 31):
            rng = random.Random(seed)
            net = random_network(rng, 8, max_parents=2)
            problem = random_problem(rng, net)
            assert any(len(c.problem.map_vars) > 1 for c in prune(net, problem).components)
            cases.append((net, problem))

        def run(case, debug_check):
            return annealed_map(*case, rng=random.Random(4), debug_check=debug_check)

        for case in cases:
            run(case, True)  # exact sites track
        real = solver._conditional

        def shifted(net, j, plan, context):
            site = real(net, j, plan, context)
            values = plan.memo_key(context)
            assert plan.memo[values] is site
            site = site._replace(logs=tuple(lp + 0.5 * s for s, lp in enumerate(site.logs)))
            plan.memo[values] = site
            return site

        monkeypatch.setattr(solver, "_conditional", shifted)
        for case in cases:
            with pytest.raises(solver.TrackingError, match=r"^final: tracked"):
                run(case, False)
            with pytest.raises(solver.TrackingError, match=r"^sweep \d+: tracked"):
                run(case, True)

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
