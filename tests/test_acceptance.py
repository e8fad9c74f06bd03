"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The corpus seeds are fixed, so the whole suite is reproducible.
"""

import csv
import io
import math
import random

import numpy as np
import pytest
from scipy import stats

from amap import (
    AnnealSchedule,
    Assignment,
    BayesianNetwork,
    Cpt,
    MapProblem,
    ParseError,
    Variable,
    acceptance_probability,
    annealed_map,
    brute_force_map,
    conditional,
    eliminate,
    geometric_cool,
    gibbs_chain,
    hill_climb_map,
    map_posterior,
    parse_network,
    parse_problem,
    prune,
    reheat_temperature,
    serialize_network,
    specific_heat,
)
from amap.cli import main
from amap.engine import ImpossibleContextError, InconsistentEvidenceError
from conftest import SPRINKLER_TEXT, SPRINKLER_PROBLEM_TEXT
from netgen import (
    enum_conditional,
    enum_factor,
    enum_map_posterior,
    joint_size,
    random_network,
    random_problem,
)

PAPER_DEFAULTS = AnnealSchedule(t0=0.99, alpha=0.8, k=0.1, wait=10, stop=20)


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _corpus(seed=2024, n=50):
    """Fixed-seed corpus of 50 random networks with benchmark-style problems."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        net = random_network(rng, rng.randint(8, 12), max_parents=2,
                             cards=(2, 3), name=f"corpus{len(out)}")
        problem = random_problem(rng, net)
        out.append((net, problem))
    return out


def test_criterion_1_oracle_optimality_rate():
    matches, ratios_ok, total = 0, True, 0
    mismatch_ratios = []
    for i, (net, problem) in enumerate(_corpus()):
        oracle = brute_force_map(net, problem)
        report = annealed_map(net, problem, PAPER_DEFAULTS,
                              rng=random.Random(1000 + i), restarts=5)
        total += 1
        if tuple(map(report.best.__getitem__, problem.map_vars)) == \
                tuple(map(oracle.best.__getitem__, problem.map_vars)):
            matches += 1
        else:
            ratio = math.exp(report.logp - oracle.logp)
            mismatch_ratios.append(ratio)
            if ratio < 0.95:
                ratios_ok = False
    ok = matches >= math.ceil(0.95 * total) and ratios_ok
    _report(1, "oracle-optimality rate", ok,
            f"optimal {matches}/{total}, mismatch ratios {mismatch_ratios}")


def test_criterion_2_probability_tracking_exactness():
    # debug_check recomputes ln p(x|E) exactly after every sweep and raises
    # TrackingError past 1e-6; a clean run over the corpus means zero
    # violations at every sweep boundary and at termination.
    violations = 0
    for i, (net, problem) in enumerate(_corpus()):
        try:
            annealed_map(net, problem, PAPER_DEFAULTS,
                         rng=random.Random(2000 + i), restarts=5,
                         debug_check=True)
        except Exception:
            violations += 1
    _report(2, "probability-tracking exactness", violations == 0,
            f"{violations} violations")


def test_criterion_3_gibbs_limit():
    net = parse_network(SPRINKLER_TEXT)
    from amap import parse_problem
    problem = parse_problem(SPRINKLER_PROBLEM_TEXT, net)
    # at T=1 the acceptance probability is identically 1
    rng = random.Random(55)
    accept_ok = all(
        acceptance_probability(1.0, -rng.random() * 20, -rng.random() * 20) == 1.0
        for _ in range(1000))

    sweeps = 10 ** 5
    chain = gibbs_chain(net, problem, sweeps, random.Random(12345))
    exact = enum_factor(net, problem.map_vars, problem.evidence)
    total = sum(exact.values())
    counts = {}
    for cfg in chain:
        counts[cfg] = counts.get(cfg, 0) + 1
    zero_cells = [cfg for cfg, w in exact.items() if w == 0.0]
    zero_visited = sum(counts.get(cfg, 0) for cfg in zero_cells)
    support = [cfg for cfg in sorted(exact) if exact[cfg] > 0.0]
    observed = [counts.get(cfg, 0) for cfg in support]
    expected = [exact[cfg] / total * sweeps for cfg in support]
    chi = stats.chisquare(observed, expected)
    ok = accept_ok and zero_visited == 0 and chi.pvalue > 0.01
    _report(3, "Gibbs limit at T=1", ok,
            f"chi2 p-value {chi.pvalue:.4f}, zero-cell visits {zero_visited}")


def _autocorrelation(x, lag):
    x = x - x.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


def test_criterion_3_gibbs_limit_thinned():
    """Criterion 3's check made sound for a correlated chain: one seeded
    chain of 10^5 sweeps is thinned by the smallest lag at which every
    configuration indicator's sample autocorrelation is below 0.05 in
    absolute value (171 at this seed, leaving 585 draws), and the thinned
    counts get a Pearson chi-square test at the 0.01 level. One
    configuration expects about three draws, too few for the chi-square
    distribution, so the p-value is the share of 20,000 seeded multinomial
    draws of the same size whose statistic is at least as large. The
    nominal false-alarm rate is 1%: the thinned draws are treated as
    independent, which they are only approximately."""
    net = parse_network(SPRINKLER_TEXT)
    problem = parse_problem(SPRINKLER_PROBLEM_TEXT, net)
    chain = np.array(gibbs_chain(net, problem, 10 ** 5, random.Random(5)))
    exact = enum_factor(net, problem.map_vars, problem.evidence)
    support = [cfg for cfg in sorted(exact) if exact[cfg] > 0.0]
    indicators = [np.all(chain == cfg, axis=1).astype(float) for cfg in support]
    lag = 1
    while not all(abs(_autocorrelation(x, lag)) < 0.05 for x in indicators):
        lag += 1
    thinned = chain[::lag]
    observed = np.array([np.all(thinned == cfg, axis=1).sum() for cfg in support])
    probs = np.array([exact[cfg] for cfg in support]) / sum(exact.values())
    expected = probs * len(thinned)

    def pearson(counts):
        return ((counts - expected) ** 2 / expected).sum(axis=-1)

    null = np.random.default_rng(0).multinomial(len(thinned), probs, size=20000)
    pvalue = (1 + int((pearson(null) >= pearson(observed)).sum())) / (1 + len(null))
    ok = len(thinned) >= 100 and observed.sum() == len(thinned) and pvalue > 0.01
    _report(3, "Gibbs limit at T=1, thinned", ok,
            f"lag {lag}, {len(thinned)} draws, chi2 p-value {pvalue:.4f}")


def test_criterion_4_schedule_arithmetic():
    rng = random.Random(77)
    ok = True
    for _ in range(2000):
        t = rng.uniform(1e-6, 1.0)
        alpha = rng.uniform(0.01, 0.999)
        t_min = rng.uniform(1e-9, 1e-3)
        if not math.isclose(geometric_cool(t, alpha, t_min),
                            max(alpha * t, t_min), rel_tol=1e-12):
            ok = False
        costs = [rng.uniform(0, 50) for _ in range(rng.randint(1, 20))]
        tc = rng.uniform(1e-3, 1.0)
        mean = sum(costs) / len(costs)
        var = sum((c - mean) ** 2 for c in costs) / len(costs)
        if not math.isclose(specific_heat(costs, tc), var / tc ** 2,
                            rel_tol=1e-12, abs_tol=1e-300):
            ok = False
        c_b = rng.uniform(0, 100)
        t_ch = rng.uniform(0, 1)
        k = rng.uniform(0, 1)
        t0 = rng.uniform(0.01, 1.0)
        if reheat_temperature(c_b, t_ch, k, t0) != min(t0, k * c_b + t_ch):
            ok = False
    # clamps
    if geometric_cool(1e-6, 0.5, t_min=1e-6) != 1e-6:
        ok = False
    if reheat_temperature(100.0, 0.9, 1.0, 0.99) != 0.99:
        ok = False
    _report(4, "schedule arithmetic", ok)


def test_criterion_5_inference_oracle_equivalence():
    rng = random.Random(4321)
    checked = 0
    max_err = 0.0
    prune_err = 0.0
    ok = True
    while checked < 200:
        net = random_network(rng, rng.randint(3, 9), cards=(2, 3))
        if joint_size(net) > 4096:
            continue
        checked += 1
        problem = random_problem(rng, net)

        # eliminate vs enumeration
        keep = tuple(sorted(rng.sample(range(len(net)),
                                       rng.randint(1, min(2, len(net))))))
        ev_pool = [v for v in range(len(net)) if v not in keep]
        evidence = Assignment({v: rng.randrange(net.cardinality(v))
                               for v in rng.sample(ev_pool, min(2, len(ev_pool)))})
        f = eliminate(net, keep, evidence)
        expected = enum_factor(net, keep, evidence)
        for combo, val in expected.items():
            got = float(f.values[combo]) * math.exp(f.log_scale)
            if val == 0.0:
                ok = ok and got == 0.0
            else:
                err = abs(math.log(got) - math.log(val))
                max_err = max(max_err, err)
                ok = ok and err <= 1e-9

        # conditional vs enumeration
        target = keep[0]
        try:
            dist = conditional(net, target, evidence)
            want = enum_conditional(net, target, evidence)
            for g, w in zip(dist, want):
                ok = ok and abs(g - w) <= 1e-9
        except ImpossibleContextError:
            ok = ok and enum_conditional(net, target, evidence) is None

        # map_posterior vs enumeration
        x = Assignment({v: rng.randrange(net.cardinality(v))
                        for v in problem.map_vars})
        try:
            got = map_posterior(net, x, problem.evidence)
            want = enum_map_posterior(net, x, problem.evidence)
            if want == -math.inf:
                ok = ok and got == -math.inf
            else:
                err = abs(got - want)
                max_err = max(max_err, err)
                ok = ok and err <= 1e-9
        except InconsistentEvidenceError:
            pass

        # pruning invariance: component sum equals unpruned posterior
        try:
            whole = map_posterior(net, x, problem.evidence)
        except InconsistentEvidenceError:
            continue
        parts = 0.0
        for comp in prune(net, problem).components:
            remap = {orig: new for new, orig in enumerate(comp.orig_ids)}
            sub_x = Assignment({remap[v]: x[v] for v in problem.map_vars
                                if v in remap})
            parts += map_posterior(comp.net, sub_x, comp.problem.evidence)
        if whole == -math.inf:
            ok = ok and parts == -math.inf
        else:
            prune_err = max(prune_err, abs(parts - whole))
            ok = ok and abs(parts - whole) <= 1e-12
    _report(5, "inference oracle equivalence", ok,
            f"{checked} networks, max log err {max_err:.2e}, "
            f"max pruning err {prune_err:.2e}")


def _bipartite_net(rng, n_roots=200, n_leaves=200):
    variables = []
    cpts = []
    for i in range(n_roots):
        variables.append(Variable(i, f"r{i}", ("s0", "s1")))
        p = rng.uniform(0.2, 0.8)
        cpts.append(Cpt(i, (), ((p, 1.0 - p),)))
    for j in range(n_leaves):
        vid = n_roots + j
        variables.append(Variable(vid, f"l{j}", ("s0", "s1")))
        n_par = rng.randint(1, 2)
        parents = tuple(sorted(rng.sample(range(n_roots), n_par)))
        rows = []
        for _ in range(2 ** n_par):
            p = rng.uniform(0.1, 0.9)
            rows.append((p, 1.0 - p))
        cpts.append(Cpt(vid, parents, tuple(rows)))
    return BayesianNetwork("bipartite", variables, cpts)


def test_criterion_6_decomposition():
    rng = random.Random(909)
    net = _bipartite_net(rng)
    from amap import forward_sample
    map_vars = tuple(sorted(rng.sample(range(200), 20)))
    evid_vars = sorted(rng.sample(range(200, 400), 20))
    sample = forward_sample(net, rng)
    problem = MapProblem(map_vars, Assignment({v: sample[v] for v in evid_vars}))

    pruned = prune(net, problem)
    n_components = len(pruned.components)

    # concatenation of per-component oracle solutions
    expected = Assignment()
    for comp in pruned.components:
        sub = brute_force_map(comp.net, comp.problem)
        expected = {**expected, **comp.to_original(sub.best)}
    report = annealed_map(net, problem, PAPER_DEFAULTS,
                          rng=random.Random(17), restarts=5)
    same = (tuple(map(report.best.__getitem__, map_vars)) ==
            tuple(map(expected.__getitem__, map_vars)))
    ok = n_components >= 10 and same
    _report(6, "decomposition behavior", ok,
            f"{n_components} components, matches per-component oracle: {same}")


def test_criterion_7_determinism_and_robustness(tmp_path, capsys):
    net_file = tmp_path / "s.bnet"
    net_file.write_text(SPRINKLER_TEXT)
    prob_file = tmp_path / "s.prob"
    prob_file.write_text(SPRINKLER_PROBLEM_TEXT)

    # solve: byte-identical stdout
    outs = []
    for _ in range(2):
        assert main(["solve", "--net", str(net_file), "--problem",
                     str(prob_file), "--algo", "anneal", "--seed", "3",
                     "--restarts", "2"]) == 0
        outs.append(capsys.readouterr().out)
    solve_ok = outs[0] == outs[1]

    # gen: byte-identical problem files
    gen_texts = []
    for name in ("a.prob", "b.prob"):
        out = tmp_path / name
        assert main(["gen", "--net", str(net_file), "--map-count", "1",
                     "--evid-count", "1", "--seed", "4", "-o", str(out)]) == 0
        capsys.readouterr()
        gen_texts.append(out.read_text())
    gen_ok = gen_texts[0] == gen_texts[1]

    # bench: byte-identical modulo the informational wall_ms column
    bench_rows = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["bench", "--net", str(net_file), "--cases", "3",
                     "--map-count", "1", "--evid-count", "1", "--seed", "5",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out.read_text())))
        for row in rows[1:]:
            row[10] = ""
        bench_rows.append(rows)
    bench_ok = bench_rows[0] == bench_rows[1]

    # parser fuzzing: every mutated input parses or raises ParseError
    rng = random.Random(31337)
    bases = [SPRINKLER_TEXT,
             serialize_network(random_network(random.Random(1), 8))]
    alphabet = "abz019{};|,=.# \n\tnetworkvarcpt-eE+"
    fuzz_ok = True
    for i in range(10 ** 4):
        chars = list(bases[i % len(bases)])
        for _ in range(rng.randint(1, 5)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars)) if chars else 0
            if op == 0 and chars:
                chars[pos] = rng.choice(alphabet)
            elif op == 1:
                chars.insert(pos, rng.choice(alphabet))
            elif chars:
                del chars[pos]
        try:
            parse_network("".join(chars))
        except ParseError:
            pass
        except Exception:
            fuzz_ok = False
            break
    ok = solve_ok and gen_ok and bench_ok and fuzz_ok
    _report(7, "determinism and robustness", ok,
            f"solve={solve_ok} gen={gen_ok} bench={bench_ok} fuzz={fuzz_ok}")


def test_criterion_8_local_optimum_separation(trap_net, trap_problem):
    hill = hill_climb_map(trap_net, trap_problem)
    oracle = brute_force_map(trap_net, trap_problem)
    trapped = tuple(map(hill.best.__getitem__, trap_problem.map_vars)) == (0, 0)
    global_opt = tuple(map(oracle.best.__getitem__, trap_problem.map_vars))
    hits = 0
    for seed in range(100):
        r = annealed_map(trap_net, trap_problem, PAPER_DEFAULTS,
                         rng=random.Random(seed), restarts=5)
        if tuple(map(r.best.__getitem__, trap_problem.map_vars)) == global_opt:
            hits += 1
    ok = trapped and global_opt == (1, 1) and hits >= 90
    _report(8, "local-optimum separation", ok,
            f"hill climb trapped: {trapped}, anneal global {hits}/100")
