"""Test-side helpers: random network generation and exhaustive-enumeration
oracles. The oracles use only the model layer (complete + joint_log_prob),
never the elimination engine they are checking against."""

import itertools
import math
import random

from amap import Assignment, BayesianNetwork, Cpt, MapProblem, Variable


def random_network(rng: random.Random, n_vars: int, max_parents: int = 2,
                   cards=(2, 3), name: str = "rand") -> BayesianNetwork:
    """Random DAG over `n_vars` variables; parents drawn from earlier ids."""
    variables = []
    for i in range(n_vars):
        card = rng.choice(cards)
        variables.append(Variable(i, f"v{i}", tuple(f"s{j}" for j in range(card))))
    cpts = []
    for i in range(n_vars):
        n_par = rng.randint(0, min(max_parents, i))
        parents = tuple(sorted(rng.sample(range(i), n_par)))
        n_rows = 1
        for p in parents:
            n_rows *= variables[p].cardinality
        rows = []
        for _ in range(n_rows):
            raw = [rng.random() + 0.01 for _ in range(variables[i].cardinality)]
            total = sum(raw)
            rows.append(tuple(x / total for x in raw))
        cpts.append(Cpt(i, parents, tuple(rows)))
    return BayesianNetwork(name, variables, cpts)


def disjoint_union(a: BayesianNetwork, b: BayesianNetwork) -> BayesianNetwork:
    """The two networks side by side, with b's ids shifted past a's."""
    n = len(a)
    variables = list(a.variables) + [Variable(v.id + n, f"v{v.id + n}", v.states)
                                     for v in b.variables]
    cpts = list(a.cpts) + [Cpt(c.child + n, tuple(p + n for p in c.parents), c.table)
                           for c in b.cpts]
    return BayesianNetwork("union", variables, cpts)


def joint_size(net: BayesianNetwork) -> int:
    size = 1
    for v in net.variables:
        size *= v.cardinality
    return size


def enum_factor(net: BayesianNetwork, keep, evidence: Assignment) -> dict:
    """Brute-force f(keep) = sum over completions of the joint, with evidence
    fixed. Keys are state tuples in `keep` order."""
    from amap import complete, joint_log_prob

    keep = tuple(keep)
    out = {}
    for combo in itertools.product(*(range(net.cardinality(v)) for v in keep)):
        partial = evidence.copy()
        for v, s in zip(keep, combo):
            partial.set(v, s)
        total = 0.0
        for full in complete(partial, net):
            lp = joint_log_prob(net, full)
            if lp != -math.inf:
                total += math.exp(lp)
        out[combo] = total
    return out


def enum_conditional(net: BayesianNetwork, target: int, context: Assignment):
    f = enum_factor(net, (target,), context)
    total = sum(f.values())
    if total <= 0.0:
        return None
    return [f[(s,)] / total for s in range(net.cardinality(target))]


def enum_map_posterior(net: BayesianNetwork, x: Assignment, evidence: Assignment) -> float:
    pe = sum(enum_factor(net, (), evidence).values())
    combined = evidence.merged(x)
    px = sum(enum_factor(net, (), combined).values())
    if px == 0.0:
        return -math.inf
    return math.log(px) - math.log(pe)


def enum_best(net: BayesianNetwork, problem: MapProblem):
    """Exhaustive argmax of p(x, E) over the MAP set; lexicographically lowest
    configuration on ties. Returns (state tuple, ln p(x|E))."""
    f = enum_factor(net, problem.map_vars, problem.evidence)
    total = sum(f.values())
    best = max(sorted(f), key=lambda k: f[k])
    lp = -math.inf if f[best] == 0.0 else math.log(f[best]) - math.log(total)
    return best, lp


def random_problem(rng: random.Random, net: BayesianNetwork) -> MapProblem:
    """Benchmark-style problem: MAP set = all roots, evidence = all leaves
    (minus any isolated variables already in the MAP set), states from one
    prior forward sample."""
    from amap import forward_sample

    map_vars = net.roots()
    leaves = [v for v in net.leaves() if v not in map_vars]
    sample = forward_sample(net, rng)
    evidence = Assignment({v: sample[v] for v in leaves})
    return MapProblem(map_vars, evidence)
