"""Test-side helpers: random network generation and exhaustive-enumeration
oracles. The oracles use only the model layer, through `complete` and
`joint_log_prob` below, never the elimination engine they are checking
against."""

import itertools
import math
import random
from typing import Iterator, Sequence, Tuple

from amap import Assignment, BayesianNetwork, Cpt, MapProblem, Variable


def joint_log_prob(net: BayesianNetwork, full: Assignment) -> float:
    """ln p(z) under the chain-rule factorization; -inf if any factor is 0."""
    total = 0.0
    for v in net.variables:
        if v.id not in full:
            raise ValueError(f"assignment does not bind variable {v.name!r}")
        state = full[v.id]
        if not (0 <= state < v.cardinality):
            raise ValueError(f"state {state} out of range for {v.name!r}")
    for v in net.variables:
        row = net.cpts[v.id].table[net.row_index(v.id, full)]
        p = row[full[v.id]]
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


def complete(partial: Assignment, net: BayesianNetwork) -> Iterator[Assignment]:
    """All full assignments extending `partial`, in lexicographic order of the
    unbound variables' state indices (unbound variables ordered by id)."""
    unbound = [v.id for v in net.variables if v.id not in partial]
    for combo in itertools.product(*(range(net.cardinality(v)) for v in unbound)):
        full = partial.copy()
        for v, s in zip(unbound, combo):
            full[v] = s
        yield full


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


def chain_network(rng: random.Random, n_roots: int) -> BayesianNetwork:
    """`n_roots` binary roots (ids 0 .. n_roots - 1) and, for each two
    neighbours, a binary leaf with both as parents. With every root MAP and
    every leaf observed (`random_problem`), it prunes to one component whose
    MAP space has 2^n_roots configurations while its elimination stays
    narrow."""
    variables = [Variable(i, f"r{i}", ("t", "f")) for i in range(n_roots)]
    variables += [Variable(n_roots + i, f"l{i}", ("t", "f")) for i in range(n_roots - 1)]
    cpts = []
    for i in range(n_roots):
        p = rng.uniform(0.2, 0.8)
        cpts.append(Cpt(i, (), ((p, 1.0 - p),)))
    for i in range(n_roots - 1):
        rows = tuple((p, 1.0 - p) for p in (rng.uniform(0.05, 0.95) for _ in range(4)))
        cpts.append(Cpt(n_roots + i, (i, i + 1), rows))
    return BayesianNetwork("chain", variables, cpts)


def _binary_cpt(rng: random.Random, child: int, parents: Tuple[int, ...]) -> Cpt:
    """A binary child's CPT over binary parents, each row (p, 1 - p) with p
    drawn from U(0.1, 0.9)."""
    rows = tuple((p, 1.0 - p) for p in (rng.uniform(0.1, 0.9) for _ in range(2 ** len(parents))))
    return Cpt(child, parents, rows)


def _binary_network(name: str, names: Sequence[str], parents: Sequence[Tuple[int, ...]],
                    rng: random.Random) -> BayesianNetwork:
    """Binary variables `names[i]` with parents `parents[i]`, CPTs drawn in id
    order by `_binary_cpt`."""
    variables = [Variable(i, n, ("t", "f")) for i, n in enumerate(names)]
    return BayesianNetwork(name, variables,
                           [_binary_cpt(rng, i, ps) for i, ps in enumerate(parents)])


def _sampled_problem(rng: random.Random, net: BayesianNetwork, map_vars: Sequence[int],
                     evid_vars: Sequence[int]) -> MapProblem:
    """MAP set `map_vars`, evidence on `evid_vars` set from one prior
    forward sample, drawn after everything else."""
    from amap import forward_sample

    sample = forward_sample(net, rng)
    return MapProblem(tuple(map_vars), Assignment({v: sample[v] for v in evid_vars}))


def coupled_chain_network(rng: random.Random, n: int) -> BayesianNetwork:
    """`n` binary roots r_i (ids 0 .. n - 1) and a binary hidden chain h_i
    (id n + i) with parents (h_{i-1}, r_i), h_0's parent r_0 alone. With
    every root MAP and the last h observed (`coupled_chain_problem`),
    summing out the chain leaves a table over all n roots, so the oracle's
    table has 2^n entries, while a site conditional stays narrow."""
    parents = [()] * n + [(n + i - 1, i) if i else (0,) for i in range(n)]
    return _binary_network("coupled", [f"r{i}" for i in range(n)] + [f"h{i}" for i in range(n)],
                           parents, rng)


def coupled_chain_problem(rng: random.Random, net: BayesianNetwork) -> MapProblem:
    """Every root MAP, the last chain variable observed."""
    n = len(net) // 2
    return _sampled_problem(rng, net, range(n), [2 * n - 1])


def bip_network(rng: random.Random, n: int) -> BayesianNetwork:
    """bip-n: `n` binary roots (ids 0 .. n - 1) and 1.5·n binary leaves,
    each with two distinct root parents."""
    leaves = 3 * n // 2
    parents = [()] * n + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(leaves)]
    return _binary_network(f"bip{n}", [f"r{i}" for i in range(n)] + [f"l{i}" for i in range(leaves)],
                           parents, rng)


def bip_problem(rng: random.Random, net: BayesianNetwork) -> MapProblem:
    """Half the roots MAP, two thirds of the 1.5·n leaves evidence (a root
    that no leaf reads is a leaf of the DAG too, but never evidence)."""
    roots = [v for v in range(len(net)) if not net.parents(v)]
    leaves = [v for v in range(len(net)) if net.parents(v)]
    map_vars = sorted(rng.sample(roots, len(roots) // 2))
    evid_vars = sorted(rng.sample(leaves, 2 * len(leaves) // 3))
    return _sampled_problem(rng, net, map_vars, evid_vars)


def layered_network(rng: random.Random, n: int) -> BayesianNetwork:
    """layered-n: `n` binary roots (ids 0 .. n - 1), `n` binary hidden middle
    variables, each with two distinct root parents, and 1.5·n binary
    leaves, each with two distinct middle parents. Summing out the middle
    layer couples the roots."""
    leaves = 3 * n // 2
    parents = ([()] * n + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)] +
               [tuple(sorted(rng.sample(range(n, 2 * n), 2))) for _ in range(leaves)])
    names = ([f"r{i}" for i in range(n)] + [f"m{i}" for i in range(n)] +
             [f"l{i}" for i in range(leaves)])
    return _binary_network(f"layered{n}", names, parents, rng)


def layered_problem(rng: random.Random, net: BayesianNetwork) -> MapProblem:
    """Every root MAP, each of the 1.5·n leaves evidence (a root or middle
    variable that nothing reads is a leaf of the DAG too, but never
    evidence)."""
    n = len(net.roots())
    return _sampled_problem(rng, net, range(n), range(2 * n, len(net)))


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
    keep = tuple(keep)
    out = {}
    for combo in itertools.product(*(range(net.cardinality(v)) for v in keep)):
        partial = evidence.copy()
        for v, s in zip(keep, combo):
            partial[v] = s
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
    combined = {**evidence, **x}
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


def scan_draw(dist, u: float) -> int:
    """The state a variate u draws from the distribution `dist` by a linear
    scan: the first state whose running sum, added one by one from 0.0,
    exceeds u, or the last state with mass if none does."""
    acc = 0.0
    for i, p in enumerate(dist):
        acc += p
        if u < acc:
            return i
    return max(i for i, p in enumerate(dist) if p != 0.0)


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


def relabelled(net: BayesianNetwork) -> BayesianNetwork:
    """The same network with its variable ids reversed: variable v becomes
    n - 1 - v, a map that is its own inverse. Names, states, parent order
    and tables are unchanged, so every probability is the same, but min-fill
    meets the variables, and breaks its ties, in the opposite order."""
    n = len(net)
    variables = [Variable(n - 1 - v.id, v.name, v.states) for v in reversed(net.variables)]
    cpts = [Cpt(n - 1 - c.child, tuple(n - 1 - p for p in c.parents), c.table)
            for c in net.cpts]
    return BayesianNetwork(net.name, variables, cpts)
