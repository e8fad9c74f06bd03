"""Golden answers of seeded `amap solve` runs on `netgen` networks.

A change to how a solver scores its states or moves can flip a near-tie and
so an answer. The benchmark's answer digest would show that, but only when
the benchmark runs; these cases make it fail the test suite. If a change
alters one of them on purpose, re-record it and say why the answer moved.
"""

import random

import pytest

from amap.cli import generate_problem, main
from amap.fileio import serialize_network, serialize_problem
from netgen import layered_network, layered_problem, random_network

# (network seed, variables, MAP count, evidence count, problem seed)
NETWORKS = {
    "r120": (7, 120, 20, 20, 0),
    "r120b": (7, 120, 20, 20, 3),
    "r80": (130, 80, 16, 26, 131),
    "r60": (93, 60, 12, 20, 94),
    "r45": (47, 45, 9, 15, 48),
    "r30": (82, 30, 6, 10, 83),
    "r20": (224, 20, 4, 6, 225),
}
# layered-n, the classic hard shape for MAP, drawn with its problem from one
# Random(seed): (seed, n)
LAYERED = {
    "layered30": (0, 30),
}

# (network, algorithm, solver seed, restarts) -> (the state index of each
# MAP variable in map-variable order, log10_p, sweeps, reheats)
GOLDEN = {
    ('r120', 'anneal', 11, 1): ('01002201012100000111', '-4.65409483518', 20, 1),
    ('r120', 'hillclimb', 0, 1): ('01002201012100000111', '-4.65409483518', 0, 0),
    ('r120b', 'anneal', 11, 1): ('21001100021100000111', '-3.93077183138', 21, 1),
    ('r120b', 'hillclimb', 0, 1): ('21001100021100000111', '-3.93077183138', 1, 0),
    ('r80', 'anneal', 11, 1): ('2102001000020202', '-3.73478012418', 34, 2),
    ('r80', 'anneal', 5, 3): ('2102001000020202', '-3.73478012418', 73, 3),
    ('r80', 'hillclimb', 0, 1): ('2102001000020202', '-3.73478012418', 1, 0),
    ('r60', 'anneal', 11, 1): ('22011112100', '-2.46684719698', 34, 1),
    ('r60', 'anneal', 5, 3): ('22011112100', '-2.46684719698', 68, 3),
    ('r60', 'hillclimb', 0, 1): ('22011112100', '-2.46684719698', 2, 0),
    ('r45', 'anneal', 11, 1): ('100221122', '-2.51336895597', 22, 1),
    ('r45', 'anneal', 5, 3): ('100221122', '-2.51336895597', 86, 4),
    ('r45', 'hillclimb', 0, 1): ('100221122', '-2.51336895597', 1, 0),
    ('r30', 'anneal', 11, 1): ('101110', '-1.56323190762', 21, 1),
    ('r30', 'anneal', 5, 3): ('101110', '-1.56323190762', 68, 3),
    ('r30', 'hillclimb', 0, 1): ('101110', '-1.56323190762', 1, 0),
    ('r20', 'anneal', 11, 1): ('0100', '-1.02322756134', 25, 1),
    ('r20', 'anneal', 5, 3): ('0100', '-1.02322756134', 64, 3),
    ('r20', 'hillclimb', 0, 1): ('0100', '-1.02322756134', 1, 0),
    ('layered30', 'anneal', 11, 1): ('001000000001000010100101101011', '-4.4830329232', 21, 1),
    ('layered30', 'anneal', 5, 3): ('001000000001000010100101101011', '-4.4830329232', 92, 3),
    ('layered30', 'hillclimb', 0, 1): ('001000000001000010100101101011', '-4.4830329232', 1, 0),
}


def _instance(name):
    if name in LAYERED:
        seed, n = LAYERED[name]
        rng = random.Random(seed)
        net = layered_network(rng, n)
        return net, layered_problem(rng, net)
    net_seed, n_vars, n_map, n_evid, problem_seed = NETWORKS[name]
    net = random_network(random.Random(net_seed), n_vars, max_parents=3, cards=(2, 3))
    return net, generate_problem(net, n_map, n_evid, random.Random(problem_seed))


def _solve(tmp_path, capsys, name, algo, seed, restarts):
    net, problem = _instance(name)
    net_path, prob_path = tmp_path / f"{name}.bnet", tmp_path / f"{name}.prob"
    net_path.write_text(serialize_network(net))
    prob_path.write_text(serialize_problem(problem, net))
    capsys.readouterr()
    assert main(["solve", "--net", str(net_path), "--problem", str(prob_path),
                 "--algo", algo, "--seed", str(seed), "--restarts", str(restarts)]) == 0
    lines = capsys.readouterr().out.splitlines()
    states = "".join(str(net.variables[v].states.index(line.rsplit("=", 1)[1]))
                     for v, line in zip(problem.map_vars, lines))
    tail = dict(line.split(" = ") for line in lines[len(problem.map_vars):])
    return states, tail["log10_p"], int(tail["sweeps"]), int(tail["reheats"])


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_seeded_solve_answers(tmp_path, capsys, case):
    assert _solve(tmp_path, capsys, *case) == GOLDEN[case]
