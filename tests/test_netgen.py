"""The workload networks of `netgen`: bip-N and layered-N."""

import random

import pytest

import amap
from amap import brute_force_map
from netgen import bip_network, bip_problem, enum_best, layered_network, layered_problem


def _draw(make, make_problem, seed, n, monkeypatch):
    """The network and problem drawn from Random(seed), with the prior
    samples the problem drew."""
    samples = []
    forward_sample = amap.forward_sample
    monkeypatch.setattr(amap, "forward_sample",
                        lambda net, rng: samples.append(forward_sample(net, rng)) or samples[-1])
    rng = random.Random(seed)
    net = make(rng, n)
    return net, make_problem(rng, net), samples


def _check_common(net, problem, samples):
    """Binary variables, every row in [0.1, 0.9], and evidence states read
    from the problem's one prior sample."""
    assert all(v.cardinality == 2 for v in net.variables)
    assert all(0.1 <= p <= 0.9 for cpt in net.cpts for row in cpt.table for p in row)
    assert len(samples) == 1
    assert problem.evidence == {v: samples[0][v] for v in problem.evidence}


class TestBip:
    @pytest.mark.parametrize("n", [8, 60])
    def test_shape(self, n, monkeypatch):
        net, problem, samples = _draw(bip_network, bip_problem, 5, n, monkeypatch)
        roots, leaves = range(n), range(n, n + 3 * n // 2)
        assert len(net) == len(roots) + len(leaves)
        assert [net.parents(v) for v in roots] == [()] * n
        for v in leaves:
            parents = net.parents(v)
            assert len(parents) == len(set(parents)) == 2
            assert set(parents) <= set(roots)
        assert len(problem.map_vars) == n // 2
        assert set(problem.map_vars) <= set(roots)
        assert len(problem.evidence) == 2 * len(leaves) // 3
        assert set(problem.evidence) <= set(leaves)
        _check_common(net, problem, samples)

    def test_oracle_matches_enumeration_on_bip_8(self):
        rng = random.Random(5)
        net = bip_network(rng, 8)
        problem = bip_problem(rng, net)
        report = brute_force_map(net, problem)
        want, want_logp = enum_best(net, problem)
        assert tuple(map(report.best.__getitem__, problem.map_vars)) == want
        assert report.logp == pytest.approx(want_logp, rel=0.0, abs=1e-9)


class TestLayered:
    @pytest.mark.parametrize("n, seed", [(3, 0), (30, 0), (30, 1)])
    def test_shape(self, n, seed, monkeypatch):
        net, problem, samples = _draw(layered_network, layered_problem, seed, n, monkeypatch)
        roots, middle = range(n), range(n, 2 * n)
        leaves = range(2 * n, 2 * n + 3 * n // 2)
        assert len(net) == len(roots) + len(middle) + len(leaves)
        assert [net.parents(v) for v in roots] == [()] * n
        for layer, above in ((middle, roots), (leaves, middle)):
            for v in layer:
                parents = net.parents(v)
                assert len(parents) == len(set(parents)) == 2
                assert set(parents) <= set(above)
        assert problem.map_vars == tuple(roots)
        assert sorted(problem.evidence) == list(leaves)
        _check_common(net, problem, samples)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_matches_enumeration_on_layered_3(self, seed):
        rng = random.Random(seed)
        net = layered_network(rng, 3)
        problem = layered_problem(rng, net)
        report = brute_force_map(net, problem)
        want, want_logp = enum_best(net, problem)
        assert tuple(map(report.best.__getitem__, problem.map_vars)) == want
        assert report.logp == pytest.approx(want_logp, rel=0.0, abs=1e-9)
