import math
import random

import pytest

from amap import (
    Assignment,
    BayesianNetwork,
    Cpt,
    CycleError,
    MapProblem,
    Variable,
    topological_order,
)
from netgen import complete, joint_log_prob, random_network


def chain_net():
    variables = [
        Variable(0, "A", ("t", "f")),
        Variable(1, "B", ("t", "f")),
        Variable(2, "C", ("t", "f")),
    ]
    cpts = [
        Cpt(0, (), ((0.3, 0.7),)),
        Cpt(1, (0,), ((0.9, 0.1), (0.2, 0.8))),
        Cpt(2, (1,), ((0.5, 0.5), (0.4, 0.6))),
    ]
    return BayesianNetwork("chain", variables, cpts)


class TestTopologicalOrder:
    def test_singleton(self):
        net = BayesianNetwork("one", [Variable(0, "A", ("t", "f"))],
                              [Cpt(0, (), ((0.8, 0.2),))])
        assert topological_order(net) == (0,)

    def test_chain(self):
        assert topological_order(chain_net()) == (0, 1, 2)

    def test_cycle_raises(self):
        variables = [Variable(0, "A", ("t", "f")), Variable(1, "B", ("t", "f"))]
        cpts = [
            Cpt(0, (1,), ((0.5, 0.5), (0.5, 0.5))),
            Cpt(1, (0,), ((0.5, 0.5), (0.5, 0.5))),
        ]
        with pytest.raises(CycleError, match="A|B"):
            BayesianNetwork("cyclic", variables, cpts)

    def test_cycle_error_names_the_lowest_id_on_a_cycle(self):
        # 0 is a child of the cycle 1 -> 3 -> 2 -> 1 and the lowest stuck id
        names = ["D", "A", "B", "C"]
        variables = [Variable(i, name, ("t", "f")) for i, name in enumerate(names)]
        two_rows = ((0.5, 0.5), (0.5, 0.5))
        cpts = [Cpt(0, (3,), two_rows), Cpt(1, (2,), two_rows),
                Cpt(2, (3,), two_rows), Cpt(3, (1,), two_rows)]
        with pytest.raises(CycleError, match="through variable 'A'") as info:
            BayesianNetwork("cyclic", variables, cpts)
        assert info.value.variable == 1

    def test_respects_edges_on_random_nets(self):
        rng = random.Random(11)
        for _ in range(25):
            net = random_network(rng, rng.randint(2, 10))
            order = topological_order(net)
            assert sorted(order) == list(range(len(net)))
            pos = {v: i for i, v in enumerate(order)}
            for v in range(len(net)):
                for p in net.parents(v):
                    assert pos[p] < pos[v]


class TestJointLogProb:
    def test_sprinkler_chain_rule(self, sprinkler):
        # R=f, S=t, W=t selects 0.8 * 0.4 * 0.9
        full = Assignment({0: 1, 1: 0, 2: 0})
        assert joint_log_prob(sprinkler, full) == pytest.approx(math.log(0.288), rel=1e-12)

    def test_zero_entry_gives_minus_inf(self, sprinkler):
        # W=t with S=f, R=f hits the 0.0 CPT entry
        full = Assignment({0: 1, 1: 1, 2: 0})
        assert joint_log_prob(sprinkler, full) == -math.inf

    def test_one_variable(self):
        net = BayesianNetwork("one", [Variable(0, "A", ("t", "f"))],
                              [Cpt(0, (), ((0.8, 0.2),))])
        assert joint_log_prob(net, Assignment({0: 0})) == pytest.approx(math.log(0.8))

    def test_state_out_of_range_raises(self, sprinkler):
        with pytest.raises(ValueError, match="^state 2 out of range for 'Sprinkler'$"):
            joint_log_prob(sprinkler, Assignment({0: 0, 1: 2, 2: 0}))

    def test_unbound_variable_raises(self, sprinkler):
        with pytest.raises(ValueError, match="bind"):
            joint_log_prob(sprinkler, Assignment({0: 0}))

    def test_matches_product_of_entries(self):
        rng = random.Random(5)
        for _ in range(20):
            net = random_network(rng, rng.randint(1, 8))
            full = Assignment({v.id: rng.randrange(v.cardinality)
                               for v in net.variables})
            prod = 1.0
            for v in net.variables:
                row = net.cpts[v.id].table[net.row_index(v.id, full)]
                prod *= row[full[v.id]]
            lp = joint_log_prob(net, full)
            if prod == 0.0:
                assert lp == -math.inf
            else:
                assert math.exp(lp) == pytest.approx(prod, rel=1e-12)

    def test_sums_to_one_over_all_assignments(self):
        rng = random.Random(9)
        for _ in range(20):
            net = random_network(rng, rng.randint(1, 3), cards=(2, 2))
            total = sum(math.exp(joint_log_prob(net, full))
                        for full in complete(Assignment(), net))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestComplete:
    def test_full_assignment_yields_itself(self, sprinkler):
        full = Assignment({0: 0, 1: 1, 2: 0})
        out = list(complete(full, sprinkler))
        assert out == [full]

    def test_two_unbound_binary(self, sprinkler):
        out = list(complete(Assignment({2: 0}), sprinkler))
        assert len(out) == 4
        assert [(a[0], a[1]) for a in out] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_network(self):
        net = BayesianNetwork("empty", [], [])
        out = list(complete(Assignment(), net))
        assert len(out) == 1 and len(out[0]) == 0


class TestValidation:
    def test_row_sum_checked(self):
        with pytest.raises(ValueError, match="sums to"):
            BayesianNetwork("bad", [Variable(0, "A", ("t", "f"))],
                            [Cpt(0, (), ((0.8, 0.3),))])

    def test_entry_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            Cpt(0, (), ((1.2, -0.2),))

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Variable(0, "A", ("t", "t"))

    @pytest.mark.parametrize("name, states, message", [
        ("", ("t", "f"), "variable name must be nonempty"),
        ("A", (), "variable 'A' needs at least one state"),
        ("A", ("t", ""), "variable 'A' has an empty state name"),
    ], ids=["empty-name", "no-states", "empty-state"])
    def test_variable_rejected(self, name, states, message):
        with pytest.raises(ValueError) as info:
            Variable(0, name, states)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_unknown_name_lookup(self):
        with pytest.raises(KeyError) as info:
            chain_net().by_name("D")
        assert info.value.args == ("unknown variable 'D'",)

    def test_duplicate_names_rejected(self):
        variables = [Variable(0, "A", ("t", "f")), Variable(1, "A", ("t", "f"))]
        cpts = [Cpt(0, (), ((0.5, 0.5),)), Cpt(1, (), ((0.5, 0.5),))]
        with pytest.raises(ValueError, match="unique"):
            BayesianNetwork("dup", variables, cpts)

    def test_repeated_parent_rejected(self):
        variables = [Variable(0, "A", ("t", "f")), Variable(1, "C", ("t", "f"))]
        cpts = [Cpt(0, (), ((0.6, 0.4),)),
                Cpt(1, (0, 0), ((0.9, 0.1), (0.5, 0.5), (0.5, 0.5), (0.2, 0.8)))]
        with pytest.raises(ValueError, match="lists parent 'A' twice"):
            BayesianNetwork("dup", variables, cpts)

    def test_map_problem_disjointness(self):
        with pytest.raises(ValueError, match="both"):
            MapProblem((0,), Assignment({0: 1}))

    def test_map_problem_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            MapProblem((), Assignment())

    def test_map_problem_duplicate_rejected(self):
        with pytest.raises(ValueError, match="^duplicate MAP variable$"):
            MapProblem((0, 1, 0), Assignment())

    @pytest.mark.parametrize("variables, cpts, message", [
        ([Variable(0, "A", ("t", "f")), Variable(2, "B", ("t", "f"))],
         [Cpt(0, (), ((0.5, 0.5),)), Cpt(1, (), ((0.5, 0.5),))],
         r"variable ids must be dense 0\.\.1; got 2 at 1"),
        ([Variable(0, "A", ("t", "f")), Variable(1, "B", ("t", "f"))],
         [Cpt(0, (), ((0.5, 0.5),))],
         "expected 2 cpts, got 1"),
        ([Variable(0, "A", ("t", "f")), Variable(1, "B", ("t", "f"))],
         [Cpt(0, (), ((0.5, 0.5),)), Cpt(0, (), ((0.4, 0.6),))],
         "exactly one cpt per variable is required"),
        ([Variable(0, "A", ("t", "f")), Variable(1, "B", ("t", "f"))],
         [Cpt(0, (), ((0.5, 0.5),)), Cpt(1, (5,), ((0.5, 0.5), (0.5, 0.5)))],
         "cpt for 'B' references unknown parent 5"),
    ], ids=["sparse-ids", "cpt-count", "two-cpts-one-child", "unknown-parent"])
    def test_network_shape_rejected(self, variables, cpts, message):
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            BayesianNetwork("bad", variables, cpts)
        assert type(info.value) is ValueError
