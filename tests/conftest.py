import pytest

from amap import BayesianNetwork, ImpossibleContextError, engine, parse_network, parse_problem

SPRINKLER_TEXT = """\
network sprinkler
var Rain { t, f }
var Sprinkler { t, f }
var WetGrass { t, f }
cpt Rain { 0.2 0.8 }
cpt Sprinkler | Rain { 0.01 0.99 ; 0.4 0.6 }
cpt WetGrass | Sprinkler Rain { 0.99 0.01 ; 0.9 0.1 ; 0.8 0.2 ; 0.0 1.0 }
"""

SPRINKLER_PROBLEM_TEXT = "map Sprinkler Rain\nevidence WetGrass=t\n"

# Two MAP roots feeding an observed child. The sequential initializer picks
# A=a0 (marginally best given C=c0), then B=b0, landing on the strict local
# optimum with p(A,B,C=c0) = 0.30 while the global optimum (a1, b1) has 0.32.
# Single-variable moves from (a0, b0) only reach 0.10 and 0.05, so hill
# climbing is stuck there.
LOCAL_OPT_TEXT = """\
network trap
var A { a0, a1 }
var B { b0, b1 }
var C { c0, c1 }
cpt A { 0.45 0.55 }
cpt B | A { 0.75 0.25 ; 0.2 0.8 }
cpt C | A B { 0.888889 0.111111 ; 0.888889 0.111111 ; 0.454545 0.545455 ; 0.727273 0.272727 }
"""

LOCAL_OPT_PROBLEM_TEXT = "map A B\nevidence C=c0\n"

# C's CPT lists parent A twice; its four rows match card(A)^2, so only the
# repeated-parent check rejects it (at the child token, line 5 column 5).
REPEATED_PARENT_TEXT = """\
network dup
var A { t, f }
var C { t, f }
cpt A { 0.6 0.4 }
cpt C | A A { 0.9 0.1 ; 0.5 0.5 ; 0.5 0.5 ; 0.2 0.8 }
"""

# A and B are each other's parent; the cycle is found once every CPT is
# read and reported at A's CPT, the lowest id on it (line 4 column 5).
CYCLE_TEXT = """\
network cyc
var A { t, f }
var B { t, f }
cpt A | B { 0.5 0.5 ; 0.5 0.5 }
cpt B | A { 0.5 0.5 ; 0.5 0.5 }
"""

# C = f has probability zero whatever A is, so evidence C=f is impossible.
ZERO_EVIDENCE_TEXT = """\
network zero
var A { t, f }
var C { t, f }
cpt A { 0.5 0.5 }
cpt C | A { 1.0 0.0 ; 1.0 0.0 }
"""

ZERO_EVIDENCE_PROBLEM_TEXT = "map A\nevidence C=f\n"

# Two components, A -> B and C -> D. With MAP set {A}, pruning discards the
# C -> D component, whose evidence D=f is still impossible: C = t surely,
# and p(D=f | C=t) = 0. With D=t instead, that component has zero entries
# but p(D=t) = 1.
DISCARDED_ZERO_TEXT = """\
network split
var A { t, f }
var B { t, f }
var C { t, f }
var D { t, f }
cpt A { 0.6 0.4 }
cpt B | A { 0.7 0.3 ; 0.2 0.8 }
cpt C { 1.0 0.0 }
cpt D | C { 1.0 0.0 ; 0.5 0.5 }
"""

DISCARDED_ZERO_PROBLEM_TEXT = "map A\nevidence B=t D=f\n"


@pytest.fixture
def sprinkler():
    return parse_network(SPRINKLER_TEXT)


@pytest.fixture
def sprinkler_problem(sprinkler):
    return parse_problem(SPRINKLER_PROBLEM_TEXT, sprinkler)


@pytest.fixture
def trap_net():
    return parse_network(LOCAL_OPT_TEXT)


@pytest.fixture
def trap_problem(trap_net):
    return parse_problem(LOCAL_OPT_PROBLEM_TEXT, trap_net)


def shared_order(net, problem):
    """The one order of the hidden variables that the problem's site plans
    share, from its definition: min-fill over the variables neither MAP nor
    evidence, on the CPT scopes without the evidence and the MAP variables
    as one more clique."""
    ev = problem.evidence
    scopes = [tuple(v for v in cpt.parents + (cpt.child,) if v not in ev) for cpt in net.cpts]
    hidden = set(range(len(net))) - set(ev) - set(problem.map_vars)
    order, _ = engine._min_fill_order(scopes + [problem.map_vars], hidden,
                                      [v.cardinality for v in net.variables])
    return tuple(order)


def reference_site(net, problem, j, context):
    """p(x_j | context), for a context that binds the evidence and every MAP
    variable (j too, or not), computed from scratch with the bits a site
    record's `dist` must have: on a rebuilt copy of `net`, by j's plan on
    `shared_order`, normalised by its total. Raises ImpossibleContextError
    if that total is zero."""
    rebuilt = BayesianNetwork(net.name, net.variables, net.cpts)
    context = {v: s for v, s in context.items() if v != j}
    plan = engine._plan(rebuilt, (j,), frozenset(context), order=shared_order(net, problem))
    f = engine._factor(plan, context)
    if f.total() <= 0.0:
        raise ImpossibleContextError("context has probability zero")
    return f.values / f.total()
