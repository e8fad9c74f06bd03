"""MAP inference toolkit for discrete Bayesian networks: an annealed Gibbs
solver, exact variable-elimination inference, an exact MAP oracle, and a
benchmark harness."""

from .engine import (
    Component,
    Factor,
    ImpossibleContextError,
    InconsistentEvidenceError,
    PrunedNetwork,
    WidthCapError,
    conditional,
    eliminate,
    forward_sample,
    map_posterior,
    prune,
)
from .fileio import (
    ParseError,
    ReportRow,
    parse_network,
    parse_problem,
    serialize_network,
    serialize_problem,
    write_report,
)
from .model import (
    Assignment,
    BayesianNetwork,
    Cpt,
    CycleError,
    MapProblem,
    Variable,
    topological_order,
)
from .solver import (
    AnnealSchedule,
    SolveReport,
    acceptance_probability,
    annealed_map,
    brute_force_map,
    geometric_cool,
    gibbs_chain,
    hill_climb_map,
    reheat_temperature,
    sequential_init,
    specific_heat,
)

__version__ = "0.1.0"
