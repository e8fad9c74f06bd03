"""Core data model: discrete Bayesian networks, CPTs, and assignments.

Probabilities are stored linearly in CPT rows but combined in natural-log
domain everywhere downstream; -inf stands for probability zero.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROW_SUM_TOL = 1e-6


class CycleError(ValueError):
    """The parent relation contains a directed cycle; `variable` is the
    lowest id on one of its cycles, which the message names."""

    def __init__(self, message: str, variable: int) -> None:
        super().__init__(message)
        self.variable = variable


@dataclass(frozen=True)
class Variable:
    """A discrete variable with an ordered list of state names."""

    id: int
    name: str
    states: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if not self.name:
            raise ValueError("variable name must be nonempty")
        if len(self.states) < 1:
            raise ValueError(f"variable {self.name!r} needs at least one state")
        if not all(self.states):
            raise ValueError(f"variable {self.name!r} has an empty state name")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"variable {self.name!r} has duplicate state names")

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Cpt:
    """p(child | parents); rows enumerate parent configurations row-major
    with the last-listed parent varying fastest."""

    child: int
    parents: Tuple[int, ...]
    table: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))
        for row in self.table:
            for p in row:
                if not (0.0 <= p <= 1.0):
                    raise ValueError(f"cpt entry {p} outside [0, 1]")


def _unchecked(cls: type, *values: object) -> object:
    """An instance of the frozen dataclass `cls` with `values` as its fields,
    in order, made without `__post_init__`: for values taken from instances
    that passed its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def check_table(cpt: Cpt, variables: Sequence[Variable]) -> None:
    """Check a CPT's parents, shape and rows against the variables it names:
    no parent listed twice, one row per parent configuration, one entry per
    child state, each row summing to 1 within ROW_SUM_TOL. (Cpt itself
    checks that entries lie in [0, 1].) Raises ValueError."""
    child = variables[cpt.child]
    card = child.cardinality
    for i, p in enumerate(cpt.parents):
        if p in cpt.parents[:i]:
            raise ValueError(f"cpt for {child.name!r} lists parent {variables[p].name!r} twice")
    n_rows = 1
    for p in cpt.parents:
        n_rows *= variables[p].cardinality
    if len(cpt.table) != n_rows:
        raise ValueError(
            f"cpt for {child.name!r} has {len(cpt.table)} rows, expected {n_rows}")
    for i, row in enumerate(cpt.table):
        if len(row) != card:
            raise ValueError(
                f"cpt for {child.name!r}, row {i + 1}: {len(row)} entries, expected {card}")
        s = math.fsum(row)
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"cpt for {child.name!r}: row sums to {s:.6g}")


# A partial or full mapping from variable id to state index.
Assignment = dict


class BayesianNetwork:
    """Immutable DAG of discrete variables with one CPT per variable."""

    def __init__(self, name: str, variables: Sequence[Variable], cpts: Sequence[Cpt]) -> None:
        variables = tuple(variables)
        n = len(variables)
        for i, v in enumerate(variables):
            if v.id != i:
                raise ValueError(f"variable ids must be dense 0..{n - 1}; got {v.id} at {i}")
        if len({v.name for v in variables}) != n:
            raise ValueError("variable names must be unique")
        if len(cpts) != n:
            raise ValueError(f"expected {n} cpts, got {len(cpts)}")
        by_child = {c.child: c for c in cpts}
        if len(by_child) != n or set(by_child) != set(range(n)):
            raise ValueError("exactly one cpt per variable is required")
        cpts = tuple(by_child[i] for i in range(n))
        for cpt in cpts:
            for p in cpt.parents:
                if not (0 <= p < n):
                    raise ValueError(f"cpt for {variables[cpt.child].name!r} references unknown parent {p}")
        for cpt in cpts:
            check_table(cpt, variables)
        self._assemble(name, variables, cpts)

    @classmethod
    def _checked(cls, name: str, variables: Tuple[Variable, ...], cpts: Tuple[Cpt, ...],
                 children: Optional[Tuple[Tuple[int, ...], ...]] = None,
                 order: Optional[Tuple[int, ...]] = None) -> "BayesianNetwork":
        """The network of variables and CPTs that already pass every check
        of the constructor but the cycle search: dense ids, unique names,
        CPT v at index v, parents in range and `check_table`."""
        net = cls.__new__(cls)
        net._assemble(name, variables, cpts, children, order)
        return net

    def _assemble(self, name: str, variables: Tuple[Variable, ...], cpts: Tuple[Cpt, ...],
                  children: Optional[Tuple[Tuple[int, ...], ...]] = None,
                  order: Optional[Tuple[int, ...]] = None) -> None:
        """Set the fields of a network of checked variables and CPTs. The
        child lists and the topological order, which raises CycleError, are
        worked out unless given: a pruned component takes its parent's,
        restricted and renumbered."""
        self.name = name
        self.variables = variables
        self.cpts = cpts
        self._by_name = {v.name: v.id for v in variables}
        # engine's per-network invariants: each variable's cardinality and
        # each CPT's full scope, its parents then its child
        self._cards = tuple([len(v.states) for v in variables])
        self._scopes = tuple([cpt.parents + (cpt.child,) for cpt in cpts])
        if children is None:
            # CPTs come in child order, so each list is sorted
            lists: List[List[int]] = [[] for _ in variables]
            for cpt in cpts:
                for p in cpt.parents:
                    lists[p].append(cpt.child)
            children = tuple(map(tuple, lists))
        self._children = children
        self._order = topological_order(self) if order is None else order
        # engine's compiled elimination plans, each its final step node,
        # and the CPT arrays, masked indicator CPTs and graph of step nodes
        # they share
        self._plans: Dict[object, object] = {}

    def __getstate__(self) -> Dict[str, object]:
        """The network without its compiled plans, which a copy recompiles
        on first use."""
        return {**self.__dict__, "_plans": {}}

    # -- lookups -----------------------------------------------------------

    def var(self, var_id: int) -> Variable:
        return self.variables[var_id]

    def by_name(self, name: str) -> Variable:
        try:
            return self.variables[self._by_name[name]]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def cardinality(self, var_id: int) -> int:
        return self._cards[var_id]

    def parents(self, var_id: int) -> Tuple[int, ...]:
        return self.cpts[var_id].parents

    def children(self, var_id: int) -> Tuple[int, ...]:
        return self._children[var_id]

    def roots(self) -> Tuple[int, ...]:
        return tuple(v.id for v in self.variables if not self.cpts[v.id].parents)

    def leaves(self) -> Tuple[int, ...]:
        return tuple(v.id for v in self.variables if not self._children[v.id])

    def order(self) -> Tuple[int, ...]:
        return self._order

    def __len__(self) -> int:
        return len(self.variables)

    def row_index(self, var_id: int, assignment: Assignment) -> int:
        """Row of var's CPT selected by the parent states in `assignment`."""
        idx = 0
        for p in self.cpts[var_id].parents:
            idx = idx * self._cards[p] + assignment[p]
        return idx

    def __repr__(self) -> str:
        return f"BayesianNetwork({self.name!r}, {len(self.variables)} variables)"


@dataclass(frozen=True)
class MapProblem:
    """MAP query: target variables and fixed evidence, disjoint sets."""

    map_vars: Tuple[int, ...]
    evidence: Assignment

    def __post_init__(self) -> None:
        object.__setattr__(self, "map_vars", tuple(self.map_vars))
        if len(set(self.map_vars)) != len(self.map_vars):
            raise ValueError("duplicate MAP variable")
        if not self.map_vars:
            raise ValueError("at least one MAP variable required")
        overlap = set(self.map_vars) & set(self.evidence.keys())
        if overlap:
            raise ValueError(f"variables {sorted(overlap)} appear in both map and evidence")

    def validate_for(self, net: BayesianNetwork) -> None:
        check_context(net, self.evidence, self.map_vars)


def check_context(net: BayesianNetwork, context: Assignment, free: Iterable[int] = ()) -> None:
    """Raise ValueError unless every variable in `free` and in `context` is
    one of `net`'s and every state `context` binds is one of its variable's.
    Ids and states are Python or numpy integers; a bool is refused."""
    n = len(net)
    # a plain int passes without the slower check against Integral
    for v in itertools.chain(free, context.keys()):
        if not (type(v) is int or isinstance(v, Integral) and not isinstance(v, bool)) \
                or not 0 <= v < n:
            raise ValueError(f"variable {v!r} not in network {net.name!r}")
    for v, s in context.items():
        if not (type(s) is int or isinstance(s, Integral) and not isinstance(s, bool)) \
                or not 0 <= s < net._cards[v]:
            raise ValueError(f"state {s!r} out of range for {net.var(v).name!r}")


def topological_order(net: BayesianNetwork) -> Tuple[int, ...]:
    """Parents-before-children order, ties broken by lowest variable id."""
    n = len(net.variables)
    indeg = [len(net.cpts[i].parents) for i in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in net.children(v):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != n:
        # a variable left out has a parent left out: follow the first such
        # parent from the lowest such id until a variable repeats
        path = [min(i for i in range(n) if indeg[i] > 0)]
        while True:
            v = next(p for p in net.parents(path[-1]) if indeg[p] > 0)
            if v in path:
                break
            path.append(v)
        stuck = min(path[path.index(v):])
        raise CycleError(f"cycle detected through variable {net.variables[stuck].name!r}",
                         stuck)
    return tuple(out)

