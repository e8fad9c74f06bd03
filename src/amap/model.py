"""Core data model: discrete Bayesian networks, CPTs, and assignments.

Probabilities are stored linearly in CPT rows but combined in natural-log
domain everywhere downstream; -inf stands for probability zero.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

ROW_SUM_TOL = 1e-6


class CycleError(ValueError):
    """The parent relation contains a directed cycle."""


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
        if any(not s for s in self.states):
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
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        for row in self.table:
            for p in row:
                if not (0.0 <= p <= 1.0):
                    raise ValueError(f"cpt entry {p} outside [0, 1]")


def check_table(cpt: Cpt, variables: Sequence[Variable]) -> None:
    """Check a CPT's shape and rows against the variables it names: one row
    per parent configuration, one entry per child state, each row summing
    to 1 within ROW_SUM_TOL. (Cpt itself checks that entries lie in [0, 1].)
    Raises ValueError."""
    child = variables[cpt.child]
    n_rows = 1
    for p in cpt.parents:
        n_rows *= variables[p].cardinality
    if len(cpt.table) != n_rows:
        raise ValueError(
            f"cpt for {child.name!r} has {len(cpt.table)} rows, expected {n_rows}")
    for i, row in enumerate(cpt.table):
        if len(row) != child.cardinality:
            raise ValueError(
                f"cpt for {child.name!r}, row {i + 1}: {len(row)} entries, "
                f"expected {child.cardinality}")
        s = math.fsum(row)
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"cpt for {child.name!r}: row sums to {s:.6g}")


class Assignment:
    """A partial or full mapping from variable id to state index.

    Value-like: copy freely, compare by contents.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[int, int]] = None) -> None:
        self._bindings: Dict[int, int] = dict(bindings or {})

    @property
    def bindings(self) -> Dict[int, int]:
        return dict(self._bindings)

    def set(self, var: int, state: int) -> None:
        self._bindings[var] = state

    def discard(self, var: int) -> None:
        self._bindings.pop(var, None)

    def copy(self) -> "Assignment":
        return Assignment(self._bindings)

    def merged(self, other: "Assignment") -> "Assignment":
        out = self.copy()
        out._bindings.update(other._bindings)
        return out

    def restricted(self, vars: Iterable[int]) -> "Assignment":
        keep = set(vars)
        return Assignment({v: s for v, s in self._bindings.items() if v in keep})

    def items(self) -> Iterable[Tuple[int, int]]:
        return self._bindings.items()

    def keys(self):
        return self._bindings.keys()

    def as_tuple(self, order: Sequence[int]) -> Tuple[int, ...]:
        return tuple(map(self._bindings.__getitem__, order))

    def states(self, order: Sequence[int]) -> Tuple[Optional[int], ...]:
        """`as_tuple` with None for each unbound variable."""
        return tuple(map(self._bindings.get, order))

    def __getitem__(self, var: int) -> int:
        return self._bindings[var]

    def __contains__(self, var: int) -> bool:
        return var in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._bindings == other._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{s}" for v, s in sorted(self._bindings.items()))
        return f"Assignment({{{inner}}})"


class BayesianNetwork:
    """Immutable DAG of discrete variables with one CPT per variable."""

    def __init__(self, name: str, variables: Sequence[Variable], cpts: Sequence[Cpt]) -> None:
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        n = len(self.variables)
        for i, v in enumerate(self.variables):
            if v.id != i:
                raise ValueError(f"variable ids must be dense 0..{n - 1}; got {v.id} at {i}")
        names = [v.name for v in self.variables]
        if len(set(names)) != n:
            raise ValueError("variable names must be unique")
        if len(cpts) != n:
            raise ValueError(f"expected {n} cpts, got {len(cpts)}")
        by_child = {c.child: c for c in cpts}
        if len(by_child) != n or set(by_child) != set(range(n)):
            raise ValueError("exactly one cpt per variable is required")
        self.cpts: Tuple[Cpt, ...] = tuple(by_child[i] for i in range(n))
        self._by_name = {v.name: v.id for v in self.variables}
        self._children: Tuple[Tuple[int, ...], ...] = ()
        children: Dict[int, list] = {i: [] for i in range(n)}
        for cpt in self.cpts:
            for p in cpt.parents:
                if not (0 <= p < n):
                    raise ValueError(f"cpt for {self.variables[cpt.child].name!r} references unknown parent {p}")
                children[p].append(cpt.child)
        self._children = tuple(tuple(sorted(children[i])) for i in range(n))
        for cpt in self.cpts:
            check_table(cpt, self.variables)
        self._order = topological_order(self)
        # engine's compiled elimination plans, and the CPT arrays and step
        # nodes they share
        self._plans: Dict[object, object] = {}

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
        return self.variables[var_id].cardinality

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
            idx = idx * self.variables[p].cardinality + assignment[p]
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
    one of `net`'s and every state `context` binds is one of its variable's."""
    n = len(net)
    for v in itertools.chain(free, context.keys()):
        if not (0 <= v < n):
            raise ValueError(f"variable {v} not in network {net.name!r}")
    for v, s in context.items():
        if not (0 <= s < net.cardinality(v)):
            raise ValueError(f"state {s} out of range for {net.var(v).name!r}")


def topological_order(net: BayesianNetwork) -> Tuple[int, ...]:
    """Parents-before-children order, ties broken by lowest variable id."""
    n = len(net.variables)
    indeg = [len(net.cpts[i].parents) for i in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    out = []
    children: Dict[int, list] = {i: [] for i in range(n)}
    for cpt in net.cpts:
        for p in cpt.parents:
            children[p].append(cpt.child)
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != n:
        stuck = min(i for i in range(n) if indeg[i] > 0)
        raise CycleError(f"cycle detected through variable {net.variables[stuck].name!r}")
    return tuple(out)


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
            full.set(v, s)
        yield full
