"""Text formats: `.bnet` networks, `.prob` MAP problems, benchmark CSV.

Grammar (BNET v1, UTF-8, `#` comments to end of line, whitespace-insensitive):

    network IDENT
    var IDENT { STATE ("," STATE)* }          # one per variable
    cpt IDENT ("|" IDENT+)? { ROW (";" ROW)* }  # one per variable

A ROW holds cardinality(child) decimal numbers; rows follow the model's
parent-configuration order (last-listed parent varies fastest).

Problem files hold `map NAME+` and `evidence (NAME=STATE)*` lines, in either
order; evidence may be empty.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (
    BayesianNetwork,
    Cpt,
    MapProblem,
    Variable,
    check_table,
)


class ParseError(Exception):
    """A syntax or validation error at a 1-based line/column position."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<punct>[{},;|=])
  | (?P<bad>[^ \t\r])
    """,
    re.VERBOSE,
)

# (kind, text, line, column); kind is "ident", "number", "punct" or "eof"
_Token = Tuple[str, str, int, int]


def _tokenize(text: str) -> List[_Token]:
    """One scan of `text`. Blanks (space, tab, carriage return) match no
    group, so the scan steps over them; any other character that starts no
    token is `bad`."""
    tokens: List[_Token] = []
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            start = m.end()
        elif kind == "bad":
            raise ParseError(line, m.start() - start + 1,
                             f"unexpected character {m.group()!r}")
        elif kind != "comment":
            tokens.append((kind, m.group(), line, m.start() - start + 1))
    tokens.append(("eof", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        """Whether the next token is a `kind` token, reading `text` if given."""
        tok = self.tokens[self.pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> ParseError:
        return ParseError(tok[2], tok[3], message)

    def expect(self, kind: str, text: str = "", what: str = "") -> _Token:
        """The next token, which must be a `kind` token reading `text` if
        given; the error names it as `what`, by default `text` quoted."""
        tok = self.next()
        if tok[0] != kind or (text and tok[1] != text):
            got = repr(tok[1]) if tok[1] else "end of input"
            raise self.error(tok, f"expected {what or repr(text)}, got {got}")
        return tok

    def expect_ident(self, what: str) -> str:
        return self.expect("ident", what=what)[1]


def parse_network(text: str) -> BayesianNetwork:
    """Parse BNET text; raises ParseError on any malformed input."""
    p = _Parser(text)
    p.expect("ident", "network")
    net_name = p.expect_ident("network name")

    variables: List[Variable] = []
    index: Dict[str, int] = {}
    while p.at("ident", "var"):
        p.next()
        name_tok = p.expect("ident", what="variable name")
        name = name_tok[1]
        if name in index:
            raise p.error(name_tok, f"duplicate variable {name!r}")
        p.expect("punct", "{")
        states = [p.expect_ident("state name")]
        while p.at("punct", ","):
            p.next()
            states.append(p.expect_ident("state name"))
        p.expect("punct", "}")
        if len(set(states)) != len(states):
            raise p.error(name_tok, f"duplicate state name in variable {name!r}")
        index[name] = len(variables)
        variables.append(Variable(len(variables), name, tuple(states)))

    cpts: Dict[int, Cpt] = {}
    while p.at("ident", "cpt"):
        p.next()
        child_tok = p.expect("ident", what="variable name")
        if child_tok[1] not in index:
            raise p.error(child_tok, f"unknown variable {child_tok[1]!r}")
        child = index[child_tok[1]]
        if child in cpts:
            raise p.error(child_tok, f"duplicate cpt for {child_tok[1]!r}")
        parents: List[int] = []
        if p.at("punct", "|"):
            p.next()
            while p.at("ident"):
                par_tok = p.next()
                if par_tok[1] not in index:
                    raise p.error(par_tok, f"unknown parent {par_tok[1]!r}")
                parents.append(index[par_tok[1]])
            if not parents:
                raise p.error(p.peek(), "expected at least one parent after '|'")
        p.expect("punct", "{")
        rows: List[Tuple[float, ...]] = []
        while True:
            row: List[float] = []
            while p.at("number"):
                row.append(float(p.next()[1]))
            if not row:
                raise p.error(p.peek(), "expected a probability")
            rows.append(tuple(row))
            if p.at("punct", ";"):
                p.next()
                continue
            break
        p.expect("punct", "}")
        try:
            cpt = Cpt(child, tuple(parents), tuple(rows))
            check_table(cpt, variables)
        except ValueError as exc:
            raise p.error(child_tok, str(exc)) from None
        cpts[child] = cpt

    tail = p.peek()
    if tail[0] != "eof":
        raise p.error(tail, f"unexpected {tail[1]!r}")
    missing = [v.name for v in variables if v.id not in cpts]
    if missing:
        raise p.error(tail, f"missing cpt for {missing[0]!r}")
    try:
        return BayesianNetwork(net_name, variables, [cpts[i] for i in range(len(variables))])
    except ValueError as exc:
        raise p.error(tail, str(exc)) from None


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def serialize_network(net: BayesianNetwork) -> str:
    out = [f"network {net.name}"]
    for v in net.variables:
        out.append(f"var {v.name} {{ {', '.join(v.states)} }}")
    for v in net.variables:
        cpt = net.cpts[v.id]
        head = f"cpt {v.name}"
        if cpt.parents:
            head += " | " + " ".join(net.var(p).name for p in cpt.parents)
        rows = " ; ".join(" ".join(_fmt(x) for x in row) for row in cpt.table)
        out.append(f"{head} {{ {rows} }}")
    return "\n".join(out) + "\n"


def parse_problem(text: str, net: BayesianNetwork) -> MapProblem:
    """Parse a problem file against a network; raises ParseError."""
    map_names: List[Tuple[str, int, int]] = []
    evidence: Dict[int, int] = {}
    saw_map = False
    saw_evidence = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # each item with its 1-based column, which errors about it report
        items = [(m.group(), m.start() + 1)
                 for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not items:
            continue
        keyword, col = items[0]
        if keyword == "map":
            saw_map = True
            if len(items) == 1:
                raise ParseError(lineno, col, "at least one MAP variable required")
            map_names += [(name, lineno, item_col) for name, item_col in items[1:]]
        elif keyword == "evidence":
            saw_evidence = True
            for item, item_col in items[1:]:
                if "=" not in item:
                    raise ParseError(lineno, item_col, f"expected NAME=STATE, got {item!r}")
                name, state = item.split("=", 1)
                if not net.has_name(name):
                    raise ParseError(lineno, item_col, f"unknown variable {name!r}")
                var = net.by_name(name)
                if state not in var.states:
                    raise ParseError(lineno, item_col,
                                     f"unknown state {state!r} for variable {name!r}")
                if var.id in evidence:
                    raise ParseError(lineno, item_col, f"duplicate evidence for {name!r}")
                evidence[var.id] = var.states.index(state)
        else:
            raise ParseError(lineno, col, f"expected 'map' or 'evidence', got {keyword!r}")
    if not saw_map:
        raise ParseError(1, 1, "at least one MAP variable required")
    if not saw_evidence:
        raise ParseError(1, 1, "missing 'evidence' line (may be empty)")
    map_vars: List[int] = []
    for name, lineno, col in map_names:
        if not net.has_name(name):
            raise ParseError(lineno, col, f"unknown variable {name!r}")
        vid = net.by_name(name).id
        if vid in map_vars:
            raise ParseError(lineno, col, f"duplicate MAP variable {name!r}")
        if vid in evidence:
            raise ParseError(lineno, col,
                             f"variable {name!r} appears in both map and evidence")
        map_vars.append(vid)
    return MapProblem(tuple(map_vars), evidence)


def serialize_problem(problem: MapProblem, net: BayesianNetwork) -> str:
    map_line = "map " + " ".join(net.var(v).name for v in problem.map_vars)
    ev = " ".join(f"{net.var(v).name}={net.var(v).states[s]}"
                  for v, s in sorted(problem.evidence.items()))
    return f"{map_line}\nevidence{' ' + ev if ev else ''}\n"


# -- benchmark reports -------------------------------------------------------

REPORT_COLUMNS = (
    "network", "case_id", "algorithm", "seed", "log10_prob", "prob",
    "sweeps", "restarts_used", "best_found_sweep", "reheats", "wall_ms",
    "matches_oracle",
)


@dataclass
class ReportRow:
    network: str
    case_id: int
    algorithm: str
    seed: int
    log10_prob: float
    prob: float
    sweeps: int
    restarts_used: int
    best_found_sweep: int
    reheats: int
    wall_ms: float
    matches_oracle: Optional[bool] = None  # None when the oracle is unavailable


def write_report(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_COLUMNS)
    for r in rows:
        w.writerow([
            r.network,
            r.case_id,
            r.algorithm,
            r.seed,
            f"{r.log10_prob:.17g}",
            f"{r.prob:.17g}",
            r.sweeps,
            r.restarts_used,
            r.best_found_sweep,
            r.reheats,
            f"{r.wall_ms:.3f}",
            "" if r.matches_oracle is None else int(r.matches_oracle),
        ])
    return buf.getvalue()
