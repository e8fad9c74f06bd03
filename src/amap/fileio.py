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
    Assignment,
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
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<punct>[{},;|=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "punct" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        raw = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(raw)
        else:
            tokens.append(_Token(kind, raw, line, col))
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> ParseError:
        return ParseError(tok.line, tok.column, message)

    def expect_ident(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error(tok, f"expected {what}, got {tok.text!r}" if tok.text else f"expected {what}, got end of input")
        return tok

    def expect_punct(self, char: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != char:
            got = repr(tok.text) if tok.text else "end of input"
            raise self.error(tok, f"expected {char!r}, got {got}")
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            got = repr(tok.text) if tok.text else "end of input"
            raise self.error(tok, f"expected {word!r}, got {got}")
        return tok


def parse_network(text: str) -> BayesianNetwork:
    """Parse BNET text; raises ParseError on any malformed input."""
    p = _Parser(text)
    p.expect_keyword("network")
    net_name = p.expect_ident("network name").text

    variables: List[Variable] = []
    index: Dict[str, int] = {}
    while p.peek().kind == "ident" and p.peek().text == "var":
        p.next()
        name_tok = p.expect_ident("variable name")
        if name_tok.text in index:
            raise p.error(name_tok, f"duplicate variable {name_tok.text!r}")
        p.expect_punct("{")
        states = [p.expect_ident("state name").text]
        while p.peek().kind == "punct" and p.peek().text == ",":
            p.next()
            states.append(p.expect_ident("state name").text)
        p.expect_punct("}")
        if len(set(states)) != len(states):
            raise p.error(name_tok, f"duplicate state name in variable {name_tok.text!r}")
        index[name_tok.text] = len(variables)
        variables.append(Variable(len(variables), name_tok.text, tuple(states)))

    cpts: Dict[int, Cpt] = {}
    while p.peek().kind == "ident" and p.peek().text == "cpt":
        p.next()
        child_tok = p.expect_ident("variable name")
        if child_tok.text not in index:
            raise p.error(child_tok, f"unknown variable {child_tok.text!r}")
        child = index[child_tok.text]
        if child in cpts:
            raise p.error(child_tok, f"duplicate cpt for {child_tok.text!r}")
        parents: List[int] = []
        if p.peek().kind == "punct" and p.peek().text == "|":
            p.next()
            while p.peek().kind == "ident":
                par_tok = p.next()
                if par_tok.text not in index:
                    raise p.error(par_tok, f"unknown parent {par_tok.text!r}")
                parents.append(index[par_tok.text])
            if not parents:
                raise p.error(p.peek(), "expected at least one parent after '|'")
        p.expect_punct("{")
        rows: List[Tuple[float, ...]] = []
        while True:
            row: List[float] = []
            while p.peek().kind == "number":
                num = p.next()
                try:
                    row.append(float(num.text))
                except ValueError:
                    raise p.error(num, f"bad number {num.text!r}")
            if not row:
                raise p.error(p.peek(), "expected a probability")
            rows.append(tuple(row))
            if p.peek().kind == "punct" and p.peek().text == ";":
                p.next()
                continue
            break
        p.expect_punct("}")
        try:
            cpt = Cpt(child, tuple(parents), tuple(rows))
            check_table(cpt, variables)
        except ValueError as exc:
            raise p.error(child_tok, str(exc)) from None
        cpts[child] = cpt

    tail = p.peek()
    if tail.kind != "eof":
        raise p.error(tail, f"unexpected {tail.text!r}")
    missing = [v.name for v in variables if v.id not in cpts]
    if missing:
        raise p.error(tail, f"missing cpt for {missing[0]!r}")
    try:
        return BayesianNetwork(net_name, variables, [cpts[i] for i in range(len(variables))])
    except ValueError as exc:
        raise ParseError(tail.line, tail.column, str(exc)) from None


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
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        parts = line.split()
        col = raw.index(parts[0]) + 1
        if parts[0] == "map":
            saw_map = True
            if len(parts) == 1:
                raise ParseError(lineno, col, "at least one MAP variable required")
            for name in parts[1:]:
                map_names.append((name, lineno, col))
        elif parts[0] == "evidence":
            saw_evidence = True
            for item in parts[1:]:
                if "=" not in item:
                    raise ParseError(lineno, col, f"expected NAME=STATE, got {item!r}")
                name, state = item.split("=", 1)
                if not net.has_name(name):
                    raise ParseError(lineno, col, f"unknown variable {name!r}")
                var = net.by_name(name)
                if state not in var.states:
                    raise ParseError(lineno, col,
                                     f"unknown state {state!r} for variable {name!r}")
                if var.id in evidence:
                    raise ParseError(lineno, col, f"duplicate evidence for {name!r}")
                evidence[var.id] = var.states.index(state)
        else:
            raise ParseError(lineno, col, f"expected 'map' or 'evidence', got {parts[0]!r}")
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
    return MapProblem(tuple(map_vars), Assignment(evidence))


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
