"""Text formats: `.bnet` networks, `.prob` MAP problems, benchmark CSV.

Grammar (BNET v1, UTF-8, `#` comments to end of line, whitespace-insensitive):

    network IDENT
    var IDENT { STATE ("," STATE)* }          # one per variable
    cpt IDENT ("|" IDENT+)? { ROW (";" ROW)* }  # one per variable

A ROW holds cardinality(child) decimal numbers; rows follow the model's
parent-configuration order (last-listed parent varies fastest).

A problem file holds one `map NAME+` line and one `evidence (NAME=STATE)*`
line, in either order; evidence may be empty.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .model import (
    BayesianNetwork,
    Cpt,
    CycleError,
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

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_.\-]*"

# A brace body on one line is one token if it holds only ASCII digits,
# `+-.eE`, blanks and `;` (`rows`), or only names separated by commas
# (`states`). An item of either is delimited by a blank, `,`, `;` or `}`,
# none of which a number or a name can hold, so a name is the one the fine
# groups would read there. A rows body stays one token only if each of its
# `;`-separated rows is a nonempty run of blank-separated items that
# `float` converts: on these characters `float` accepts exactly the texts
# `_NUMBER` matches, so those are the numbers the fine groups would read.
# Any other body is read as fine tokens, from its `{` on.
_TOKEN_RE = re.compile(
    rf"""
    (?P<rows>\{{[-+.0-9eE \t\r;]*\}})
  | (?P<states>\{{[ \t\r]*{_IDENT}(?:[ \t\r]*,[ \t\r]*{_IDENT})*[ \t\r]*\}})
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>{_NUMBER})
  | (?P<ident>{_IDENT})
  | (?P<punct>[{{}},;|=])
  | (?P<bad>[^ \t\r])
    """,
    re.VERBOSE,
)
_BODIES = ("rows", "states")

# (kind, text, line, column); kind is "ident", "number", "punct", "eof", or
# one of _BODIES, whose text runs from its `{` to its `}` and whose items
# (`_items`) follow as a fifth element.
_Token = Tuple[Any, ...]


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
        elif kind in _BODIES:
            tok = (kind, m.group(), line, m.start() - start + 1)
            items = _items(kind, tok[1][1:-1])
            if items is None:
                tokens += _fine(tok)
            else:
                tokens.append(tok + (items,))
        elif kind != "comment":
            tokens.append((kind, m.group(), line, m.start() - start + 1))
    tokens.append(("eof", "", line, len(text) - start + 1))
    return tokens


def _items(kind: str, inside: str) -> Optional[list]:
    """The state names or the rows of numbers inside a body of `kind`, or
    None if a row is empty or holds an item that is not a number."""
    if kind == "states":
        return [name.strip() for name in inside.split(",")]
    try:
        rows = [tuple(map(float, row.split())) for row in inside.split(";")]
    except ValueError:
        return None
    return rows if all(rows) else None


def _fine(body: _Token) -> List[_Token]:
    """The tokens the fine groups read from a body token: its `{`, then the
    scan of the rest, which holds no `{` and no newline."""
    text, line, column = body[1:4]
    try:
        rest = _tokenize(text[1:])[:-1]
    except ParseError as exc:
        raise ParseError(line, column + exc.column, exc.message) from None
    return [("punct", "{", line, column)] + [
        (kind, item, line, column + col) for kind, item, _, col in rest]


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        """The next token; a body token, which only `body` takes whole, is
        replaced by its fine tokens first."""
        tok = self.tokens[self.pos]
        if tok[0] in _BODIES:
            self.tokens[self.pos:self.pos + 1] = _fine(tok)
            tok = self.tokens[self.pos]
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        """Whether the next token is a `kind` token, reading `text` if given.
        No caller asks for a `{`, so a body token is left whole."""
        tok = self.tokens[self.pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def next(self) -> _Token:
        tok = self.peek()
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def body(self, kind: str) -> Optional[list]:
        """The items of the next token if it is a `kind` body token, which
        is then taken; otherwise None."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok[4]

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
        states = p.body("states")
        if states is None:
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
    child_toks: Dict[int, _Token] = {}
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
        rows = p.body("rows")
        if rows is None:
            p.expect("punct", "{")
            rows = []
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
        child_toks[child] = child_tok

    tail = p.peek()
    if tail[0] != "eof":
        raise p.error(tail, f"unexpected {tail[1]!r}")
    missing = [v.name for v in variables if v.id not in cpts]
    if missing:
        raise p.error(tail, f"missing cpt for {missing[0]!r}")
    try:
        return BayesianNetwork(net_name, variables, [cpts[i] for i in range(len(variables))])
    except CycleError as exc:
        raise p.error(child_toks[exc.variable], str(exc)) from None
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
    seen: Set[str] = set()  # the keywords of the lines read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # each item with its 1-based column, which errors about it report
        items = [(m.group(), m.start() + 1)
                 for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not items:
            continue
        keyword, col = items[0]
        if keyword in seen:
            raise ParseError(lineno, col, f"duplicate {keyword!r} line")
        seen.add(keyword)
        if keyword == "map":
            if len(items) == 1:
                raise ParseError(lineno, col, "at least one MAP variable required")
            map_names += [(name, lineno, item_col) for name, item_col in items[1:]]
        elif keyword == "evidence":
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
    if "map" not in seen:
        raise ParseError(1, 1, "at least one MAP variable required")
    if "evidence" not in seen:
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


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


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
