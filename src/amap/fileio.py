"""Text formats: `.bnet` networks, `.prob` MAP problems, benchmark CSV.

Grammar (BNET v1, UTF-8, `#` comments to end of line, whitespace-insensitive):

    network IDENT
    var IDENT { STATE ("," STATE)* }          # one per variable
    cpt IDENT ("|" IDENT+)? { ROW (";" ROW)* }  # one per variable

A ROW holds cardinality(child) decimal numbers; rows follow the model's
parent-configuration order (last-listed parent varies fastest).

A problem file holds one `map NAME+` line and one `evidence (NAME=STATE)*`
line, in either order; evidence may be empty.

The tokenizer reads a line that holds one `var` or `cpt` statement, and
nothing else but blanks and a trailing comment, as one statement token
carrying its names, their columns and its state names or rows of numbers.
Any other line is read as fine tokens, one per name, number and
punctuation mark, and so is a statement token the parser meets where it
does not take a statement whole, so every error has the line, column and
message the fine tokens give. The parser checks each CPT as it reads it and
assembles the network from the checked parts.
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
    _unchecked,
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
_NAME_RE = re.compile(_IDENT)

# The fine groups: one token per name, number and punctuation mark of a line.
_FINE_RE = re.compile(
    rf"""
    (?P<comment>\#.*)
  | (?P<number>{_NUMBER})
  | (?P<ident>{_IDENT})
  | (?P<punct>[{{}},;|=])
  | (?P<bad>[^ \t\r])
    """,
    re.VERBOSE,
)
# A line that holds one `var` or `cpt` statement, with nothing else but
# blanks (space, tab, carriage return) and a trailing comment, is one token
# if the statement's names are separated by blanks as the grammar allows,
# with at least one parent after a `|`, and its rows body holds only ASCII
# digits, `+-.eE`, blanks and `;`. A name ends at a blank or at one of
# `{},|`, none of which a name can hold, so each is the name the fine
# groups would read there. The rows stay one token only if each of their
# `;`-separated rows is a nonempty run of blank-separated items that
# `float` converts: on these characters `float` accepts exactly the texts
# `_NUMBER` matches, so those are the numbers the fine groups would read.
# Any other line is read as fine tokens.
_B = r"[ \t\r]"
_STATEMENT_RE = re.compile(
    rf"""{_B}*(?:
        var{_B}+(?P<name>{_IDENT}){_B}*
            \{{{_B}*(?P<states>{_IDENT}(?:{_B}*,{_B}*{_IDENT})*){_B}*\}}
      | cpt{_B}+(?P<child>{_IDENT})
            (?:{_B}*\|{_B}*(?P<parents>{_IDENT}(?:{_B}+{_IDENT})*))?
            {_B}*\{{(?P<rows>[-+.0-9eE \t\r;]*)\}}
    ){_B}*(?:\#.*)?""",
    re.VERBOSE,
)
_STATEMENTS = ("var", "cpt")

# (kind, text, line, column); kind is "ident", "number", "punct", "eof", or
# one of _STATEMENTS, whose text is its whole line, read from column 1,
# and which carries two more elements: its names as ident tokens (the
# variable's, or the child's then the parents') and its state names or
# rows of numbers.
_Token = Tuple[Any, ...]


def _tokenize(text: str) -> List[_Token]:
    """The tokens of `text`, line by line: no token spans a newline."""
    tokens: List[_Token] = []
    lines = text.split("\n")
    for line, body in enumerate(lines, start=1):
        m = _STATEMENT_RE.fullmatch(body)
        tok = m and _statement(m, line)
        if tok:
            tokens.append(tok)
        else:
            tokens += _fine(body, line)
    tokens.append(("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


def _statement(m: "re.Match[str]", line: int) -> Optional[_Token]:
    """The token of the statement line `m` matched, or None if a row is
    empty or holds an item that is not a number."""
    name, states, child, parents, rows = m.group("name", "states", "child", "parents", "rows")
    if name is not None:
        return ("var", m.string, line, 1, [("ident", name, line, m.start("name") + 1)],
                _NAME_RE.findall(states))
    try:
        rows = [tuple(map(float, row.split())) for row in rows.split(";")]
    except ValueError:
        return None
    if not all(rows):
        return None
    names = [("ident", child, line, m.start("child") + 1)]
    if parents is not None:
        shift = m.start("parents") + 1
        names += [("ident", p.group(), line, p.start() + shift)
                  for p in _NAME_RE.finditer(parents)]
    return ("cpt", m.string, line, 1, names, rows)


def _fine(body: str, line: int) -> List[_Token]:
    """The fine tokens of the line `body`. Blanks match no group, so the
    scan steps over them; any other character that starts no token is
    `bad`."""
    tokens: List[_Token] = []
    for m in _FINE_RE.finditer(body):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(line, m.start() + 1, f"unexpected character {m.group()!r}")
        if kind != "comment":
            tokens.append((kind, m.group(), line, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        """The next token; a statement token, which only `take` takes whole,
        is replaced by its fine tokens first."""
        tok = self.tokens[self.pos]
        if tok[0] in _STATEMENTS:
            self.tokens[self.pos:self.pos + 1] = _fine(tok[1], tok[2])
            tok = self.tokens[self.pos]
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        """Whether the next token is a `kind` token, reading `text` if given."""
        tok = self.peek()
        return tok[0] == kind and (text is None or tok[1] == text)

    def starts(self, keyword: str) -> bool:
        """Whether the next token is a `keyword` statement token or the
        keyword itself; a statement token is left whole."""
        tok = self.tokens[self.pos]
        return tok[0] == keyword or tok[:2] == ("ident", keyword)

    def take(self) -> _Token:
        """The next token, which `starts` a statement, as it is."""
        self.pos += 1
        return self.tokens[self.pos - 1]

    def next(self) -> _Token:
        tok = self.peek()
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
    """Parse BNET text; raises ParseError on any malformed input. Each CPT
    is checked once, where it is read, and the network is assembled from
    the checked parts."""
    p = _Parser(text)
    p.expect("ident", "network")
    net_name = p.expect_ident("network name")

    variables: List[Variable] = []
    index: Dict[str, int] = {}
    while p.starts("var"):
        tok = p.take()
        if tok[0] == "var":
            (name_tok,), states = tok[4:]
        else:
            name_tok, states = p.expect("ident", what="variable name"), None
        name = name_tok[1]
        if name in index:
            raise p.error(name_tok, f"duplicate variable {name!r}")
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
        # the grammar and the check above are Variable's own checks
        variables.append(_unchecked(Variable, len(variables), name, tuple(states)))

    cpts: Dict[int, Cpt] = {}
    child_toks: Dict[int, _Token] = {}
    while p.starts("cpt"):
        tok = p.take()
        statement = tok[0] == "cpt"
        child_tok = tok[4][0] if statement else p.expect("ident", what="variable name")
        if child_tok[1] not in index:
            raise p.error(child_tok, f"unknown variable {child_tok[1]!r}")
        child = index[child_tok[1]]
        if child in cpts:
            raise p.error(child_tok, f"duplicate cpt for {child_tok[1]!r}")
        if statement:
            par_toks, rows = tok[4][1:], tok[5]
        else:
            par_toks, rows = [], None
            if p.at("punct", "|"):
                p.next()
                while p.at("ident"):
                    par_toks.append(p.next())
                if not par_toks:
                    raise p.error(p.peek(), "expected at least one parent after '|'")
        parents: List[int] = []
        for par_tok in par_toks:
            if par_tok[1] not in index:
                raise p.error(par_tok, f"unknown parent {par_tok[1]!r}")
            parents.append(index[par_tok[1]])
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
        return BayesianNetwork._checked(net_name, tuple(variables),
                                        tuple([cpts[i] for i in range(len(variables))]))
    except CycleError as exc:
        raise p.error(child_toks[exc.variable], str(exc)) from None


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
