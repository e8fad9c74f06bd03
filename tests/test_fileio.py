import csv
import io
import random
import re

import pytest

from amap import (
    BayesianNetwork,
    Cpt,
    CycleError,
    ParseError,
    ReportRow,
    Variable,
    parse_network,
    parse_problem,
    serialize_network,
    serialize_problem,
    write_report,
)
from amap import fileio
from amap.model import check_table
from conftest import CYCLE_TEXT, REPEATED_PARENT_TEXT, SPRINKLER_TEXT
from netgen import random_network


class TestParseNetwork:
    def test_minimal(self):
        net = parse_network("network n1\nvar A { t, f }\ncpt A { 0.8 0.2 }\n")
        assert len(net) == 1
        assert net.cpts[0].table == ((0.8, 0.2),)

    def test_sprinkler_structure(self, sprinkler):
        assert len(sprinkler) == 3
        w = sprinkler.by_name("WetGrass")
        assert len(sprinkler.cpts[w.id].table) == 4
        assert sprinkler.parents(w.id) == (sprinkler.by_name("Sprinkler").id,
                                           sprinkler.by_name("Rain").id)

    def test_row_sum_error(self):
        with pytest.raises(ParseError, match="row sums to 1.1"):
            parse_network("network n\nvar A { t, f }\ncpt A { 0.8 0.3 }\n")

    def test_unknown_parent(self):
        with pytest.raises(ParseError, match="unknown parent 'Z'"):
            parse_network("network n\nvar A { t, f }\ncpt A | Z { 0.8 0.2 }\n")

    def test_duplicate_variable(self):
        text = "network n\nvar A { t, f }\nvar A { t, f }\ncpt A { 0.5 0.5 }\n"
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_network(text)

    def test_duplicate_cpt(self):
        text = "network n\nvar A { t, f }\ncpt A { 0.5 0.5 }\ncpt A { 0.5 0.5 }\n"
        with pytest.raises(ParseError, match="duplicate cpt"):
            parse_network(text)

    def test_missing_cpt(self):
        with pytest.raises(ParseError, match="missing cpt for 'A'"):
            parse_network("network n\nvar A { t, f }\n")

    def test_error_position(self):
        try:
            parse_network("network n\nvar A { t, f }\ncpt A { 0.8 0.3 }\n")
        except ParseError as exc:
            assert exc.line == 3
            assert exc.column >= 1
        else:
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize("text, line, column", [
        ("network n  # a comment\nvar A { t, f }  # another\n \t@ cpt A { 0.8 0.2 }\n", 3, 3),
        ("# only a comment\r\nnetwork n\nvar A { t, f }$\n", 3, 15),
        ("network n\n#\n#\n\t\t!", 4, 3),
    ])
    def test_unexpected_character_position(self, text, line, column):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_network(text)
        assert (info.value.line, info.value.column) == (line, column)

    def test_table_error_at_its_own_cpt_line(self):
        text = ("network n\nvar A { t, f }\nvar B { t, f }\n"
                "cpt B | A {\n  0.5 0.6 ;\n  0.5 0.5\n}\n"
                "cpt A { 0.8 0.2 }\n")
        with pytest.raises(ParseError, match="row sums to 1.1") as info:
            parse_network(text)
        assert info.value.line == 4

    def test_entry_outside_unit_interval(self):
        text = "network n\nvar A { t, f }\ncpt A { 1.5 -0.5 }\n"
        with pytest.raises(ParseError, match="outside") as info:
            parse_network(text)
        assert info.value.line == 3

    def test_comments_and_scientific_notation(self):
        text = "# header\nnetwork n  # trailing\nvar A { t, f }\ncpt A { 8e-1 2e-1 }\n"
        net = parse_network(text)
        assert net.cpts[0].table == ((0.8, 0.2),)

    def test_wrong_row_count(self):
        text = "network n\nvar A { t, f }\nvar B { t, f }\ncpt A { 0.5 0.5 }\ncpt B | A { 0.5 0.5 }\n"
        with pytest.raises(ParseError, match="1 rows, expected 2"):
            parse_network(text)

    def test_repeated_parent_at_its_cpt(self):
        with pytest.raises(ParseError, match="lists parent 'A' twice") as info:
            parse_network(REPEATED_PARENT_TEXT)
        assert (info.value.line, info.value.column) == (5, 5)

    def test_cycle_named_by_a_variable_on_it(self):
        # C is a child of the A-B cycle and has the lowest id of the three
        text = ("network cyc\nvar C { t, f }\nvar A { t, f }\nvar B { t, f }\n"
                "cpt C | A { 0.5 0.5 ; 0.5 0.5 }\n"
                "cpt A | B { 0.5 0.5 ; 0.5 0.5 }\n"
                "cpt B | A { 0.5 0.5 ; 0.5 0.5 }\n")
        with pytest.raises(ParseError, match="cycle detected through variable 'A'") as info:
            parse_network(text)
        assert (info.value.line, info.value.column) == (6, 5)

    def test_cycle_reported_at_cpt_name_token(self):
        with pytest.raises(ParseError, match="cycle detected through variable 'A'") as info:
            parse_network(CYCLE_TEXT)
        assert (info.value.line, info.value.column) == (4, 5)


class TestRoundTrip:
    def test_one_variable(self):
        net = parse_network("network n1\nvar A { t, f }\ncpt A { 0.8 0.2 }\n")
        again = parse_network(serialize_network(net))
        assert serialize_network(again) == serialize_network(net)

    def test_sprinkler(self, sprinkler):
        again = parse_network(serialize_network(sprinkler))
        assert again.name == sprinkler.name
        for v, w in zip(sprinkler.variables, again.variables):
            assert (v.name, v.states) == (w.name, w.states)
        for c, d in zip(sprinkler.cpts, again.cpts):
            assert c == d

    def test_random_fifty_variable_network(self):
        rng = random.Random(42)
        net = random_network(rng, 50, name="big")
        text = serialize_network(net)
        again = parse_network(text)
        assert len(again) == 50
        for c, d in zip(net.cpts, again.cpts):
            assert c.parents == d.parents
            assert c.table == d.table  # exact float round-trip

    def test_many_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(20):
            net = random_network(rng, rng.randint(1, 15))
            again = parse_network(serialize_network(net))
            assert serialize_network(again) == serialize_network(net)


class TestParseProblem:
    def test_basic(self, sprinkler):
        p = parse_problem("map Sprinkler Rain\nevidence WetGrass=t\n", sprinkler)
        assert p.map_vars == (sprinkler.by_name("Sprinkler").id,
                              sprinkler.by_name("Rain").id)
        assert p.evidence == {sprinkler.by_name("WetGrass").id: 0}

    def test_disjointness(self, sprinkler):
        with pytest.raises(ParseError, match="both map and evidence"):
            parse_problem("map Sprinkler\nevidence Sprinkler=t\n", sprinkler)

    def test_empty_map_line(self, sprinkler):
        with pytest.raises(ParseError, match="at least one MAP variable"):
            parse_problem("map\nevidence WetGrass=t\n", sprinkler)

    def test_empty_evidence_allowed(self, sprinkler):
        p = parse_problem("map Rain\nevidence\n", sprinkler)
        assert len(p.evidence) == 0

    def test_unknown_state(self, sprinkler):
        with pytest.raises(ParseError, match="unknown state"):
            parse_problem("map Rain\nevidence WetGrass=maybe\n", sprinkler)

    @pytest.mark.parametrize("text, line, column, message", [
        ("map Rain Foo\nevidence WetGrass=t\n", 1, 10, "unknown variable 'Foo'"),
        ("map Rain\nevidence WetGrass=t Foo=t\n", 2, 21, "unknown variable 'Foo'"),
        ("map Rain\n  evidence\tWetGrass=t  Foo=t\n", 2, 24, "unknown variable 'Foo'"),
        ("map Rain Sprinkler Rain\nevidence\n", 1, 20, "duplicate MAP variable 'Rain'"),
        ("evidence WetGrass=t\n\n map  Rain WetGrass\n", 3, 12, "both map and evidence"),
        ("map Rain\nevidence WetGrass=t Sprinkler\n", 2, 21, "expected NAME=STATE"),
        ("map Rain\nevidence Sprinkler=f WetGrass=maybe\n", 2, 22, "unknown state 'maybe'"),
        ("map Rain\nevidence WetGrass=t WetGrass=f\n", 2, 21, "duplicate evidence"),
        ("map Rain\n  observe WetGrass=t\n", 2, 3, "expected 'map' or 'evidence'"),
        ("  map\nevidence\n", 1, 3, "at least one MAP variable"),
        ("evidence WetGrass=t\n", 1, 1, "at least one MAP variable"),
        ("map Rain\n", 1, 1, "missing 'evidence' line"),
        ("map Rain\nmap Sprinkler\nevidence\n", 2, 1, "duplicate 'map' line"),
        ("evidence\nmap Rain\n  evidence WetGrass=t\n", 3, 3, "duplicate 'evidence' line"),
    ])
    def test_error_points_at_the_offending_item(self, sprinkler, text, line, column, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_problem(text, sprinkler)
        assert (info.value.line, info.value.column) == (line, column)

    def test_order_insensitive(self, sprinkler):
        p = parse_problem("evidence WetGrass=f\nmap Rain\n", sprinkler)
        assert p.map_vars == (0,)

    def test_problem_round_trip(self, sprinkler, sprinkler_problem):
        text = serialize_problem(sprinkler_problem, sprinkler)
        again = parse_problem(text, sprinkler)
        assert again.map_vars == sprinkler_problem.map_vars
        assert again.evidence == sprinkler_problem.evidence


class TestWriteReport:
    def row(self, **kw):
        base = dict(network="n", case_id=0, algorithm="anneal", seed=1,
                    log10_prob=-0.25, prob=0.5623413251903491, sweeps=10,
                    restarts_used=1, best_found_sweep=3, reheats=0,
                    wall_ms=1.5, matches_oracle=True)
        base.update(kw)
        return ReportRow(**base)

    def test_empty(self):
        text = write_report([])
        assert text.splitlines() == [
            "network,case_id,algorithm,seed,log10_prob,prob,sweeps,"
            "restarts_used,best_found_sweep,reheats,wall_ms,matches_oracle"]

    def test_one_row(self):
        assert len(write_report([self.row()]).splitlines()) == 2

    def test_probability_precision(self):
        p = 0.123456789012345678
        text = write_report([self.row(prob=p)])
        parsed = list(csv.DictReader(io.StringIO(text)))[0]
        assert float(parsed["prob"]) == p

    def test_blank_oracle_column(self):
        text = write_report([self.row(matches_oracle=None)])
        parsed = list(csv.DictReader(io.StringIO(text)))[0]
        assert parsed["matches_oracle"] == ""


class TestFuzz:
    def test_parser_total_on_mutations(self, sprinkler):
        rng = random.Random(123)
        base = SPRINKLER_TEXT
        alphabet = "abz019{};|,=.# \n\tnetworkvarcpt-"
        for _ in range(2000):
            chars = list(base)
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(chars)) if chars else 0
                if op == 0 and chars:
                    chars[pos] = rng.choice(alphabet)
                elif op == 1:
                    chars.insert(pos, rng.choice(alphabet))
                elif chars:
                    del chars[pos]
            try:
                parse_network("".join(chars))
            except ParseError:
                pass


# -- reference parser: one token per number, name and punctuation mark -------

_REFERENCE_TOKEN_RE = re.compile(
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


def _reference_tokenize(text):
    tokens = []
    line, start = 1, 0
    for m in _REFERENCE_TOKEN_RE.finditer(text):
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


def _reference_parse_network(text):
    """`parse_network` as it was before brace bodies became single tokens,
    reading every number, name and punctuation mark as a token of its own;
    a cycle is reported at the CPT of the variable `CycleError` names."""
    tokens = _reference_tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def at(kind, text=None):
        tok = tokens[pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def take():
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != "eof":
            pos += 1
        return tok

    def error(tok, message):
        return ParseError(tok[2], tok[3], message)

    def expect(kind, text="", what=""):
        tok = take()
        if tok[0] != kind or (text and tok[1] != text):
            got = repr(tok[1]) if tok[1] else "end of input"
            raise error(tok, f"expected {what or repr(text)}, got {got}")
        return tok

    expect("ident", "network")
    net_name = expect("ident", what="network name")[1]
    variables, index = [], {}
    while at("ident", "var"):
        take()
        name_tok = expect("ident", what="variable name")
        name = name_tok[1]
        if name in index:
            raise error(name_tok, f"duplicate variable {name!r}")
        expect("punct", "{")
        states = [expect("ident", what="state name")[1]]
        while at("punct", ","):
            take()
            states.append(expect("ident", what="state name")[1])
        expect("punct", "}")
        if len(set(states)) != len(states):
            raise error(name_tok, f"duplicate state name in variable {name!r}")
        index[name] = len(variables)
        variables.append(Variable(len(variables), name, tuple(states)))
    cpts, child_toks = {}, {}
    while at("ident", "cpt"):
        take()
        child_tok = expect("ident", what="variable name")
        if child_tok[1] not in index:
            raise error(child_tok, f"unknown variable {child_tok[1]!r}")
        child = index[child_tok[1]]
        if child in cpts:
            raise error(child_tok, f"duplicate cpt for {child_tok[1]!r}")
        parents = []
        if at("punct", "|"):
            take()
            while at("ident"):
                par_tok = take()
                if par_tok[1] not in index:
                    raise error(par_tok, f"unknown parent {par_tok[1]!r}")
                parents.append(index[par_tok[1]])
            if not parents:
                raise error(peek(), "expected at least one parent after '|'")
        expect("punct", "{")
        rows = []
        while True:
            row = []
            while at("number"):
                row.append(float(take()[1]))
            if not row:
                raise error(peek(), "expected a probability")
            rows.append(tuple(row))
            if at("punct", ";"):
                take()
                continue
            break
        expect("punct", "}")
        try:
            cpt = Cpt(child, tuple(parents), tuple(rows))
            check_table(cpt, variables)
        except ValueError as exc:
            raise error(child_tok, str(exc)) from None
        cpts[child] = cpt
        child_toks[child] = child_tok
    tail = peek()
    if tail[0] != "eof":
        raise error(tail, f"unexpected {tail[1]!r}")
    missing = [v.name for v in variables if v.id not in cpts]
    if missing:
        raise error(tail, f"missing cpt for {missing[0]!r}")
    try:
        return BayesianNetwork(net_name, variables, [cpts[i] for i in range(len(variables))])
    except CycleError as exc:
        raise error(child_toks[exc.variable], str(exc)) from None
    except ValueError as exc:
        raise error(tail, str(exc)) from None


def _outcome(parse, text):
    """A parse's network, tables by the bits of each entry, or its error."""
    try:
        net = parse(text)
    except ParseError as exc:
        return ("error", exc.line, exc.column, exc.message)
    return (net.name, [(v.id, v.name, v.states) for v in net.variables],
            [(c.child, c.parents, [[x.hex() for x in row] for row in c.table])
             for c in net.cpts])


def _mutate(rng, text, alphabet):
    """`text` after one to four edits, half of them within 40 characters
    after a `{`: a character of `alphabet` replaced, inserted or deleted, a
    comment, newline, ` ; `, `e`, `E`, `1e` or `.5` inserted, or a run of up
    to 8 characters repeated."""
    chars = list(text)
    bodies = [i for i, c in enumerate(text) if c == "{"]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            start = rng.choice(bodies)
            pos = min(start + rng.randint(0, 40), len(chars) - 1)
        else:
            pos = rng.randrange(len(chars))
        op = rng.randrange(5)
        if op == 0:
            chars[pos] = rng.choice(alphabet)
        elif op == 1:
            chars.insert(pos, rng.choice(alphabet))
        elif op == 2:
            del chars[pos]
        elif op == 3:
            chars.insert(pos, rng.choice(["# c\n", "\n", " ; ", "e", "E", "1e", ".5"]))
        else:
            chars[pos:pos] = chars[pos:pos + rng.randint(1, 8)]
    return "".join(chars)


def _e_states(text):
    """`text` with its states renamed e, E and e1, which read like parts of
    numbers."""
    return (text.replace("{ t, f }", "{ e, E }")
            .replace("{ s0, s1 }", "{ e, E }").replace("{ s0, s1, s2 }", "{ e, E, e1 }"))


class TestDifferentialParse:
    def test_matches_reference_parser_on_mutations(self):
        net30 = serialize_network(random_network(random.Random(30), 30, name="n30"))
        one_state = SPRINKLER_TEXT.replace("var WetGrass", "var U { e }\nvar WetGrass") \
            + "cpt U { 1.0 }\n"
        bases = [[SPRINKLER_TEXT, _e_states(SPRINKLER_TEXT), _e_states(one_state)],
                 [net30, _e_states(net30)]]
        for text in (b for group in bases for b in group):
            assert _outcome(parse_network, text) == _outcome(_reference_parse_network, text)
            assert _outcome(parse_network, text)[0] != "error"
        rng = random.Random(2024)
        alphabet = "0123456789.eE+-;{},|=#\n\t abzs_"
        parsed = errors = 0
        for group in bases:
            for _ in range(2000):
                text = _mutate(rng, rng.choice(group), alphabet)
                got = _outcome(parse_network, text)
                assert got == _outcome(_reference_parse_network, text), text
                parsed += got[0] != "error"
                errors += got[0] == "error"
        assert parsed >= 300 and errors >= 2000

    def test_statement_tokens_match_reference_parser_on_mutations(self):
        # one-line statements with trailing comments, tabs and CRLF endings
        # are read as statement tokens; a statement split over two lines and
        # `cpt X | { ... }` are read as fine tokens from their keyword on
        crlf = ("network tabs\r\n"
                "var\tRain\t{ t,\tf }  # weather\r\n"
                "var Sprinkler {t,f}\t# on or off\r\n"
                "var WetGrass { t , f }\r\n"
                "cpt Rain\t{ 0.2\t0.8 }# prior\r\n"
                "cpt Sprinkler|Rain { 0.01 0.99 ; 0.4 0.6 } \r\n"
                "cpt WetGrass | Sprinkler\tRain {0.99 0.01;0.9 0.1 ; 0.8 0.2 ; 0.0 1.0}  # t\r\n")
        split = (SPRINKLER_TEXT.replace("var Rain { t, f }", "var Rain {\n  t, f }")
                 .replace("Sprinkler Rain {", "Sprinkler Rain\n  {"))
        no_parent = SPRINKLER_TEXT.replace("cpt Sprinkler | Rain", "cpt Sprinkler |")
        bases = [crlf, _e_states(crlf.replace("t,\tf", "t, f")), split, no_parent]
        for text in bases:
            assert _outcome(parse_network, text) == _outcome(_reference_parse_network, text)
        assert _outcome(parse_network, no_parent) == (
            "error", 6, 17, "expected at least one parent after '|'")
        kinds = [{tok[0] for tok in fileio._tokenize(text)} for text in bases]
        assert all({"var", "cpt"} <= k for k in kinds[:2])
        assert "var" in kinds[2] and "cpt" in kinds[2] and "number" in kinds[2]
        assert "cpt" in kinds[3] and "number" in kinds[3]
        rng = random.Random(2025)
        alphabet = "0123456789.eE+-;{},|=#\n\r\t abzs_"
        parsed = errors = 0
        for _ in range(3000):
            text = _mutate(rng, rng.choice(bases), alphabet)
            got = _outcome(parse_network, text)
            assert got == _outcome(_reference_parse_network, text), text
            parsed += got[0] != "error"
            errors += got[0] == "error"
        assert parsed >= 80 and errors >= 2000
