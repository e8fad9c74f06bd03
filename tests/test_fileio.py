import csv
import io
import random

import pytest

from amap import (
    ParseError,
    ReportRow,
    parse_network,
    parse_problem,
    serialize_network,
    serialize_problem,
    write_report,
)
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

    def test_cycle_at_end_of_input(self):
        with pytest.raises(ParseError, match="cycle detected through variable 'A'") as info:
            parse_network(CYCLE_TEXT)
        assert (info.value.line, info.value.column) == (6, 1)


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
