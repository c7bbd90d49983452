import dataclasses
import gc
import math
import random
import re
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kindex.ingest as ingest
from kindex import (
    AuthorSummaryRow,
    CitationRecord,
    Config,
    CorpusBundle,
    FilterConfig,
    ParseError,
    PublicationFlag,
    PublicationRecord,
    Role,
    dump_publications,
    load_config,
    parse_author_summaries,
    parse_publications,
)


class TestParsePublications:
    def test_empty_input_is_empty_bundle(self):
        bundle = parse_publications("")
        assert bundle.publications == ()
        assert bundle.citations == ()

    def test_minimal_pub_and_citation(self):
        text = (
            "type=pub\tpub_id=p1\tyear=2019\tauthors=a,b\n"
            "type=cite\tciting_pub=x\tcited_pub=p1\tciting_authors=z\n"
        )
        bundle = parse_publications(text)
        assert len(bundle.publications) == 1
        assert len(bundle.citations) == 1
        assert bundle.publications[0].authors == ("a", "b")
        assert bundle.citations[0].mention_count == 1

    def test_dangling_citation_names_the_id(self):
        text = "type=cite\tciting_pub=x\tcited_pub=ghost\n"
        with pytest.raises(ParseError) as err:
            parse_publications(text)
        assert "ghost" in str(err.value)
        assert err.value.issues[0].line_no == 1

    def test_all_errors_reported_with_line_numbers(self):
        text = (
            "type=pub\tpub_id=p1\tyear=2019\tauthors=a\n"
            "type=pub\tpub_id=p1\tyear=2020\tauthors=b\n"   # duplicate id
            "garbage line\n"
            "type=pub\tpub_id=p2\tyear=bad\tauthors=c\n"
        )
        with pytest.raises(ParseError) as err:
            parse_publications(text)
        assert sorted(i.line_no for i in err.value.issues) == [2, 3, 4]

    def test_comments_and_blank_lines_skipped(self):
        text = "# corpus\n\ntype=pub\tpub_id=p1\tyear=2019\tauthors=a\n"
        assert len(parse_publications(text).publications) == 1

    def test_unknown_field_rejected(self):
        text = "type=pub\tpub_id=p1\tyear=2019\tauthors=a\tcolour=red\n"
        with pytest.raises(ParseError) as err:
            parse_publications(text)
        assert "colour" in str(err.value)

    def test_duplicate_author_in_byline_rejected(self):
        text = "type=pub\tpub_id=p1\tyear=2019\tauthors=a,a\n"
        with pytest.raises(ParseError):
            parse_publications(text)

    def test_institutions_parse_with_spaces_in_names(self):
        text = (
            "type=pub\tpub_id=p1\tyear=2019\tauthors=a,b"
            "\tinstitutions=a:Al-Farabi Kazakh National University,b:Inst Y\n"
        )
        record = parse_publications(text).publications[0]
        assert record.institution_by_author["a"] == (
            "Al-Farabi Kazakh National University"
        )

    @pytest.mark.parametrize("pairs,message", [
        ("a:", "institution entry 'a:' is not author:name"),
        ("a: ", "institution entry 'a:' is not author:name"),
        ("b:Y, a : ", "institution entry 'a :' is not author:name"),
        ("a:X,a:Y", "institutions names 'a' twice"),
        ("a:X,b:Y,b:X", "institutions names 'b' twice"),
        ("a:X , a: X", "institutions names 'a' twice"),
    ])
    @pytest.mark.parametrize("layout", ["serialized", "reordered"])
    def test_institutions_allow_one_named_institution_per_author(self, pairs, message, layout):
        fields = ["pub_id=p1", "year=2019", "authors=a,b", f"institutions={pairs}"]
        if layout == "reordered":  # keys out of table order take the careful path
            fields.reverse()
        line = "\t".join(["type=pub", *fields])
        fast = ingest._SERIALIZED_PUB.match(line)
        assert bool(fast and fast.end() == len(line)) == (
            layout == "serialized" and pairs in ("a:X,a:Y", "a:X,b:Y,b:X"))
        with pytest.raises(ParseError) as err:
            parse_publications(line + "\n")
        assert str(err.value) == f"line 1: {message}"

    def test_round_trip(self, filter_corpus):
        assert parse_publications(dump_publications(filter_corpus)) == filter_corpus

    def test_round_trip_preserves_optional_fields(self):
        text = (
            "type=pub\tpub_id=p1\tyear=2019\tauthors=a,b\tcorresponding=b"
            "\tvenue_tier=Q1\tfwci=1.25\tindexed=false\talphabetical=true"
            "\tflags=ERRONEOUS\tinstitutions=a:Inst X\n"
            "type=cite\tciting_pub=x\tcited_pub=p1\tciting_authors=z,w"
            "\tciting_institutions=Inst Z\tciting_indexed=false\tmentions=3\n"
        )
        bundle = parse_publications(text)
        assert parse_publications(dump_publications(bundle)) == bundle


class TestCheckedOnlyKeys:
    """No indicator reads a pub's venue_tier or indexed value, but both are
    still checked, at the same place among the checks of a line."""

    _PUB = {"type": "pub", "pub_id": "p1", "year": "2019", "authors": "a"}
    _CITE = {"type": "cite", "citing_pub": "q", "cited_pub": "p1"}

    def _parse(self, **fields):
        base = self._CITE if fields.get("type") == "cite" else self._PUB
        return parse_publications(
            "\t".join(f"{k}={v}" for k, v in (base | fields).items()) + "\n"
        )

    @pytest.mark.parametrize("tier", ["Q1", "Q2", "Q3", "Q4", "BOOK", "UNRANKED"])
    @pytest.mark.parametrize("indexed", ["true", "false"])
    def test_documented_values_accepted(self, tier, indexed):
        assert self._parse(venue_tier=tier, indexed=indexed) == self._parse()

    @pytest.mark.parametrize("fields,message", [
        ({"venue_tier": "Q9"}, "unknown venue_tier 'Q9'"),
        ({"venue_tier": "q1"}, "unknown venue_tier 'q1'"),
        ({"indexed": "maybe"}, "indexed: expected true or false, got 'maybe'"),
        # several faults on one line: the first check that fails is reported
        ({"year": "x1", "indexed": "maybe"}, "year: expected an integer, got 'x1'"),
        ({"venue_tier": "Q9", "fwci": "zz"}, "unknown venue_tier 'Q9'"),
        ({"authors": "a,a", "indexed": "nope"}, "indexed: expected true or false, got 'nope'"),
        # each pair of neighbours in the check order, which is table order:
        # year, authors, corresponding, venue_tier, fwci, indexed,
        # alphabetical, flags, institutions; a cite's citing_authors,
        # citing_institutions, citing_indexed, mentions
        ({"institutions": "a", "flags": "ODD"}, "unknown flag 'ODD'"),
        ({"flags": "ODD", "venue_tier": "Q9"}, "unknown venue_tier 'Q9'"),
        ({"fwci": "zz", "year": "x1"}, "year: expected an integer, got 'x1'"),
        ({"indexed": "maybe", "alphabetical": "yes"},
         "indexed: expected true or false, got 'maybe'"),
        ({"type": "cite", "mentions": "x", "citing_indexed": "maybe"},
         "citing_indexed: expected true or false, got 'maybe'"),
        ({"authors": "a,,b", "year": "x1"}, "year: expected an integer, got 'x1'"),
        ({"corresponding": "a,", "authors": "a,,b"}, "authors has an empty item"),
        ({"venue_tier": "Q9", "corresponding": "a,"}, "corresponding has an empty item"),
        ({"indexed": "maybe", "fwci": "zz"}, "fwci: expected a decimal, got 'zz'"),
        ({"flags": "ODD", "alphabetical": "yes"},
         "alphabetical: expected true or false, got 'yes'"),
        ({"type": "cite", "citing_institutions": "x,", "citing_authors": "a,"},
         "citing_authors has an empty item"),
        ({"type": "cite", "citing_indexed": "maybe", "citing_institutions": "x,"},
         "citing_institutions has an empty item"),
    ])
    def test_first_error_on_the_line(self, fields, message):
        with pytest.raises(ParseError) as err:
            self._parse(**fields)
        assert str(err.value) == f"line 1: {message}"


class TestParseAuthorSummaries:
    def test_top_row_of_reference_sample(self, natsci_text):
        rows = parse_author_summaries(natsci_text)
        top = rows[0]
        assert top.display_name == "Myrzakulov Ratbay"
        assert top.h_index == 48
        assert top.doc == 294
        assert top.cit == 7765
        assert top.shares[Role.FA] == pytest.approx(0.09)
        assert top.shares[Role.LA] == pytest.approx(0.61)
        assert top.shares[Role.COA] == pytest.approx(0.30)
        assert top.shares[Role.CORA] == pytest.approx(0.03)
        assert top.shares[Role.SA] == 0.0
        assert top.role_fwci[Role.FA] == pytest.approx(1.775)
        assert top.role_fwci[Role.LA] == pytest.approx(1.292)
        assert Role.SA not in top.role_fwci

    def test_dash_cell_is_absent_not_zero(self):
        text = "Author\tH\tDOC\tCIT\tFA\tFWCI1\nSomeone\t5\t10\t50\t-\t-\n"
        row = parse_author_summaries(text)[0]
        assert Role.FA not in row.shares
        assert Role.FA not in row.role_fwci

    def test_explicit_zero_share_is_present(self):
        text = "Author\tDOC\tCIT\tFA\nSomeone\t10\t50\t0%\n"
        row = parse_author_summaries(text)[0]
        assert row.shares[Role.FA] == 0.0

    def test_bare_number_in_share_column_is_percent(self, natsci_text):
        # one FA cell in the reference sample has no % sign
        rows = parse_author_summaries(natsci_text)
        atabaev = next(r for r in rows if r.display_name == "Atabaev Timur")
        assert atabaev.shares[Role.FA] == pytest.approx(0.27)

    def test_header_only_gives_empty_list(self):
        assert parse_author_summaries("Author\tH\tDOC\tCIT\n") == []

    def test_semicolon_delimiter(self):
        text = "Author;H;DOC;CIT\nSomeone;3;7;21\n"
        row = parse_author_summaries(text)[0]
        assert (row.h_index, row.doc, row.cit) == (3, 7, 21)

    def test_decimal_comma_accepted(self):
        text = "Author\tDOC\tCIT\tFWCI1\nSomeone\t10\t50\t1,775\n"
        row = parse_author_summaries(text)[0]
        assert row.role_fwci[Role.FA] == pytest.approx(1.775)

    def test_digit_grouping_spaces_accepted(self):
        text = "Author\tH\tDOC\tCIT\nSomeone\t48\t2\u00a0940\t7 765\n"
        row = parse_author_summaries(text)[0]
        assert (row.doc, row.cit) == (2940, 7765)

    def test_h_greater_than_doc_rejected(self):
        text = "Author\tH\tDOC\tCIT\nSomeone\t11\t10\t50\n"
        with pytest.raises(ParseError) as err:
            parse_author_summaries(text)
        assert err.value.issues[0].line_no == 2

    def test_negative_count_rejected(self):
        text = "Author\tH\tDOC\tCIT\nSomeone\t3\t10\t-5\n"
        with pytest.raises(ParseError) as err:
            parse_author_summaries(text)
        assert str(err.value) == "line 2: CIT must be non-negative, got -5"

    def test_share_above_100_percent_rejected(self):
        text = "Author\tDOC\tCIT\tFA\nSomeone\t10\t50\t120%\n"
        with pytest.raises(ParseError):
            parse_author_summaries(text)

    def test_unknown_column_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_author_summaries("Author\tWHAT\nSomeone\t1\n")
        assert "what" in str(err.value)

    def test_id_column_overrides_display_name(self):
        text = "Id\tAuthor\tDOC\tCIT\nmr-48\tMyrzakulov Ratbay\t294\t7765\n"
        row = parse_author_summaries(text)[0]
        assert row.author == "mr-48"
        assert row.display_name == "Myrzakulov Ratbay"


class TestNumberRejections:
    @pytest.mark.parametrize("value", ["nan", "inf", "+inf", "Infinity", "1e400"])
    def test_non_finite_corpus_fwci_rejected(self, value):
        text = f"# c\ntype=pub\tpub_id=p1\tyear=2019\tauthors=a\tfwci={value}\n"
        with pytest.raises(ParseError) as err:
            parse_publications(text)
        [issue] = err.value.issues
        assert issue.line_no == 2
        assert "p1" in issue.message and "non-finite fwci" in issue.message

    def test_negative_infinite_fwci_keeps_the_negative_message(self):
        text = "type=pub\tpub_id=p1\tyear=2019\tauthors=a\tfwci=-inf\n"
        with pytest.raises(ParseError, match="negative fwci -inf"):
            parse_publications(text)

    @pytest.mark.parametrize("column", ["FWCI1", "FWCI3", "FWCI5"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "NaN", "1e400"])
    def test_non_finite_summary_fwci_rejected(self, column, cell):
        text = f"Author\tDOC\tCIT\t{column}\nSomeone\t10\t50\t{cell}\n"
        with pytest.raises(ParseError) as err:
            parse_author_summaries(text)
        assert str(err.value) == f"line 2: {column} must be finite, got {cell!r}"

    @pytest.mark.parametrize("prefix", [
        "type=pub\tpub_id=p1\tauthors=a\tyear=",
        "type=pub\tpub_id=p1\tauthors=a\tyear=2019\n"
        "type=cite\tciting_pub=x\tcited_pub=p1\tmentions=",
    ])
    @pytest.mark.parametrize("value", ["2_000", "+20", "\u0662\u0660"])
    def test_non_standard_corpus_integer_rejected(self, prefix, value):
        with pytest.raises(ParseError) as err:
            parse_publications(prefix + value + "\n")
        key = prefix.rpartition("\t")[2].rstrip("=")
        assert str(err.value).endswith(f": {key}: expected an integer, got {value!r}")

    @pytest.mark.parametrize("column,cell", [
        ("CIT", "1_000"), ("H", "+3"), ("DOC", "1_0"), ("CIT", "\u0661\u0662"),
    ])
    def test_non_standard_summary_integer_rejected(self, column, cell):
        values = {"H": "3", "DOC": "10", "CIT": "50"} | {column: cell}
        text = "Author\tH\tDOC\tCIT\nSomeone\t" + "\t".join(values.values()) + "\n"
        with pytest.raises(ParseError) as err:
            parse_author_summaries(text)
        assert str(err.value) == f"line 2: {column}: expected an integer, got {cell!r}"


_LONG = "9" * 5000


class TestIntegerLength:
    """Integers of more than 4300 digits, which int() and str() refuse by
    default, are reported by field; shorter ones read and write as before."""

    @pytest.mark.parametrize("text,message", [
        (f"type=pub\tpub_id=p1\tyear={_LONG}\tauthors=a\n", "year has more than 4300 digits"),
        (f"type=pub\tyear=-{_LONG}\tpub_id=p1\tauthors=a\n", "year has more than 4300 digits"),
        (f"type=pub\tpub_id=p1\tyear=1\tauthors=a\n"
         f"type=cite\tciting_pub=q\tcited_pub=p1\tmentions={_LONG}\n",
         "mentions has more than 4300 digits"),
        (f"type=pub\tpub_id=p1\tyear=1\tauthors=a\n"
         f"type=cite\tmentions={_LONG}\tciting_pub=q\tcited_pub=p1\n",
         "mentions has more than 4300 digits"),
    ], ids=["year", "reordered-year", "mentions", "reordered-mentions"])
    def test_corpus_integer_names_its_field(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_publications(text)
        [issue] = err.value.issues
        assert (issue.line_no, issue.message) == (text.count("\n"), message)

    @pytest.mark.parametrize("cell", [_LONG, f"-{_LONG}", f"1 {_LONG}"],
                             ids=["digits", "negative", "grouped"])
    def test_summary_count_is_too_large_for_a_float(self, cell):
        with pytest.raises(ParseError) as err:
            parse_author_summaries(f"Author\tCIT\nA\t{cell}\n")
        assert str(err.value) == "line 2: CIT is too large for a float"

    @pytest.mark.parametrize("bundle,message", [
        (CorpusBundle((PublicationRecord("p", 1, ("a",)),),
                      (CitationRecord("q", "p", mention_count=10**5000),)),
         "cannot write cite 'q' -> 'p': mentions has more than 4300 digits"),
        (CorpusBundle((PublicationRecord("p", -10**4300, ("a",)),)),
         "cannot write pub 'p': year has more than 4300 digits"),
    ], ids=["mentions", "year"])
    def test_writer_names_the_record_and_the_field(self, bundle, message):
        with pytest.raises(ValueError) as err:
            dump_publications(bundle)
        assert str(err.value) == message

    def test_4300_digits_read_and_write_back(self):
        digits = "9" * 4300
        text = (f"type=pub\tpub_id=p1\tyear=-{digits}\tauthors=a\n"
                f"type=cite\tciting_pub=q\tcited_pub=p1\tmentions={digits}\n")
        bundle = parse_publications(text)
        assert bundle.publications[0].year == -int(digits)
        assert bundle.citations[0].mention_count == int(digits)
        assert dump_publications(bundle) == text
        assert parse_publications(text.replace("\t", " \t")) == bundle  # off the fast path


# A pub line and a cite line holding every list key of their kind, each at a
# valid value of several items; the corpus puts the line after pub p0.
_LIST_FIELDS = {
    "pub": {"pub_id": "p1", "year": "2020", "authors": "a,b,c", "corresponding": "a,b",
            "flags": "ERRONEOUS,NONSCIENTIFIC", "institutions": "a:X,b:Lab 2: Y"},
    "cite": {"citing_pub": "q", "cited_pub": "p0", "citing_authors": "u,v w",
             "citing_institutions": "X,Inst Y"},
}
_LIST_KEYS = ("authors", "corresponding", "flags", "institutions", "citing_authors",
              "citing_institutions")


def _kind_of(key):
    return "pub" if key in _LIST_FIELDS["pub"] else "cite"


def _corpus_with(kind, fields):
    line = "\t".join(f"{key}={value}" for key, value in {"type": kind, **fields}.items())
    return "type=pub\tpub_id=p0\tyear=2020\tauthors=a\n" + line


class TestEmptyValues:
    """An empty value that docs/formats.md does not allow is refused, not
    read as absent: an empty item inside a list, ``fwci=`` and an empty
    ``citing_pub``. A wholly empty list is still a list of no items."""

    @given(st.sampled_from(_LIST_KEYS), st.data())
    def test_an_empty_item_anywhere_in_a_list_is_refused(self, key, data):
        kind, n = _kind_of(key), data.draw(st.integers(1, 3))
        fields = {k: ",".join(v.split(",")[:n]) if k in _LIST_KEYS else v
                  for k, v in _LIST_FIELDS[kind].items()}
        parse_publications(_corpus_with(kind, fields))
        items = fields[key].split(",")
        items.insert(data.draw(st.integers(0, len(items))),
                     data.draw(st.sampled_from(["", " ", "\xa0"])))
        fields[key] = ",".join(items)
        fields = dict(data.draw(st.permutations(list(fields.items()))))
        with pytest.raises(ParseError) as err:
            parse_publications(_corpus_with(kind, fields))
        assert [str(issue) for issue in err.value.issues] == [f"line 2: {key} has an empty item"]

    @pytest.mark.parametrize("key,message", [
        ("fwci", "fwci: expected a decimal, got ''"),
        ("citing_pub", "citation has empty citing_pub"),
    ])
    def test_an_empty_value_is_refused(self, key, message):
        kind = "cite" if key == "citing_pub" else "pub"
        fields = {**_LIST_FIELDS[kind], key: ""}
        with pytest.raises(ParseError) as err:
            parse_publications(_corpus_with(kind, fields))
        assert [str(issue) for issue in err.value.issues] == [f"line 2: {message}"]

    @pytest.mark.parametrize("key", _LIST_KEYS[1:])
    def test_a_wholly_empty_list_holds_no_items(self, key):
        kind = _kind_of(key)
        fields = {**_LIST_FIELDS[kind], key: ""}
        empty = parse_publications(_corpus_with(kind, fields))
        del fields[key]
        assert empty == parse_publications(_corpus_with(kind, fields))


def _documented_keys(record):
    """(key, required) for each row of docs/formats.md's ``record`` table."""
    docs = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
    table = docs.split(f"### `{record}` records", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return [(key.strip().strip("`"), required.strip() == "yes") for key, required in rows]


class TestDocumentedKeyTables:
    """docs/formats.md lists each record kind's keys in the serializer's
    order, and marks as required exactly the keys the parser requires."""

    _PUB = "type=pub\tpub_id=p1\tyear=2020\tauthors=a\n"

    @pytest.mark.parametrize("record,fields,line", [
        ("pub", [key for key, _, _ in ingest._PUB_TABLE],
         "type=pub\tpub_id=p2\tyear=2020\tauthors=a\tcorresponding=a\tvenue_tier=Q1\tfwci=1.5"
         "\tindexed=true\talphabetical=true\tflags=ERRONEOUS\tinstitutions=a:X"),
        ("cite", [key for key, _, _ in ingest._CITE_TABLE],
         "type=cite\tciting_pub=q\tcited_pub=p1\tciting_authors=b\tciting_institutions=Y"
         "\tciting_indexed=false\tmentions=2"),
    ])
    def test_keys_order_and_required_flags(self, record, fields, line):
        documented = _documented_keys(record)
        tokens = line.split("\t")
        assert [key for key, _ in documented] == list(fields) == [
            token.partition("=")[0] for token in tokens[1:]]
        parse_publications(self._PUB + line)
        required = []
        for i, key in enumerate(fields, 1):
            try:
                parse_publications(self._PUB + "\t".join(tokens[:i] + tokens[i + 1:]))
            except ParseError as exc:
                [issue] = exc.issues
                assert issue.message == f"{record} record missing required field(s) {[key]}"
                required.append(key)
        assert required == [key for key, is_required in documented if is_required]


class TestDocumentedTables:
    """docs/formats.md lists exactly the summary columns and the config keys
    the parsers accept, with the config defaults they apply and, in the order
    the rules apply, each rule key's audit rule."""

    _DOCS = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")

    def test_summary_header_names_every_known_column(self):
        names = self._DOCS.split("must come from this set", 1)[1].split("\n\n")[1].split()
        assert len(names) == len(set(names))
        assert {name.lower() for name in names} == ingest._KNOWN_COLUMNS
        assert parse_author_summaries("\t".join(names)) == []

    def test_config_table_names_every_accepted_key(self):
        table = self._DOCS.split("## Config files", 1)[1].split("\n\n")[2]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]]
                for line in table.splitlines()[2:]]
        assert {key for key, _ in rows} == set(ingest._RULE_KEYS) | {"precision"}
        for key, default in rows:
            assert load_config(f"{key}={default}\n") == Config()
        rules = [line.split("|")[3].strip().strip("`") for line in table.splitlines()[2:]]
        switches = dataclasses.fields(FilterConfig)
        assert list(zip((key for key, _ in rows), rules)) == [
            (f.metadata.get("key", f.name), f.metadata["rule"]) for f in switches
        ] + [("precision", "")]


class TestDuplicateIds:
    def test_repeated_id_names_the_first_line(self):
        text = (
            "Id\tAuthor\tDOC\tCIT\n"
            "a1\tFirst\t1\t2\n"
            "b2\tSecond\t1\t2\n"
            "a1\tThird\t1\t2\n"
        )
        with pytest.raises(ParseError) as err:
            parse_author_summaries(text)
        assert str(err.value) == "line 4: duplicate Id 'a1' (first seen on line 2)"

    def test_empty_id_cell_falls_back_to_author_before_the_check(self):
        text = "Id;Author;DOC;CIT\nx;Same;1;2\n;Same;1;2\n;Same;1;2\n"
        with pytest.raises(ParseError) as err:
            parse_author_summaries(text)
        assert [str(i) for i in err.value.issues] == [
            "line 4: duplicate Id 'Same' (first seen on line 3)"
        ]

    def test_dash_id_cells_fall_back_to_their_authors(self):
        # "-" is an absent value, so two such ids are not a repeat.
        text = "Id\tAuthor\tDOC\tCIT\n-\tFirst\t1\t2\n -\tSecond\t1\t2\n"
        rows = parse_author_summaries(text)
        assert [(row.author, row.display_name) for row in rows] == [
            ("First", "First"), ("Second", "Second")]

    @pytest.mark.parametrize("header,row", [
        ("Author\tDOC", "-\t1"), ("Id\tAuthor\tDOC", "a1\t-\t1"), ("Id;Author;DOC", "-;-;1"),
    ], ids=["no-id-column", "id-column", "dash-id-too"])
    def test_absent_author_cell_is_rejected(self, header, row):
        with pytest.raises(ParseError) as err:
            parse_author_summaries(f"{header}\n{row}\n")
        assert str(err.value) == "line 2: empty Author cell"

    def test_repeated_author_without_id_column_is_kept(self, natsci_text):
        # the published sample repeats one row verbatim and has no Id column
        names = [r.display_name for r in parse_author_summaries(natsci_text)]
        assert names.count("Shunkeyev Kuanyshbek") == 2


_CORPUS = "type=pub\tpub_id=p1\tyear=2019\tauthors=a\ntype=cite\tciting_pub=x\tcited_pub=p1\n"
_SUMMARY = "Author\tDOC\tCIT\nSomeone\t10\t50\n"


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("parse,text", [
        (parse_publications, _CORPUS),
        (parse_publications, _CORPUS + "garbage\n"),
        (parse_author_summaries, _SUMMARY),
        (parse_author_summaries, _SUMMARY + "Other\t1\tx\n"),
        (parse_author_summaries, "Author\tWHAT\n"),
    ])
    def test_collector_state_is_restored(self, enabled, parse, text):
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            try:
                parse(text)
            except ParseError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_collector_is_paused_while_lines_are_read(self):
        seen = []

        def lines():
            for line in _CORPUS.splitlines(keepends=True):
                seen.append(gc.isenabled())
                yield line

        assert gc.isenabled()
        parse_publications(lines())
        assert seen == [False, False]
        assert gc.isenabled()


# Field values: valid ones next to values just outside the format
# (non-finite floats, non-standard integers, out-of-range numbers).
def _line(required, optional):
    """A record line: the required fields, some optional ones, an occasional
    stray token, in any order."""
    fields = st.fixed_dictionaries(
        {key: st.sampled_from(values) for key, values in required.items()},
        optional={key: st.sampled_from(values) for key, values in optional.items()},
    )
    tokens = fields.map(lambda f: [f"{k}={v}" for k, v in f.items()])
    extra = st.lists(st.sampled_from(["", " ", "junk", "colour=red"]), max_size=1)
    return st.tuples(tokens, extra).map(lambda t: t[0] + t[1]).flatmap(st.permutations).map(
        "\t".join
    )


_pub_lines = _line(
    {"type": ["pub"], "pub_id": ["p1", "p2", "p3"],
     "year": ["2020", "1999", "-5", "2_000", "+1"], "authors": ["a", "a,b", "b, a,", ""]},
    {"fwci": ["1.5", "0", "", "nan", "inf", "1e400", "-inf", "-1"], "corresponding": ["a", "z"],
     "venue_tier": ["Q1", "BOOK", "Q9"], "indexed": ["false", "no"], "alphabetical": ["true"],
     "flags": ["ERRONEOUS", "ODD"], "institutions": ["a:X Y", "a"]},
)
_cite_lines = _line(
    {"type": ["cite"], "citing_pub": ["x", "p2"], "cited_pub": ["p1", "p1", "p2"]},
    {"citing_authors": ["a", "z,w"], "citing_institutions": ["X Y", ""],
     "citing_indexed": ["false"], "mentions": ["1", "3", "0", "+3", "1_0", "\u0663"]},
)


@st.composite
def corpus_texts(draw):
    line = st.one_of(_pub_lines, _pub_lines, _cite_lines, st.text(max_size=20))
    return "\n".join(draw(st.lists(line, max_size=4)))


_SUMMARY_OPTIONAL = (
    "Id", "H", "DOC", "CIT", "FA", "FWCI1", "LA", "FWCI2", "CoA", "FWCI3", "CorA",
    "FWCI4", "SA", "FWCI5",
)
_CELLS = {
    "Id": ["s1", "s2", "s3", ""], "Author": ["A", "B", ""],
    "H": ["0", "3", "-", "+3", "-5"], "DOC": ["3", "7 765", "0", "1_000", "\u0663"],
    "CIT": ["0", "50", "-", "1 0", "x"],
}
_DECIMAL_CELLS = ["-", "", "12.5", "50%", "1,5", "0", "101", "nan", "inf", "1e400", "-inf", "nan%"]


@st.composite
def summary_texts(draw):
    delim = draw(st.sampled_from(["\t", ";"]))
    columns = draw(st.lists(st.sampled_from(_SUMMARY_OPTIONAL), unique=True, max_size=5))
    columns.insert(draw(st.integers(0, len(columns))), "Author")
    header = draw(st.sampled_from([columns, columns + ["Bogus"]]))
    cells = [st.sampled_from(_CELLS.get(c, _DECIMAL_CELLS)) for c in header]
    row = st.tuples(*cells).map(delim.join)
    rows = draw(st.lists(st.one_of(row, row, row, st.text(max_size=20)), max_size=4))
    return "\n".join([delim.join(header)] + rows)


class TestParsersOnArbitraryText:
    """Any text yields records or a ParseError, and every float accepted is
    finite."""

    @settings(max_examples=300, deadline=None)
    @given(corpus_texts() | st.text())
    def test_corpus_parser(self, text):
        try:
            bundle = parse_publications(text)
        except ParseError as exc:
            assert exc.issues
            return
        assert all(p.fwci is None or math.isfinite(p.fwci) for p in bundle.publications)

    @settings(max_examples=300, deadline=None)
    @given(summary_texts() | st.text())
    def test_summary_parser(self, text):
        try:
            rows = parse_author_summaries(text)
        except ParseError as exc:
            assert exc.issues
            return
        for row in rows:
            assert all(map(math.isfinite, row.shares.values()))
            assert all(map(math.isfinite, row.role_fwci.values()))


_DIGIT_RUNS = st.one_of(st.integers(1, 400), st.sampled_from([307, 308, 309, 310])).flatmap(
    lambda n: st.text("0123456789", min_size=n, max_size=n))
_COUNT_CELL = st.one_of(
    _DIGIT_RUNS,
    st.lists(st.text("0123456789", min_size=1, max_size=4), min_size=2, max_size=4).flatmap(
        lambda groups: st.sampled_from([" ", "\xa0"]).map(lambda sep: sep.join(groups))),
    st.sampled_from(["1_000", "+3", "-5", "\u0661\u0662", "\u00b2", "-", ""]),
)
# Each pool holds 50 (a share of 0.5 but an FWCI of 50.0), 150 (an FWCI but
# no share) and a cell on each side of the parser's short-cell length gate.
_SHARE_CELL = st.sampled_from(["9%", " 9 %", "9,5", "101", "nan", "%", "0", "100%", "-", "",
                               "50", "150", "33.33%", "33.3333%"])
_FWCI_CELL = st.sampled_from(["1,5", "-0.1", "nan", "inf", "1e400", "1_0", "0", "2.25", "-", "",
                              "50", "150", "1.2345", "1.2345678"])
_ROLE_COLUMNS = (("fa", "fwci1", Role.FA), ("la", "fwci2", Role.LA), ("coa", "fwci3", Role.COA),
                 ("cora", "fwci4", Role.CORA), ("sa", "fwci5", Role.SA))


def _cell_outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return str(exc)


def _reference_row(columns, cells):
    """A summary row read cell by cell as docs/formats.md describes it,
    with every count cell through ``_parse_count``; an absent Id reads as
    the Author."""
    cell = dict(zip(columns, cells))
    if cell["author"] in ("", "-"):
        raise ValueError("empty Author cell")
    author = cell["author"] if cell.get("id", "") in ("", "-") else cell["id"]
    h, doc, cit = (
        None if cell.get(c, "") in ("", "-") else ingest._parse_count(cell[c], c.upper())
        for c in ("h", "doc", "cit")
    )
    if doc is not None and doc < 1:
        raise ValueError("DOC must be at least 1")
    if h is not None and doc is not None and h > doc:
        raise ValueError(f"H {h} exceeds DOC {doc}")
    shares, role_fwci = {}, {}
    for share, _, role in _ROLE_COLUMNS:
        text = cell.get(share, "")
        if text not in ("", "-"):
            percent = ingest._parse_decimal(share.upper(), (
                text[:-1].strip() if text.endswith("%") else text).replace(",", "."), text)
            if not 0 <= percent <= 100:
                raise ValueError(f"{share.upper()} share {text!r} is outside 0..100%")
            shares[role] = percent / 100
    for _, fwci, role in _ROLE_COLUMNS:
        text = cell.get(fwci, "")
        if text not in ("", "-"):
            value = ingest._parse_decimal(fwci.upper(), text.replace(",", "."), text)
            if value < 0:
                raise ValueError(f"{fwci.upper()} must be non-negative")
            if not math.isfinite(value):
                raise ValueError(f"{fwci.upper()} must be finite, got {text!r}")
            role_fwci[role] = value
    return AuthorSummaryRow(author, cell["author"], h, doc, cit, shares, role_fwci)


@st.composite
def _summary_tables(draw):
    """(columns, rows of cells): Author, maybe Id, and any other columns, in any order.
    Share and FWCI cells also draw from a few texts kept for the whole table, so
    that a text recurs in one column, in other columns and across the two kinds."""
    others = ["h", "doc", "cit", *(c for columns in _ROLE_COLUMNS for c in columns[:2])]
    ids = draw(st.sampled_from([[], ["id"]]))
    columns = draw(st.permutations(["author", *ids, *draw(st.lists(st.sampled_from(others),
                                                                   unique=True, max_size=6))]))
    repeated = st.sampled_from(draw(st.lists(_SHARE_CELL | _FWCI_CELL, min_size=1, max_size=3)))
    cell = {"author": st.sampled_from(["A", "B c", "", "-"]),
            "id": st.sampled_from(["", "-", "a", "b"]),
            **{c: _COUNT_CELL for c in ("h", "doc", "cit")},
            **{c[0]: _SHARE_CELL | repeated for c in _ROLE_COLUMNS},
            **{c[1]: _FWCI_CELL | repeated for c in _ROLE_COLUMNS}}
    rows = draw(st.lists(st.tuples(*(cell[c] for c in columns)), max_size=8))
    return columns, rows


class TestSummaryRowsCellByCell:
    """Counts of plain ASCII digits skip ``_parse_count``; every other cell
    keeps its message, and whole tables read as the cell-by-cell reference.
    A short share or FWCI text is read once per table and kind, so these
    tests also check that a cell's value and message depend only on its
    text and column: a bad cell is reported on every row that holds it, a
    share never takes an FWCI's value or the reverse, and a long cell is
    read every time."""

    def _issues(self, text):
        with pytest.raises(ParseError) as exc:
            parse_author_summaries(text)
        return [str(issue) for issue in exc.value.issues]

    def test_a_repeated_bad_cell_is_reported_on_each_row(self):
        assert self._issues("Author\tFA\nA\tzz\nB\t9\nC\tzz\n") == [
            "line 2: FA: expected a decimal, got 'zz'", "line 4: FA: expected a decimal, got 'zz'"]

    def test_signed_zeros_keep_their_sign(self):
        rows = parse_author_summaries("Author\tFA\tFWCI1\nA\t-0\t-0\nB\t0\t0\nC\t-0\t-0\nD\t0\t0\n")
        signs = [(math.copysign(1, row.shares[Role.FA]), math.copysign(1, row.role_fwci[Role.FA]))
                 for row in rows]
        assert signs == [(-1, -1), (1, 1), (-1, -1), (1, 1)]

    def test_an_fwci_text_read_first_is_still_checked_as_a_share(self):
        assert self._issues("Author\tFA\tFWCI1\nA\t-\t150\nB\t150\t-\n") == [
            "line 3: FA share '150' is outside 0..100%"]

    def test_each_short_text_is_read_once_per_kind(self):
        kind = {"FA": "share", "LA": "share", "FWCI1": "fwci", "FWCI2": "fwci"}
        good = {"share": ["9", "12.5%", "9,5", "9 %", "50", "0", "33.3333%", "12.345678"],
                "fwci": ["1.25", "0,8", "50", "150", "2", "1.2345678", "0.98765432"]}
        bad = [("FA", "zz"), ("LA", "150"), ("FWCI1", "nan"), ("FWCI2", "-1"), ("FA", "x" * 9)]
        rng = random.Random(0)
        rows = [dict([bad[i // 20 % len(bad)]]) if i % 20 == 19  # one bad cell, nothing else
                else {c: rng.choice(good[kind[c]]) for c in kind} for i in range(200)]
        text = "Author\t" + "\t".join(kind) + "\n" + "".join(
            "A\t" + "\t".join(row.get(c, "-") for c in kind) + "\n" for row in rows)
        cells = [(c, cell) for row in rows for c, cell in row.items()]
        bad_cells = [cell for cell in cells if cell in bad]
        good_cells = [(kind[c], cell) for c, cell in cells if (c, cell) not in bad]
        short = {cell for cell in good_cells if len(cell[1]) <= ingest._SHORT_CELL}
        long_cells = [cell for cell in good_cells if len(cell[1]) > ingest._SHORT_CELL]
        assert short and long_cells and len(bad_cells) == 10

        calls = []
        parse_decimal = ingest._parse_decimal

        def counting(key, text, written=None):
            calls.append(written)
            return parse_decimal(key, text, written)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_parse_decimal", counting)
            assert len(self._issues(text)) == 10
        assert len(calls) == len(short) + len(long_cells) + len(bad_cells)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["H", "CIT"]), _COUNT_CELL)
    def test_count_cell_reads_as_parse_count(self, column, cell):
        text = f"Author\t{column}\nA\t{cell}\n"
        try:
            [row] = parse_author_summaries(text)
            got = getattr(row, "h_index" if column == "H" else "cit")
        except ParseError as exc:
            [issue] = exc.issues
            got = issue.message
        stripped = cell.strip()
        expected = None if stripped in ("", "-") else _cell_outcome(
            ingest._parse_count, stripped, column)
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(_summary_tables())
    def test_tables_read_as_the_reference(self, table):
        columns, rows = table
        text = "\n".join("\t".join(cells) for cells in [columns, *rows])
        expected, issues, id_lines = [], [], {}
        for line_no, cells in enumerate(rows, 2):
            if not "".join(cells).strip():
                continue  # a blank line
            outcome = _cell_outcome(_reference_row, columns, [c.strip() for c in cells])
            if isinstance(outcome, str):
                issues.append(ingest.ParseIssue(line_no, outcome))
            elif "id" in columns and outcome.author in id_lines:
                first = id_lines[outcome.author]
                issues.append(ingest.ParseIssue(
                    line_no, f"duplicate Id {outcome.author!r} (first seen on line {first})"))
            else:
                id_lines[outcome.author] = line_no
                expected.append(outcome)
        try:
            assert parse_author_summaries(text) == expected and not issues
        except ParseError as exc:
            assert exc.issues == issues


# Ids and names with inner spaces, no-break spaces, colons and "#", but
# nothing str.strip removes at their edges and no "," or "=".
_NAME = st.sampled_from(["a", "b", "b c", "x:y", "é#", "a\xa0b", "#1", "p 1"])


@st.composite
def _bundles(draw):
    pub_ids = draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
    pubs = tuple(
        PublicationRecord(pub_id, 2020, tuple(draw(st.lists(_NAME, min_size=1, max_size=3,
                                                            unique=True))))
        for pub_id in pub_ids
    )
    cites = []
    for _ in range(draw(st.integers(1, 8))):
        cited = draw(st.sampled_from(pub_ids))
        cites.append(CitationRecord(
            draw(_NAME.filter(lambda s: s != cited)), cited,
            tuple(draw(st.lists(_NAME, min_size=1, max_size=3))),
            frozenset(draw(st.lists(_NAME, max_size=3))),
            draw(st.booleans()), draw(st.sampled_from([1, 2, 10, 10**30])),
        ))
    return CorpusBundle(pubs, tuple(cites))


def _set_field(tokens, key, value):
    """Replace the ``key`` token, or add it after the last token."""
    for i, token in enumerate(tokens):
        if token.partition("=")[0] == key:
            tokens[i] = f"{key}={value}"
            return
    tokens.append(f"{key}={value}")


# One change to a cite line: its kind, then three numbers that pick a
# token, a place in it or another token, and a character or value.
_CHANGE = st.tuples(
    st.sampled_from(["order", "repeat", "drop", "unknown", "pad", "equals", "comma",
                     "mentions", "indexed", "self"]),
    st.integers(0, 60), st.integers(0, 60), st.integers(0, 60),
)


def _changed(line, changes, list_keys=("citing_authors=", "citing_institutions=")):
    """``line`` with each change applied: off the serializer's layout, or
    onto a value the record rejects. A "comma" change goes to a token
    starting with one of ``list_keys`` when there is one."""
    tokens = line.split("\t")
    for kind, n, m, k in changes:
        lists = [j for j, t in enumerate(tokens) if t.startswith(list_keys)]
        targets = lists if kind == "comma" and lists else range(len(tokens))
        i = targets[n % len(targets)]
        token = tokens[i]  # every token holds a "="
        value_at = token.index("=") + 1
        commas = [value_at + j for j, c in enumerate(token[value_at:]) if c == ","]
        if kind == "order":
            j = m % len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "drop":
            del tokens[i]
        elif kind in ("repeat", "unknown"):
            tokens.insert(m % (len(tokens) + 1), token if kind == "repeat" else "colour=red")
        elif kind == "pad":  # at the edge of a key, a value or a list item
            edges = [0, value_at - 1, value_at, len(token), *commas, *(c + 1 for c in commas)]
            at = edges[m % len(edges)]
            tokens[i] = token[:at] + " \x1f\xa0"[k % 3] + token[at:]
        elif kind == "equals":
            at = value_at + m % (len(token) - value_at + 1)
            tokens[i] = token[:at] + "=" + token[at:]
        elif kind == "comma":  # an empty list item at either end or between two
            edges = [value_at, len(token), *commas]
            at = edges[m % len(edges)]
            tokens[i] = token[:at] + "," + token[at:]
        elif kind == "mentions":
            _set_field(tokens, "mentions", ["0", "-1", "007", "1_0", "\u0663"][k % 5])
        elif kind == "indexed":
            _set_field(tokens, "citing_indexed", ["maybe", "true"][k % 2])
        else:
            cited = next((t for t in tokens if t.startswith("cited_pub=")), "cited_pub=")
            _set_field(tokens, "citing_pub", cited.partition("=")[2])
    return "\t".join(tokens)


def _outcome(text):
    try:
        return parse_publications(text)
    except ParseError as exc:
        return exc.issues


class TestSerializedCiteFastPath:
    """Cite lines in the serializer's layout are read by one pattern match;
    every line must give the records or messages of the careful path."""

    @settings(max_examples=300, deadline=None)
    @given(_bundles(), st.lists(st.lists(_CHANGE, min_size=1, max_size=2), min_size=3, max_size=9))
    def test_same_outcome_as_the_careful_path(self, bundle, changes):
        text = dump_publications(bundle)
        assert parse_publications(text) == bundle
        lines = []
        for line in text.splitlines():
            if line.startswith("type=cite"):
                # The serializer's own lines take the fast path; three mutants
                # of each line replace it.
                assert ingest._SERIALIZED_CITE.fullmatch(line)
                lines += [_changed(line, changes[(len(lines) + t) % len(changes)])
                          for t in range(3)]
            else:
                lines.append(line)
        text = "\n".join(lines)
        # A string, and the lines of a file, which end in a newline.
        sources = (text, text.splitlines(keepends=True))
        fast = [_outcome(source) for source in sources]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_SERIALIZED_CITE", re.compile("(?!)"))
            assert [_outcome(source) for source in sources] == fast


# Author ids without ":", so that every institution pair reads back; names
# that str.strip leaves alone, with inner spaces, colons and "#".
_AUTHOR = st.sampled_from(["a", "b", "b c", "é#", "a\xa0b", "#1"])
_INSTITUTION_NAME = st.sampled_from(["X", "Inst Y", "Lab 3: Applied", "é:#", ":", "a\xa0b"])
_FWCI = st.none() | st.sampled_from([0.0, -0.0, 1e-05, 1e16]) | st.floats(
    0, allow_infinity=False)


@st.composite
def _pub_bundles(draw):
    """Bundles whose publications use every pub key the serializer writes."""
    pub_ids = draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
    pubs = []
    for pub_id in pub_ids:
        authors = draw(st.lists(_AUTHOR, min_size=1, max_size=3, unique=True))
        pubs.append(PublicationRecord(
            pub_id, draw(st.integers(-3000, 3000)), tuple(authors),
            frozenset(draw(st.lists(st.sampled_from(authors), max_size=2))), draw(_FWCI),
            draw(st.booleans()), frozenset(draw(st.lists(st.sampled_from(PublicationFlag),
                                                         max_size=2))),
            draw(st.dictionaries(st.sampled_from(authors), _INSTITUTION_NAME, max_size=3)),
        ))
    cites = tuple(CitationRecord(f"x{i}", draw(st.sampled_from(pub_ids)))
                  for i in range(draw(st.integers(0, 2))))
    return CorpusBundle(tuple(pubs), cites)


def _with_key(line, key, value):
    """A pub line with ``key=value`` inserted at its place in _PUB_TABLE order."""
    tokens = line.split("\t")
    order = [name for name, _, _ in ingest._PUB_TABLE]
    rank = order.index(key)
    at = next((i for i, t in enumerate(tokens[1:], 1)
               if order.index(t.partition("=")[0]) > rank), len(tokens))
    tokens.insert(at, f"{key}={value}")
    return "\t".join(tokens)


_TIERS = st.sampled_from(sorted(ingest._VENUE_TIERS))
_PUB_LIST_KEYS = ("authors=", "corresponding=", "flags=", "institutions=")
# Values just outside the documented spelling, or onto a value the record
# rejects; "dup_author", "ghost" and "institution" also read the byline.
_PUB_VALUES = {
    "fwci": ["1e2", "1_0", "-0.5", "inf", "9" * 400, "1e+400", "-0.0", " 2.5", ".5"],
    "year": ["+3", "\u0663", "-7", "0012", "2_000", "9" * 5000],
    "venue_tier": ["Q5", "Q1", "q1"],
    "indexed": ["maybe", "false"],
    "alphabetical": ["yes", "true"],
    "flags": ["ODD", "NONSCIENTIFIC,ODD", "ERRONEOUS,ERRONEOUS", "ERRONEOUS ,NONSCIENTIFIC"],
}
_PUB_CHANGE = st.tuples(
    st.sampled_from(["order", "repeat", "drop", "unknown", "pad", "equals", "comma",
                     *_PUB_VALUES, "institution", "dup_author", "ghost", "dup_id"]),
    st.integers(0, 60), st.integers(0, 60), st.integers(0, 60),
)


def _changed_pub(line, changes, first_id):
    """A pub line with each change applied; "dup_id" sets its pub_id to
    ``first_id``, the id of an earlier line."""
    for kind, n, m, k in changes:
        if kind in ("order", "repeat", "drop", "unknown", "pad", "equals", "comma"):
            line = _changed(line, [(kind, n, m, k)], _PUB_LIST_KEYS)
            continue
        tokens = line.split("\t")
        byline = next((t.partition("=")[2] for t in tokens if t.startswith("authors=")), "a")
        author = byline.split(",")[0]
        if kind in _PUB_VALUES:
            _set_field(tokens, kind, _PUB_VALUES[kind][k % len(_PUB_VALUES[kind])])
        elif kind == "institution":  # no ":", or a space next to it
            pairs = [author, f"{author} :X", f"{author}: X", f"{author}:X", "ghost:X"]
            _set_field(tokens, "institutions", pairs[k % len(pairs)])
        elif kind == "dup_author":
            _set_field(tokens, "authors", f"{byline},{author}")
        elif kind == "ghost":
            _set_field(tokens, "corresponding", "ghost")
        else:
            _set_field(tokens, "pub_id", first_id)
        line = "\t".join(tokens)
    return line


def _padded(line, pads):
    """Copies of ``line`` with one whitespace character (taken in turn from
    ``pads``) at each edge of a key, a value, a list item or an item's first
    colon."""
    tokens = line.split("\t")
    copies = []
    for i, token in enumerate(tokens):
        value_at = token.index("=") + 1
        edges = {0, value_at - 1, value_at, len(token)}
        start = value_at
        for item in token[value_at:].split(","):
            end = start + len(item)
            colon = item.find(":")
            edges |= {start, end, *((start + colon, start + colon + 1) if colon >= 0 else ())}
            start = end + 1
        for at in sorted(edges):
            pad = pads[len(copies) % len(pads)]
            copies.append("\t".join([*tokens[:i], token[:at] + pad + token[at:], *tokens[i + 1:]]))
    return copies


class TestSerializedPubFastPath:
    """Pub lines in the serializer's layout, with or without venue_tier and
    indexed, are read by one pattern match; every line must give the
    records or messages of the careful path."""

    @settings(max_examples=300, deadline=None)
    @given(_pub_bundles(), _TIERS, st.booleans())
    def test_serializer_lines_take_the_fast_path(self, bundle, tier, indexed):
        text = dump_publications(bundle)
        assert parse_publications(text) == bundle
        for line in text.splitlines():
            if line.startswith("type=pub"):
                for variant in (line, _with_key(line, "venue_tier", tier),
                                _with_key(line, "indexed", str(indexed).lower()),
                                _with_key(_with_key(line, "indexed", "true"), "venue_tier", tier)):
                    assert ingest._SERIALIZED_PUB.fullmatch(variant), variant

    @settings(max_examples=100, deadline=None)
    @given(_pub_bundles(), _TIERS, st.permutations(" \x1f\xa0"))
    def test_whitespace_anywhere_reads_as_the_careful_path(self, bundle, tier, pads):
        lines = [_with_key(_with_key(line, "venue_tier", tier), "indexed", "false")
                 for line in dump_publications(bundle).splitlines() if line.startswith("type=pub")]
        copies = [copy for line in lines for copy in _padded(line, pads)]
        fast = [_outcome(copy) for copy in copies]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_SERIALIZED_PUB", re.compile("(?!)"))
            assert [_outcome(copy) for copy in copies] == fast

    @settings(max_examples=300, deadline=None)
    @given(_pub_bundles(), st.lists(st.lists(_PUB_CHANGE, min_size=1, max_size=2),
                                    min_size=3, max_size=9), _TIERS, st.booleans())
    def test_same_outcome_as_the_careful_path(self, bundle, changes, tier, indexed):
        lines, mutants = [], []
        for line in dump_publications(bundle).splitlines():
            lines.append(line)
            if line.startswith("type=pub"):
                # The line stays, so that its citations resolve; three
                # mutants under ids of their own follow it.
                pub_id = line.split("\t")[1].partition("=")[2]
                line = _with_key(_with_key(line, "venue_tier", tier), "indexed",
                                 str(indexed).lower())
                for t in range(3):
                    mutant = line.replace(f"\tpub_id={pub_id}\t", f"\tpub_id={pub_id}~{t}\t")
                    mutants.append(_changed_pub(
                        mutant, changes[len(mutants) % len(changes)], pub_id))
                lines += mutants[-3:]
        text = "\n".join(lines)
        # The whole text as a string and as the lines of a file, then each
        # mutant alone: a rejected line elsewhere would hide its record.
        sources = (text, text.splitlines(keepends=True), *mutants)
        fast = [_outcome(source) for source in sources]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_SERIALIZED_PUB", re.compile("(?!)"))
            assert [_outcome(source) for source in sources] == fast


# Ids and names over every character the corpus format gives a meaning:
# list and pair separators, "=", TAB, line ends and whitespace; most are
# texts that read back, so that whole bundles often do.
_RAW = st.one_of(*[st.sampled_from(["a", "b", "a b", "b:a", "=a"])] * 3,
                 st.text(st.sampled_from("ab,:=\t\n\r \xa0"), max_size=3))


@st.composite
def _raw_bundles(draw):
    """Valid bundles whose ids and names may hold any character of _RAW."""
    pub_ids = draw(st.lists(_RAW.filter(bool), min_size=1, max_size=3, unique=True))
    pubs = []
    for pub_id in pub_ids:
        authors = draw(st.lists(_RAW, min_size=1, max_size=3, unique=True))
        pubs.append(PublicationRecord(
            pub_id, 2020, tuple(authors),
            frozenset(draw(st.lists(st.sampled_from(authors), max_size=2))),
            institution_by_author=draw(st.dictionaries(st.sampled_from(authors), _RAW,
                                                       max_size=2)),
        ))
    cites = []
    for _ in range(draw(st.integers(0, 3))):
        cited = draw(st.sampled_from(pub_ids))
        cites.append(CitationRecord(
            draw(_RAW.filter(lambda s: s and s != cited)), cited,
            tuple(draw(st.lists(_RAW, max_size=2))), frozenset(draw(st.lists(_RAW, max_size=2))),
        ))
    return CorpusBundle(tuple(pubs), tuple(cites))


class TestDumpRoundTrip:
    """dump_publications writes what parse_publications reads back as it was,
    and refuses the rest with a ValueError naming the record and the field."""

    @pytest.mark.parametrize("bundle,message", [
        (CorpusBundle((PublicationRecord("p", 1, ("x:y", "x"),
                                         institution_by_author={"x:y": "Inst"}),)),
         "cannot write pub 'p': institutions 'x:y' holds ':'"),
        (CorpusBundle((PublicationRecord("p", 1, ("a,b",)),)),
         "cannot write pub 'p': authors 'a,b' holds ','"),
        (CorpusBundle((PublicationRecord("p", 1, (" c",)),)),
         "cannot write pub 'p': authors ' c' starts or ends with whitespace"),
        (CorpusBundle((PublicationRecord("p", 1, ("a",)),),
                      (CitationRecord("q", "p", ("u v ",)),)),
         "cannot write cite 'q' -> 'p': citing_authors 'u v ' starts or ends with whitespace"),
        (CorpusBundle((PublicationRecord("p", 1, ("a", "")),)),
         "cannot write pub 'p': authors has an empty item"),
        (CorpusBundle((PublicationRecord("p\tq", 1, ("a",)),)),
         "cannot write pub 'p\\tq': pub_id 'p\\tq' holds '\\t'"),
        (CorpusBundle((PublicationRecord("p", 1, ("a",), institution_by_author={"a": "I,J"}),)),
         "cannot write pub 'p': institutions 'I,J' holds ','"),
        (CorpusBundle((PublicationRecord("p", 1, ("a",), institution_by_author={"a": ""}),)),
         "cannot write pub 'p': institutions '' is empty"),
    ])
    def test_text_read_back_changed_is_refused(self, bundle, message):
        with pytest.raises(ValueError) as err:
            dump_publications(bundle)
        assert str(err.value) == message

    def test_separators_that_read_back_are_written(self):
        bundle = CorpusBundle(
            (PublicationRecord("p=1,2", 1, ("a:b", "c"), institution_by_author={"c": "Lab: 3"}),),
            (CitationRecord("q,=", "p=1,2", ("x=y",), frozenset({"I:J"})),),
        )
        assert parse_publications(dump_publications(bundle)) == bundle

    @settings(max_examples=300, deadline=None)
    @given(_raw_bundles())
    def test_refuses_exactly_what_reads_back_changed(self, bundle):
        try:
            text = dump_publications(bundle)
        except ValueError:
            # Written unchecked, the text would read back as another bundle or fail.
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "_writable", lambda record, key, text, stops="": text)
                patch.setattr(ingest, "_writable_items", lambda record, key, items: ",".join(items))
                assert _outcome(dump_publications(bundle)) != bundle
        else:
            assert parse_publications(text) == bundle


_COMMENTS = st.lists(st.sampled_from(["# note", "", "  # type=pub", " "]), max_size=3)
_IDS = ["p0", "p1", "p2", "p3"]


@st.composite
def _resolving_corpora(draw):
    """(line, cited_pub) pairs in any order: pub lines, some rejected and
    some repeating an id, and cite lines, some rejected, whose cited_pub may
    be missing, rejected or on a later line. cited_pub is None but on cite
    lines; a leading space sends a line down the careful path."""
    lines = []
    for pub_id in draw(st.lists(st.sampled_from(_IDS[:3]), max_size=5)):
        pad, year = draw(st.sampled_from(["", " "])), draw(st.sampled_from(["2020", "2020", "x"]))
        lines.append((f"{pad}type=pub\tpub_id={pub_id}\tyear={year}\tauthors=a", None))
    for i in range(draw(st.integers(0, 6))):
        pad, cited = draw(st.sampled_from(["", " "])), draw(st.sampled_from(_IDS))
        mentions = draw(st.sampled_from(["1", "1", "0"]))
        lines.append((f"{pad}type=cite\tciting_pub=c{i}\tcited_pub={cited}\tmentions={mentions}",
                      cited))
    lines += [(comment, None) for comment in draw(_COMMENTS)]
    return draw(st.permutations(lines))


def _dangling(line_no, cited):
    return ingest.ParseIssue(line_no, f"citation references unknown cited_pub {cited!r}")


def _reference_issues(lines):
    """The issues of a corpus by the documented rule: each line's own issue,
    in line order, then one per accepted cite whose cited_pub no accepted
    pub line holds, in line order. A line's own issue is the one it gives
    when read alone, or a repeated pub_id."""
    issues, first_line, cites = [], {}, []
    for line_no, (line, cited) in enumerate(lines, 1):
        alone = _outcome(line)
        if cited is not None and alone == [_dangling(1, cited)]:
            cites.append((line_no, cited))
        elif isinstance(alone, list):
            issues.append(ingest.ParseIssue(line_no, alone[0].message))
        elif alone.publications:
            pub_id = alone.publications[0].pub_id
            first = first_line.setdefault(pub_id, line_no)
            if first != line_no:
                issues.append(ingest.ParseIssue(
                    line_no, f"duplicate pub_id {pub_id!r} (first seen on line {first})"))
    return issues + [_dangling(n, cited) for n, cited in cites if cited not in first_line]


class TestLineOrder:
    """A cite may come before the pub it cites: records do not depend on the
    order of the lines, and issues follow the documented order."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_bundles(), _pub_bundles()), st.data())
    def test_permuted_lines_give_the_same_records(self, bundle, data):
        lines = data.draw(st.permutations(
            dump_publications(bundle).splitlines() + data.draw(_COMMENTS)))
        got = parse_publications("\n".join(lines))
        by_id = attrgetter("pub_id")
        assert sorted(got.publications, key=by_id) == sorted(bundle.publications, key=by_id)
        assert Counter(got.citations) == Counter(bundle.citations)

    @settings(max_examples=300, deadline=None)
    @given(_resolving_corpora())
    def test_issues_are_per_line_then_dangling_cites(self, lines):
        expected = _reference_issues(lines)
        got = _outcome("\n".join(line for line, _ in lines))
        if expected:
            assert got == expected
        else:
            assert isinstance(got, CorpusBundle)


class TestLoadConfig:
    def test_empty_text_gives_all_rules_on(self):
        config = load_config("")
        filters = config.filters
        assert filters.require_indexed_source
        assert filters.dedupe_per_document
        assert filters.exclude_self
        assert filters.exclude_close_associates
        assert filters.one_per_author_per_source
        assert filters.exclude_flagged
        assert config.precision == 2

    def test_single_rule_off(self):
        config = load_config("exclude_self_citations=false\n")
        assert not config.filters.exclude_self
        assert config.filters.dedupe_per_document

    def test_duplicate_key_names_the_key(self):
        with pytest.raises(ParseError) as err:
            load_config("exclude_flagged=true\nexclude_flagged=false\n")
        assert "exclude_flagged" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            load_config("frobnicate=yes\n")

    def test_unparsable_value_rejected(self):
        with pytest.raises(ParseError):
            load_config("exclude_flagged=maybe\n")

    def test_every_problem_is_reported(self):
        with pytest.raises(ParseError) as err:
            load_config("precision=x\nexclude_flagged=maybe\n# ok\nbogus\nprecision=3\n"
                        "foo=1\nprecision=13\n")
        assert [str(issue) for issue in err.value.issues] == [
            "line 1: precision: expected an integer, got 'x'",
            "line 2: exclude_flagged: expected true or false, got 'maybe'",
            "line 4: expected key=value, got 'bogus'",
            "line 5: duplicate key 'precision'",
            "line 6: unknown key 'foo'",
            "line 7: duplicate key 'precision'",
        ]

    def test_comments_ignored(self):
        config = load_config("# all defaults\nprecision=3  # wide tables\n")
        assert config.precision == 3

    @pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", "3.0", "two", ""])
    def test_precision_is_ascii_digits(self, value):
        with pytest.raises(ParseError) as err:
            load_config(f"precision={value}\n")
        assert str(err.value) == f"line 1: precision: expected an integer, got {value!r}"
