import gc
import io
import math
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, ROUND_HALF_UP, localcontext
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kindex.cli
from kindex.analytics import RANK_KEYS
from kindex.cli import FORMATS, _fmt_column, fmt_value, main
from kindex.ingest import (
    ConfigError, ParseError, load_config, parse_author_summaries, parse_publications,
)

from refdata import KRATING

ROOT = Path(__file__).parents[1]
DATA = Path(__file__).parent / "data"
FILTER_CORPUS = str(DATA / "corpus_filter.txt")
YEARLY_CORPUS = str(DATA / "corpus_yearly.txt")
BAD_CORPUS = str(DATA / "corpus_bad.txt")
KRATING_SUMMARY = str(DATA / "krating_summary.tsv")
NATSCI_SUMMARY = str(DATA / "natsci_top_sample.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_well_formed_corpus(self, capsys):
        code, out, err = run(capsys, "validate", FILTER_CORPUS)
        assert code == 0
        assert "12 publications" in out
        assert err == ""

    def test_dangling_citation_exits_1_naming_id(self, capsys):
        code, out, err = run(capsys, "validate", BAD_CORPUS)
        assert code == 1
        assert "GHOST" in err
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/corpus.txt")
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("argv", [
        ["validate", "{}"],
        ["yearly", "{}"],
        ["metrics", "--summary", "{}"],
        ["correlate", "{}", "--x", "H", "--y", "FA"],
        ["metrics", "--summary", KRATING_SUMMARY, "--config", "{}"],
    ])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes("type=pub\tpub_id=p1\tyear=2020\tauthors=G\u00f6del\n"
                         .encode("latin-1"))
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot read {path}: ")
        assert err.count("\n") == 1

    # A summary whose header names an unknown column and a config whose
    # first key is unknown: the bad byte still wins over that exit-1 problem.
    @pytest.mark.parametrize("argv,head,line", [
        (["validate", "{}"], b"", b"type=pub\tpub_id=p%d\tyear=2020\tauthors=a\n"),
        (["metrics", "--summary", "{}"], b"Author\tBogus\n", b"a%d\t1\n"),
        (["metrics", "--summary", KRATING_SUMMARY, "--config", "{}"], b"bogus=1\n",
         b"precision=%d\n"),
    ], ids=["corpus", "summary", "config"])
    @pytest.mark.parametrize("offset", [20000, 24490])
    def test_decode_error_names_the_file_offset(self, tmp_path, capsys, argv, head, line,
                                                offset):
        # Past the first 8 KB, a file read in chunks would report the
        # position within its chunk instead.
        lines = head + b"".join(line % i for i in range(offset // 4))
        path = tmp_path / "input.txt"
        path.write_bytes(lines[:offset] + b"\xff\n")
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (2, "")
        assert err == (f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
                       f"position {offset}: invalid start byte\n")


class TestMetrics:
    def test_summary_rows_match_reference_rating(self, capsys):
        code, out, _ = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(KRATING)
        k_col = header.index("k_display")
        name_col = header.index("name")
        for row, (name, _cpd, _wfci, _kr, k_expected) in zip(rows, KRATING):
            assert row[name_col] == name
            assert int(row[k_col]) == k_expected

    def test_corpus_path_single_publication(self, tmp_path, capsys):
        corpus = tmp_path / "one.txt"
        corpus.write_text("type=pub\tpub_id=p1\tyear=2020\tauthors=solo\n")
        code, out, _ = run(capsys, "metrics", "--corpus", str(corpus),
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("h_index")] in ("0", "1")

    def test_author_filter_selects_one_row(self, capsys):
        code, out, _ = run(capsys, "metrics", "--corpus", FILTER_CORPUS,
                           "--author", "t", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("t,")

    def test_author_filter_computes_only_that_author(self, capsys, monkeypatch):
        computed = []
        compute = kindex.cli.compute_author_metrics

        def counting(author, *rest):
            computed.append(author)
            return compute(author, *rest)

        _, everyone, _ = run(capsys, "metrics", "--corpus", FILTER_CORPUS)
        monkeypatch.setattr(kindex.cli, "compute_author_metrics", counting)
        code, out, _ = run(capsys, "metrics", "--corpus", FILTER_CORPUS, "--author", "t")
        assert code == 0
        assert computed == ["t"]
        header, *rows = everyone.splitlines()
        assert out.splitlines() == [header, next(r for r in rows if r.startswith("t "))]

    def test_author_filter_skips_other_summary_rows(self, tmp_path, capsys):
        # B has no DOC, which fails only when B's indicators are computed.
        path = tmp_path / "table.tsv"
        path.write_text("Author\tDOC\tCIT\nA\t4\t10\nB\t-\t3\nA\t2\t1\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path),
                             "--author", "A", "--format", "csv")
        assert (code, err) == (0, "")
        assert [line.split(",")[:4] for line in out.splitlines()[1:]] == [
            ["A", "A", "4", "10"], ["A", "A", "2", "1"],
        ]
        code, out, err = run(capsys, "metrics", "--summary", str(path), "--author", "C")
        assert (code, out, err) == (1, "", "unknown author 'C'\n")

    @pytest.mark.parametrize("kind,path", [("--corpus", FILTER_CORPUS),
                                           ("--summary", KRATING_SUMMARY)],
                             ids=["corpus", "summary"])
    def test_empty_author_is_unknown(self, capsys, kind, path):
        # Author ids are never empty, so "" matches no row.
        assert run(capsys, "metrics", kind, path, "--author", "") == (
            1, "", "unknown author ''\n")

    def test_unknown_author_exits_1(self, capsys):
        code, _, err = run(capsys, "metrics", "--corpus", FILTER_CORPUS,
                           "--author", "nobody")
        assert code == 1
        assert "nobody" in err

    def test_both_inputs_rejected(self, capsys):
        code, _, _ = run(capsys, "metrics", "--corpus", FILTER_CORPUS,
                         "--summary", KRATING_SUMMARY)
        assert code == 2

    def test_plotdata_not_supported(self, capsys):
        code, _, err = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                           "--format", "plotdata")
        assert code == 2
        assert "plotdata" in err

    def test_config_changes_corpus_counts(self, tmp_path, capsys):
        config = tmp_path / "rules.cfg"
        config.write_text(
            "require_indexed_source=false\ndedupe_per_document=false\n"
            "exclude_self_citations=false\nexclude_close_associates=false\n"
            "one_per_author_per_source=false\nexclude_flagged=false\n"
        )
        _, strict_out, _ = run(capsys, "metrics", "--corpus", FILTER_CORPUS,
                               "--author", "t", "--format", "csv")
        _, raw_out, _ = run(capsys, "metrics", "--corpus", FILTER_CORPUS,
                            "--author", "t", "--format", "csv",
                            "--config", str(config))
        cit_strict = int(strict_out.strip().split("\n")[1].split(",")[3])
        cit_raw = int(raw_out.strip().split("\n")[1].split(",")[3])
        assert (cit_strict, cit_raw) == (5, 15)

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                           "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("author,")

    def test_out_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                             "--out", str(target))
        assert (code, out, err) == (2, "", f"cannot write {target}: No such file or directory\n")
        assert not target.parent.exists()


class TestRank:
    def test_k_display_rank_on_reference_rating(self, capsys):
        code, out, _ = run(capsys, "rank", "--summary", KRATING_SUMMARY,
                           "--key", "k_display", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0][2] == "Konarov Aishuak"
        assert rows[0][3] == "58"
        assert rows[1][2] == "Zhautykov Bulat"
        assert rows[1][3] == "47"

    def test_h_rank_on_reference_sample(self, capsys):
        code, out, _ = run(capsys, "rank", "--summary", NATSCI_SUMMARY,
                           "--key", "h_index", "--format", "csv")
        assert code == 0
        top = out.strip().split("\n")[1].split(",")
        assert top[2] == "Myrzakulov Ratbay"
        assert top[3] == "48"

    def test_unknown_key_exits_2(self, capsys):
        code, _, _ = run(capsys, "rank", "--summary", KRATING_SUMMARY,
                         "--key", "fame")
        assert code == 2

    def test_plotdata_series(self, capsys):
        code, out, _ = run(capsys, "rank", "--summary", KRATING_SUMMARY,
                           "--key", "k_display", "--format", "plotdata")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "series\tx\ty"
        assert lines[1] == "k_display\t1\t58"


class TestCorrelate:
    def test_h_vs_fa_matches_direct_formula(self, capsys):
        code, out, _ = run(capsys, "correlate", NATSCI_SUMMARY,
                           "--x", "H", "--y", "FA", "--format", "csv")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[:3] == ["H", "FA", "21"]
        assert float(row[3]) == pytest.approx(-0.5501, abs=1e-4)

    def test_self_correlation_is_one(self, capsys):
        code, out, _ = run(capsys, "correlate", NATSCI_SUMMARY,
                           "--x", "H", "--y", "H", "--format", "csv")
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[3]) == 1.0

    def test_missing_column_exits_2(self, capsys):
        code, _, err = run(capsys, "correlate", NATSCI_SUMMARY,
                           "--x", "H", "--y", "NOPE")
        assert code == 2
        assert "NOPE" in err

    def test_constant_column_exits_1(self, tmp_path, capsys):
        table = tmp_path / "flat.tsv"
        table.write_text(
            "Author\tH\tDOC\tCIT\nA\t5\t10\t10\nB\t5\t20\t30\nC\t5\t30\t60\n"
        )
        code, _, err = run(capsys, "correlate", str(table), "--x", "H", "--y", "CIT")
        assert code == 1
        assert "undefined correlation" in err

    def test_plotdata_has_points_and_trend(self, capsys):
        code, out, _ = run(capsys, "correlate", NATSCI_SUMMARY,
                           "--x", "H", "--y", "FA", "--format", "plotdata")
        assert code == 0
        series = {line.split("\t")[0] for line in out.strip().split("\n")[1:]}
        assert series == {"points", "trend"}


class TestYearly:
    def test_23_year_fixture(self, capsys):
        code, out, _ = run(capsys, "yearly", YEARLY_CORPUS, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 24
        first = lines[1].split(",")
        assert first[0] == "2000"
        assert first[3] == "3"      # two links, one with 2 mentions
        second = lines[2].split(",")
        assert second[4] == "1"     # one 2001 link is a self-citation

    def test_empty_corpus_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run(capsys, "yearly", str(empty), "--format", "csv")
        assert code == 0
        assert out.strip() == "year,doc,cited_doc,cit,self_cit,cit_per_doc"

    def test_corrupt_line_exits_1(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text("type=pub\tpub_id=p1\tyear=MCMXCIX\tauthors=a\n")
        code, _, err = run(capsys, "yearly", str(corrupt))
        assert code == 1
        assert "line 1" in err


class TestInputRejections:
    """Malformed numbers and ids end in exit 1 with one line each."""

    @pytest.mark.parametrize("command", ["validate", "yearly"])
    @pytest.mark.parametrize("line,message", [
        ("type=pub\tpub_id=p1\tyear=2019\tauthors=a\tfwci=nan",
         "line 1: publication 'p1' has non-finite fwci nan"),
        ("type=pub\tpub_id=p1\tyear=2019\tauthors=a\tfwci=inf",
         "line 1: publication 'p1' has non-finite fwci inf"),
        ("type=pub\tpub_id=p1\tyear=2_019\tauthors=a",
         "line 1: '2_019' is not a plain integer"),
    ])
    def test_corpus(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "corpus.txt"
        path.write_text(line + "\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (1, "", message + "\n")

    @pytest.mark.parametrize("row,message", [
        ("a\tA\t1\t2\tnan", "line 2: FWCI1 must be finite, got 'nan'"),
        ("a\tA\t1\t1_000\t0.5", "line 2: '1_000' is not a plain integer"),
        ("b\tB\t1\t2\t0.5\nb\tC\t1\t2\t0.5", "line 3: duplicate Id 'b' (first seen on line 2)"),
        ("a\tA\t1\t2\t0.5\t7", "line 2: 6 cells for 5 columns"),
    ])
    def test_summary(self, tmp_path, capsys, row, message):
        path = tmp_path / "table.tsv"
        path.write_text("Id\tAuthor\tDOC\tCIT\tFWCI1\n" + row + "\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path))
        assert (code, out, err) == (1, "", message + "\n")

    @pytest.mark.parametrize("header,message", [
        ("Author\tDOC\tdoc", "duplicate column in header"),
        ("Id\tDOC\tCIT", "missing Author column"),
    ], ids=["duplicate", "no-author"])
    def test_summary_header(self, tmp_path, capsys, header, message):
        path = tmp_path / "table.tsv"
        path.write_text(header + "\nA\t1\t1\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path))
        assert (code, out, err) == (1, "", f"line 1: {message}\n")


class TestOverflow:
    """Numbers too large for a float end in exit 1 with one line, not a
    traceback; values near the largest float still compute."""

    @pytest.mark.parametrize("column", ["H", "DOC", "CIT"])
    @pytest.mark.parametrize("argv", [
        ["metrics", "--summary", "{}"], ["correlate", "{}", "--x", "doc", "--y", "cit"],
    ])
    def test_count_too_large_for_a_float(self, tmp_path, capsys, column, argv):
        values = {"H": "1", "DOC": "2", "CIT": "3"} | {column: "9" * 400}
        path = tmp_path / "table.tsv"
        path.write_text("Author\tH\tDOC\tCIT\nA\t" + "\t".join(values.values())
                        + "\nB\t1\t2\t5\n")
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out, err) == (1, "", f"line 2: {column} is too large for a float\n")

    def test_largest_float_count_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "table.tsv"
        path.write_text(f"Author\tDOC\tCIT\nA\t1\t{int(1.7976931348623157e308)}\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[4].startswith("17976931348623157")

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    def test_infinite_k_from_summary_fwci(self, tmp_path, capsys, command):
        path = tmp_path / "table.tsv"
        path.write_text("Author\tDOC\tCIT\tFWCI1\tFWCI2\nB\t2\t3\t1\t2\n"
                        "A\t1\t1\t1e308\t1e308\n")
        code, out, err = run(capsys, command, "--summary", str(path))
        assert (code, out, err) == (1, "", "author 'A': K-index is too large for a float\n")

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    def test_infinite_k_from_corpus_fwci(self, tmp_path, capsys, command):
        path = tmp_path / "corpus.txt"
        path.write_text("type=pub\tpub_id=p1\tyear=2020\tauthors=A\tfwci=1e308\n"
                        "type=pub\tpub_id=p2\tyear=2020\tauthors=A,B\tfwci=1e308\n")
        code, out, err = run(capsys, command, "--corpus", str(path))
        assert (code, out, err) == (1, "", "author 'A': K-index is too large for a float\n")

    def test_finite_k_from_huge_role_fwci(self, tmp_path, capsys):
        # A is last author of both: the LA mean FWCI is 1e308 although the
        # sum of the two values overflows; k_r is 0.5, so K is 5e307.
        path = tmp_path / "corpus.txt"
        path.write_text("type=pub\tpub_id=p1\tyear=2020\tauthors=B,A\tfwci=1e308\n"
                        "type=pub\tpub_id=p2\tyear=2020\tauthors=B,A\tfwci=1e308\n")
        code, out, err = run(capsys, "metrics", "--corpus", str(path), "--author", "A",
                             "--format", "csv")
        assert (code, err) == (0, "")
        header, row = (line.split(",") for line in out.splitlines())
        cells = dict(zip(header, row))
        assert float(cells["fwci_total"]) == 1e308
        assert float(cells["k_exact"]) == 5e307
        assert cells["k_display"] == str(int(5e307))

    @pytest.mark.parametrize("name,text", [
        # A is first author of one publication and last author of three.
        ("corpus.txt", "type=pub\tpub_id=p1\tyear=2020\tauthors=A,B\tfwci=1e308\n"
         + "".join(f"type=pub\tpub_id=p{i}\tyear=2020\tauthors=B,A\tfwci=1e308\n"
                   for i in (2, 3, 4))),
        ("table.tsv", "Author\tDOC\tCIT\tFA\tFWCI1\tLA\tFWCI2\nA\t4\t4\t25\t1e308\t75\t1e308\n"),
    ])
    def test_fwci_total_too_large_for_a_float(self, tmp_path, capsys, name, text):
        # k_r is 1.25 / 1.75, so K (about 1.43e308) is finite; the FWCI
        # total (2e308) is not.
        path = tmp_path / name
        path.write_text(text)
        source = "--corpus" if name == "corpus.txt" else "--summary"
        code, out, err = run(capsys, "metrics", source, str(path), "--author", "A")
        assert (code, out, err) == (1, "", "author 'A': FWCI total is too large for a float\n")

    def test_mentions_past_a_float_in_yearly_and_metrics(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("type=pub\tpub_id=p1\tyear=2020\tauthors=A\n"
                          f"type=cite\tciting_pub=x\tcited_pub=p1\tmentions={10 ** 400}\n")
        config = tmp_path / "config.txt"
        config.write_text("dedupe_per_document=false\none_per_author_per_source=false\n")
        code, out, err = run(capsys, "yearly", str(corpus))
        assert (code, out, err) == (1, "", "CIT/DOC is too large for a float\n")
        code, out, err = run(capsys, "metrics", "--corpus", str(corpus), "--config", str(config))
        assert (code, out, err) == (1, "", "author 'A': CIT/DOC is too large for a float\n")

    def test_correlation_near_the_largest_float(self, tmp_path, capsys):
        # The sums of squares of these FWCI1 cells overflow unless the
        # series is rescaled; r must match the same table scaled down.
        huge, small = tmp_path / "huge.tsv", tmp_path / "small.tsv"
        huge.write_text("Author\tDOC\tCIT\tFWCI1\nA\t1\t1\t1e308\nB\t1\t2\t5e307\n"
                        "C\t1\t4\t2e307\n")
        small.write_text(huge.read_text().replace("e308", "").replace("e307", "e-1"))
        results = [run(capsys, "correlate", str(path), "--x", "fwci1", "--y", "cit")
                   for path in (huge, small)]
        assert results[0] == results[1]
        assert results[0][1].splitlines()[1].split()[-1] == "-0.9449"

    def test_trend_near_the_largest_float_prints(self, tmp_path, capsys):
        path = tmp_path / "table.tsv"
        path.write_text("Author\tDOC\tCIT\tFWCI1\nA\t1\t1\t1.7e308\nB\t2\t3\t1.6e308\n"
                        "C\t2\t5\t1.5e308\n")
        code, out, err = run(capsys, "correlate", str(path), "--x", "cit", "--y", "fwci1",
                             "--format", "plotdata")
        assert (code, err) == (0, "")
        trend = [line.split("\t") for line in out.splitlines() if line.startswith("trend")]
        assert [(x, y[:4]) for _, x, y in trend] == [("1.00", "1700"), ("3.00", "1600"),
                                                     ("5.00", "1500")]

    def test_trend_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "table.tsv"
        path.write_text("Author\tDOC\tCIT\tFA\tFWCI1\nA\t1\t1\t0\t1e308\n"
                        "B\t1\t1\t0,0000001\t0\nC\t1\t1\t0,0000001\t1\n")
        code, out, err = run(capsys, "correlate", str(path), "--x", "fa", "--y", "fwci1",
                             "--format", "plotdata")
        assert (code, out) == (1, "")
        assert err == "undefined correlation: trend line is too large for a float\n"


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Extreme field and cell values: numbers at the largest float, digit runs
# of up to 400 digits and exponents up to 1e400 past it, and text that no
# number parser reads.
_JUNK = st.text(max_size=4)
_DIGIT_RUNS = st.one_of(
    st.sampled_from(["9" * 308, str(int(1.7976931348623157e308))]),
    st.integers(309, 400).map(lambda n: "9" * n),
)
_NEAR_MAX = st.sampled_from(["1e308", "1.7e308", "1.7976931348623157e308", "9e307", "1e-300"])
_EXTREME_COUNT = st.one_of(*[_DIGIT_RUNS] * 5, _JUNK)
_EXTREME_DECIMAL = st.one_of(
    *[_NEAR_MAX] * 4, _DIGIT_RUNS, st.integers(300, 400).map(lambda e: f"1e{e}"), _JUNK,
)
_EXTREME = {
    "year": _EXTREME_COUNT, "mentions": _EXTREME_COUNT, "fwci": _EXTREME_DECIMAL,
    "Id": _JUNK, "DOC": _EXTREME_COUNT, "CIT": _EXTREME_COUNT,
    "FWCI1": _EXTREME_DECIMAL, "FWCI2": _EXTREME_DECIMAL,
    "FWCI3": _EXTREME_DECIMAL, "FWCI4": _EXTREME_DECIMAL, "FWCI5": _EXTREME_DECIMAL,
}
_AUTHORS = st.sampled_from(["a", "a,b", "b,a,c", "c"])


def _with_extremes(draw, records, lines):
    """Replace some values of ``records`` (key/value dicts) by extreme
    ones, render the records with ``lines`` and now and then add an
    arbitrary line."""
    for fields in records:
        for key in fields.keys() & _EXTREME.keys():
            if draw(st.integers(0, 3)) == 0:
                fields[key] = draw(_EXTREME[key])
    text = lines(records)
    if draw(st.integers(0, 7)) == 0:
        text.insert(draw(st.integers(0, len(text))), draw(st.text(max_size=30)))
    return "\n".join(text)


@st.composite
def _corpus_texts(draw):
    """Valid pub and cite records with some extreme field values."""
    pub_ids = [f"p{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    pubs = []
    for pub_id in pub_ids:
        authors = draw(_AUTHORS)
        first = authors.split(",")[0]
        pubs.append({"type": "pub", "pub_id": pub_id, "year": "2020", "authors": authors,
                     "fwci": draw(st.sampled_from(["0", "1.5"]))}
                    | draw(st.fixed_dictionaries({}, optional={
                        "corresponding": st.just(first), "alphabetical": st.just("true"),
                        "institutions": st.just(f"{first}:X")})))
    cites = [{"type": "cite", "citing_pub": draw(st.sampled_from(["x", "y"])),
              "cited_pub": draw(st.sampled_from(pub_ids)),
              "mentions": draw(st.sampled_from(["1", "3"]))}
             | draw(st.fixed_dictionaries({}, optional={"citing_authors": _AUTHORS}))
             for _ in range(draw(st.integers(0, 4)))]
    return _with_extremes(draw, pubs + cites, lambda records: [
        "\t".join(f"{k}={v}" for k, v in fields.items()) for fields in records])


# Config files: valid lines (the filter switches that let more mentions
# through, a precision) or arbitrary text.
_CONFIG = st.none() | st.text() | st.lists(st.sampled_from([
    "dedupe_per_document=false", "one_per_author_per_source=false",
    "exclude_self_citations=false", "exclude_close_associates=false",
    "precision=0", "precision=12", "precision=13",
]), unique=True).map("\n".join)

# Summary columns and their ordinary cells; a table always has the first six.
# Id cells are generated unique per row.
_CELLS = {
    "Author": ["A", "B", "C", "D"], "DOC": ["3", "50", "7 765"], "CIT": ["0", "4", "2020"],
    "H": ["0", "1"], "FA": ["0", "9%", "50"], "FWCI1": ["0", "1.5"], "Id": [],
    "LA": ["100", "-"], "CoA": ["12,5"], "CorA": ["0"], "SA": ["1"], "FWCI2": ["2,5", "-"],
    "FWCI3": ["0.7"], "FWCI4": ["3"], "FWCI5": ["1"],
}
_COLUMNS = list(_CELLS)


@st.composite
def _summary_inputs(draw):
    """A table of ordinary cells (unique ids) with some extreme cells, and
    the two columns to correlate, usually columns of the table."""
    extra = draw(st.lists(st.sampled_from(_COLUMNS[6:]), unique=True, max_size=3))
    columns = draw(st.permutations(_COLUMNS[:6] + extra))
    rows = [{c: f"id{i}" if c == "Id" else draw(st.sampled_from(_CELLS[c])) for c in columns}
            for i in range(draw(st.integers(2, 5)))]
    delim = draw(st.sampled_from(["\t", ";"]))
    text = _with_extremes(draw, rows, lambda records: [
        delim.join(columns), *(delim.join(row.values()) for row in records)])
    axes = st.one_of(*[st.sampled_from(columns)] * 3, st.sampled_from(_COLUMNS + ["Bogus"]))
    return text, draw(axes), draw(axes)


class TestEveryInputEndsInAnExitCode:
    """Any input file fed to any subcommand exits 0, 1 or 2 without raising:
    on 0 nothing goes to stderr, otherwise nothing goes to stdout."""

    def check(self, argv):
        code, out, err = _run_quietly(argv)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert out == "" and err.endswith("\n")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(_corpus_texts(), _corpus_texts(), _corpus_texts(), st.text()),
           config=_CONFIG)
    def test_corpus_commands(self, tmp_path, text, config):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text + "\n", encoding="utf-8")
        flags = []
        if config is not None:
            (tmp_path / "config.txt").write_text(config + "\n", encoding="utf-8")
            flags = ["--config", str(tmp_path / "config.txt")]
        self.check(["validate", str(corpus)])
        for fmt in FORMATS:
            self.check(["yearly", str(corpus), "--format", fmt, *flags])
            self.check(["rank", "--corpus", str(corpus), "--format", fmt, *flags])
        self.check(["metrics", "--corpus", str(corpus), *flags])
        self.check(["metrics", "--corpus", str(corpus), "--author", "a", *flags])
        self.check(["rank", "--corpus", str(corpus), "--key", "cit_per_doc", *flags])

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(_summary_inputs(), _summary_inputs(), _summary_inputs(),
                     st.tuples(st.text(), st.just("H"), st.just("FA"))))
    def test_summary_commands(self, tmp_path, inputs):
        text, x, y = inputs
        table = tmp_path / "table.tsv"
        table.write_text(text + "\n", encoding="utf-8")
        self.check(["metrics", "--summary", str(table)])
        for key in RANK_KEYS:
            self.check(["rank", "--summary", str(table), "--key", key])
        for fmt in FORMATS:
            self.check(["correlate", str(table), "--x", x, "--y", y, "--format", fmt])


class TestCollectorPause:
    """The cyclic GC is off while a command runs and main restores the
    state it found, whatever the exit code."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv,exit_code", [
        (["yearly", YEARLY_CORPUS], 0),
        (["yearly", BAD_CORPUS], 1),
        (["yearly", YEARLY_CORPUS, "--bogus"], 2),
    ])
    def test_state_is_restored(self, capsys, monkeypatch, enabled, argv, exit_code):
        seen = []
        summarize = kindex.cli.yearly_summary

        def recording(bundle):
            seen.append(gc.isenabled())
            return summarize(bundle)

        monkeypatch.setattr(kindex.cli, "yearly_summary", recording)
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, *argv)[0] == exit_code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == ([False] if exit_code == 0 else [])


class TestDeterminism:
    def test_metrics_byte_identical_across_runs(self, capsys):
        first = run(capsys, "metrics", "--summary", KRATING_SUMMARY)
        second = run(capsys, "metrics", "--summary", KRATING_SUMMARY)
        assert first == second
        assert first[0] == 0

    def test_commands_do_not_mutate_inputs(self, capsys):
        before = Path(KRATING_SUMMARY).read_bytes()
        run(capsys, "metrics", "--summary", KRATING_SUMMARY)
        run(capsys, "rank", "--summary", KRATING_SUMMARY)
        assert Path(KRATING_SUMMARY).read_bytes() == before


class TestPrecision:
    def test_precision_flag_controls_decimals(self, capsys):
        _, out_default, _ = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                                "--format", "csv")
        _, out_wide, _ = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                             "--format", "csv", "--precision", "4")
        row_default = out_default.strip().split("\n")[1].split(",")
        row_wide = out_wide.strip().split("\n")[1].split(",")
        assert row_default[4] == "51.83"
        assert row_wide[4] == "51.8300"

    @pytest.mark.parametrize("precision", ["-3", "13", "1000"])
    def test_out_of_range_precision_exits_2(self, capsys, precision):
        code, out, err = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                             "--precision", precision)
        assert code == 2
        assert out == ""
        assert err == f"--precision must be in 0..12, got {precision}\n"

    @pytest.mark.parametrize("precision,cell", [("0", "52"), ("12", "51.830000000000")])
    def test_range_ends_accepted(self, capsys, precision, cell):
        code, out, _ = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                           "--format", "csv", "--precision", precision)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[4] == cell

    @pytest.mark.parametrize("precision", ["1_0", "+3", "\u0663"])
    @pytest.mark.parametrize("argv", [
        ["validate", FILTER_CORPUS],
        ["metrics", "--summary", KRATING_SUMMARY],
        ["rank", "--corpus", FILTER_CORPUS],
        ["correlate", KRATING_SUMMARY, "--x", "DOC", "--y", "CIT"],
        ["yearly", YEARLY_CORPUS],
    ], ids=lambda argv: argv[0])
    def test_other_integer_spellings_exit_2(self, capsys, argv, precision):
        code, out, err = run(capsys, *argv, "--precision", precision)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --precision: must be an integer, "
                            f"got {precision!r}\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("0123456789\u0663\uff11\u00b2\u07c3+-_aeEx"), max_size=6))
    def test_flag_and_config_key_reject_the_same_spellings(self, text):
        code, _, err = _run_quietly(["validate", FILTER_CORPUS, "--precision", text])
        flag_rejects = "error: argument --precision:" in err
        try:
            load_config(f"precision={text}\n")
            key_rejects = False
        except ConfigError as exc:
            key_rejects = "must be an integer" in str(exc)
        assert flag_rejects == key_rejects
        assert code == (2 if flag_rejects else 0)


# Values around the limits of fmt_value's format() path, with their text.
_FAST_PATH_BOUNDARIES = [
    (-0.0, 0, "-0"),
    (-0.0, 2, "-0.00"),
    (0.125, 2, "0.13"),
    (2.675, 2, "2.68"),
    (0.005, 2, "0.01"),
    (-0.005, 2, "-0.01"),
    (2.5, 0, "3"),
    (-2.5, 0, "-3"),
    (1e-05, 2, "0.00"),
    (1e-05, 6, "0.000010"),
    (0.0, 6, "0.000000"),
    (0.0, 7, "0.0000000"),
    (2.4999999999999996, 0, "2"),
    # a tie whose float lies 1.8e-16 (relative) below it
    (8.00035, 4, "8.0004"),
    (2.5000000000000004, 0, "3"),
    # around 5e14 in units of the last place kept, from where every value
    # is quantized as a Decimal
    (math.nextafter(5e8, 0), 6, "500000000.000000"),
    (math.nextafter(5e8, math.inf), 6, "500000000.000000"),
    (500000000.0000005, 6, "500000000.000001"),
    (math.nextafter(1e9, 0), 6, "1000000000.000000"),
    (-math.nextafter(1e9, 0), 6, "-1000000000.000000"),
    (999999999.4999999, 6, "999999999.500000"),
    (999999999.5, 0, "1000000000"),
    (1e9, 6, "1000000000.000000"),
    (math.nextafter(1e9, math.inf), 6, "1000000000.000000"),
    # where format() of the binary value and repr() round apart
    (8629563091.44012, 6, "8629563091.440120"),
    (1260324346340077.2, 2, "1260324346340077.20"),
]


class TestFmtValue:
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 12))
    def test_matches_reference_decimal(self, value, precision):
        with localcontext() as ctx:
            ctx.prec = 1000
            exact = Decimal(repr(value))
            quantum = Decimal(10) ** -precision
            expected = exact.quantize(quantum, rounding=ROUND_HALF_UP)
            assert abs(Decimal(fmt_value(value, precision)) - exact) <= quantum / 2
        assert fmt_value(value, precision) == f"{expected:f}"

    @pytest.mark.parametrize("value,precision,text", [
        (1e16, 12, "10000000000000000.000000000000"),
        (-2.5, 0, "-3"),
        (0.125, 2, "0.13"),
        (51.83, 12, "51.830000000000"),
    ])
    def test_examples(self, value, precision, text):
        assert fmt_value(value, precision) == text

    @pytest.mark.parametrize("value,precision,text", _FAST_PATH_BOUNDARIES)
    def test_fast_path_boundaries(self, value, precision, text):
        assert fmt_value(value, precision) == text

    @given(st.integers(-10**13, 10**13), st.integers(0, 12))
    def test_ties_round_away_from_zero(self, tens, precision):
        # k / 10**(p+1) with a last digit of 5: repr(value) is that decimal,
        # a tie at the rounding digit.
        k = 10 * tens + (5 if tens >= 0 else -5)
        value = k / 10 ** (precision + 1)
        with localcontext() as ctx:
            ctx.prec = 1000
            expected = Decimal(repr(value)).quantize(Decimal(10) ** -precision,
                                                     rounding=ROUND_HALF_UP)
        assert fmt_value(value, precision) == f"{expected:f}"

    def test_largest_float_at_widest_precision(self):
        text = fmt_value(1.7976931348623157e308, 12)
        assert text.startswith("17976931348623157000") and text.endswith(".000000000000")
        assert len(text) == 309 + 1 + 12

    def test_huge_citation_count_prints(self, tmp_path, capsys):
        path = tmp_path / "table.tsv"
        path.write_text(f"Author\tDOC\tCIT\nA\t1\t{10 ** 40}\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[4] == f"{10 ** 40}.00"


def _reference_cell(value, precision):
    """One cell as documented, with Decimal: '-' for absent, an int as
    ``str``, a float's ``repr`` rounded half away from zero."""
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    with localcontext() as ctx:
        ctx.prec = 1000
        rounded = Decimal(repr(value)).quantize(Decimal(10) ** -precision, rounding=ROUND_HALF_UP)
    return f"{rounded:f}"


def _tie(tens, precision):
    """k / 10**(p+1) with a last digit of 5: a tie at the rounding digit."""
    return (10 * tens + (5 if tens >= 0 else -5)) / 10 ** (precision + 1)


class TestFmtColumn:
    """The TestFmtValue properties through ``_fmt_column``, on columns that
    mix absent cells, ints and floats: one column shares its format spec
    and scale across cells, and must still match ``fmt_value`` cell by cell."""

    @given(st.lists(st.one_of(st.none(), st.integers(-10**20, 10**20),
                              st.floats(allow_nan=False, allow_infinity=False)), max_size=12),
           st.integers(0, 12))
    def test_matches_reference_decimal(self, values, precision):
        cells = _fmt_column(values, precision)
        assert cells == [_reference_cell(v, precision) for v in values]
        assert cells == [fmt_value(v, precision) for v in values]

    @given(st.lists(st.one_of(st.none(), st.integers(-10**6, 10**6),
                              st.tuples(st.integers(-10**13, 10**13))), max_size=12),
           st.integers(0, 12))
    def test_ties_round_away_from_zero(self, drawn, precision):
        # a 1-tuple stands for the tie built from its number at this precision
        values = [_tie(v[0], precision) if isinstance(v, tuple) else v for v in drawn]
        cells = _fmt_column(values, precision)
        assert cells == [_reference_cell(v, precision) for v in values]
        assert cells == [fmt_value(v, precision) for v in values]

    @pytest.mark.parametrize("precision", sorted({p for _, p, _ in _FAST_PATH_BOUNDARIES}))
    def test_fast_path_boundaries(self, precision):
        cases = [(value, text) for value, p, text in _FAST_PATH_BOUNDARIES if p == precision]
        values = [None, 7, *(value for value, _ in cases), 2**70, None]
        expected = ["-", "7", *(text for _, text in cases), str(2**70), "-"]
        assert _fmt_column(values, precision) == expected
        assert _fmt_column(iter(values), precision) == expected

    def test_empty_column(self):
        assert _fmt_column([], 2) == []


# Each subcommand's required positional arguments and flags, and the
# options that take a value.
_COMMAND_ARGS = {
    "validate": ([FILTER_CORPUS], {}),
    "metrics": ([], {"summary": KRATING_SUMMARY}),
    "rank": ([], {"summary": KRATING_SUMMARY}),
    "correlate": ([KRATING_SUMMARY], {"x": "H", "y": "CIT"}),
    "yearly": ([YEARLY_CORPUS], {}),
}
_COMMON_OPTIONS = ["config", "out", "precision", "format"]
_VALUE_OPTIONS = {
    "validate": _COMMON_OPTIONS,
    "metrics": ["corpus", "summary", "author", *_COMMON_OPTIONS],
    "rank": ["corpus", "summary", "key", *_COMMON_OPTIONS],
    "correlate": ["x", "y", *_COMMON_OPTIONS],
    "yearly": _COMMON_OPTIONS,
}


def _argv_without(command, option):
    """The command and its required arguments, leaving out ``--option``
    (and for an input file, both flags of the input group)."""
    positional, flags = _COMMAND_ARGS[command]
    left_out = {"corpus", "summary"} if option in ("corpus", "summary") else {option}
    return [command, *positional,
            *(arg for name, value in flags.items() if name not in left_out
              for arg in (f"--{name}", value))]


class TestDoubleDashValue:
    """``--flag=--`` is a missing value: argparse drops the ``--`` and would
    hand the command an empty list."""

    @pytest.mark.parametrize("command,option", [
        (command, option) for command, options in _VALUE_OPTIONS.items() for option in options
    ])
    def test_exits_2_like_a_missing_value(self, capsys, command, option):
        argv = _argv_without(command, option)
        missing = run(capsys, *argv, f"--{option}")
        code, out, err = run(capsys, *argv, f"--{option}=--")
        assert (code, out, err) == missing
        assert code == 2 and out == ""
        assert err.endswith(f"kindex {command}: error: argument --{option}: "
                            "expected one argument\n")
        assert err.startswith(f"usage: kindex {command} ")

    @pytest.mark.parametrize("command", _VALUE_OPTIONS)
    def test_every_value_option_is_listed(self, capsys, command):
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert sorted(re.findall(r"--(\w+) [A-Z{]", usage)) == sorted(_VALUE_OPTIONS[command])


# Characters that str.splitlines() treats as line ends, but a file opened in
# text mode (and docs/formats.md) does not.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]


class TestOnlyLfCrLfAndCrEndLines:
    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    @pytest.mark.parametrize("bad", [False, True], ids=["ok", "bad"])
    def test_corpus_value(self, tmp_path, capsys, char, bad):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "# comment\n"
            f"type=pub\tpub_id=p1\tyear=2020\tauthors=a,b\tinstitutions=a:Inst{char}X\n"
            f"type=cite\tciting_pub=q{char}1\tcited_pub=p1\tciting_institutions=I{char}J\n"
            f"type=cite\tciting_pub=q2\tcited_pub=p1\tciting_authors=c {char} d\n"
            + ("type=pub\tpub_id=p1\tyear=2021\tauthors=a\n" if bad else ""),
            encoding="utf-8", newline="\n")
        code, out, err = run(capsys, "validate", str(path))
        try:
            with open(path, encoding="utf-8") as handle:
                bundle = parse_publications(handle)
        except ParseError as exc:
            assert (code, out) == (1, "")
            assert err == "".join(f"{issue}\n" for issue in exc.issues)
            assert err == "line 5: duplicate pub_id 'p1' (first seen on line 2)\n"
        else:
            assert not bad
            assert (code, out, err) == (0, "ok: 1 publications, 2 citations\n", "")
            assert parse_publications(path.read_text(encoding="utf-8")) == bundle
            assert bundle.publications[0].institution_by_author == {"a": f"Inst{char}X"}

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    def test_summary_cell(self, tmp_path, capsys, char):
        path = tmp_path / "summary.tsv"
        text = f"Author\tDOC\tCIT\nA{char}B\t2\t3\n#{char}\tnot a row\n"
        path.write_text(text, encoding="utf-8", newline="\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.split("\n")[1].startswith(f"A{char}B,A{char}B,2,3,1.50,")
        path.write_text(text + "C\t0\t1\n", encoding="utf-8", newline="\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path))
        assert (code, out, err) == (1, "", "line 4: DOC must be at least 1\n")

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    def test_config_comment(self, tmp_path, capsys, char):
        path = tmp_path / "config.txt"
        text = f"# note{char}precision=oops\nprecision=3 # x{char}y\n"
        path.write_text(text, encoding="utf-8", newline="\n")
        code, out, err = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                             "--config", str(path), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.split("\n")[1].split(",")[4] == "51.830"
        path.write_text(text + "bogus\n", encoding="utf-8", newline="\n")
        code, out, err = run(capsys, "metrics", "--summary", KRATING_SUMMARY,
                             "--config", str(path))
        assert (code, out, err) == (1, "", "line 3: expected key=value, got 'bogus'\n")

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_ends_split_like_an_open_file(self, tmp_path, ending):
        text = ("type=pub\tpub_id=p1\tyear=2020\tauthors=a\n\n"
                "type=cite\tciting_pub=q\tcited_pub=p1\n").replace("\n", ending)
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            assert parse_publications(text) == parse_publications(handle)
        unterminated = parse_publications(text + "type=cite\tciting_pub=r\tcited_pub=p1")
        assert [c.citing_pub for c in unterminated.citations] == ["q", "r"]

    @pytest.mark.parametrize("parse,texts", [
        (parse_publications, _corpus_texts()),
        (parse_author_summaries, _summary_inputs().map(itemgetter(0))),
        (load_config, _CONFIG.map(lambda text: text or "")),
    ], ids=["corpus", "summary", "config"])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_text_parses_like_an_open_file(self, tmp_path, parse, texts, data):
        text = data.draw(texts).replace("\r", "\n") + data.draw(st.sampled_from(["", "\n"]))
        expected = _outcome(parse, text)
        path = tmp_path / "input.txt"
        for ending in ("\n", "\r\n", "\r"):
            path.write_bytes(text.replace("\n", ending).encode("utf-8"))
            with open(path, encoding="utf-8") as handle:
                assert _outcome(parse, handle) == expected
            assert _outcome(parse, text.replace("\n", ending)) == expected


def _outcome(parse, source):
    """What ``parse`` returns for ``source``, or the type and text of the
    input error it raises."""
    try:
        return parse(source)
    except (ParseError, ConfigError) as exc:
        return type(exc), str(exc)


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a corpus, summary or config
    file is dropped: the file reads as it does without one."""

    @pytest.mark.parametrize("argv,text", [
        (["validate", "{}"], Path(YEARLY_CORPUS).read_text(encoding="utf-8")),
        (["metrics", "--summary", "{}"], Path(KRATING_SUMMARY).read_text(encoding="utf-8")),
        (["metrics", "--summary", KRATING_SUMMARY, "--config", "{}", "--format", "csv"],
         "precision=3\n"),
    ], ids=["corpus", "summary", "config"])
    def test_marked_file_reads_as_unmarked(self, tmp_path, capsys, argv, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        expected = run(capsys, *(arg.format(plain) for arg in argv))
        assert expected[0] == 0 and expected[2] == ""
        assert run(capsys, *(arg.format(marked) for arg in argv)) == expected


def _readme_examples():
    """The ``kindex`` command lines of the README's examples block, as argv
    lists; CI runs the same lines through the installed script."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nExamples, using", 1)[1].split("```\n")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("kindex ")]


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_example_exits_0(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(ROOT)  # the examples name files relative to the checkout
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out

    def test_kindex_script_runs_cli_main(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"kindex": "kindex.cli:main"}
