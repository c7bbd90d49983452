from decimal import Decimal, ROUND_HALF_UP, localcontext
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kindex.cli
from kindex.cli import fmt_value, main

from refdata import KRATING

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
    ])
    def test_summary(self, tmp_path, capsys, row, message):
        path = tmp_path / "table.tsv"
        path.write_text("Id\tAuthor\tDOC\tCIT\tFWCI1\n" + row + "\n")
        code, out, err = run(capsys, "metrics", "--summary", str(path))
        assert (code, out, err) == (1, "", message + "\n")


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


class TestFmtValue:
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 12))
    def test_matches_reference_decimal(self, value, precision):
        with localcontext() as ctx:
            ctx.prec = 1000
            exact = Decimal(repr(value))
            quantum = Decimal(10) ** -precision
            expected = exact.quantize(quantum, rounding=ROUND_HALF_UP)
            assert abs(Decimal(fmt_value(value, precision)) - exact) <= quantum / 2
        assert fmt_value(value, precision) == str(expected)

    @pytest.mark.parametrize("value,precision,text", [
        (1e16, 12, "10000000000000000.000000000000"),
        (-2.5, 0, "-3"),
        (0.125, 2, "0.13"),
        (51.83, 12, "51.830000000000"),
    ])
    def test_examples(self, value, precision, text):
        assert fmt_value(value, precision) == text

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
