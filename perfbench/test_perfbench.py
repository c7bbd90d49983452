"""Tests of the benchmark itself: generator, checker and tracer."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

import kindex.cli  # noqa: E402
import kindex.indices  # noqa: E402


def cli(argv, main=kindex.cli.main) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    corpus = gen.make_corpus(5, 240)
    path = tmp_path_factory.mktemp("bench") / "corpus.txt"
    path.write_text(corpus.text(), encoding="utf-8")
    return corpus, str(path)


@pytest.fixture(scope="module")
def summary_file(tmp_path_factory):
    summary = gen.make_summary(5, 400)
    path = tmp_path_factory.mktemp("bench") / "summary.tsv"
    path.write_text(summary.text(), encoding="utf-8")
    return summary, str(path)


def test_generator_is_deterministic(tmp_path):
    assert gen.make_corpus(3, 90).text() == gen.make_corpus(3, 90).text()
    assert gen.make_summary(3, 90).text() == gen.make_summary(3, 90).text()
    assert gen.make_corpus(3, 90).text() != gen.make_corpus(4, 90).text()
    files = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        gen.main(["corpus", "--seed", "11", "--size", "70", "--out", str(path)])
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_corpus_fires_every_filter_rule(corpus_file):
    corpus, _ = corpus_file
    tracer = Tracer()
    tracer.begin_job(0)
    with tracer.installed():
        cli(["metrics", "--corpus", corpus_file[1]])
    layers = tracer.end_job(0)
    assert not tracer.violations
    for rule in ("indexed", "flagged", "dedupe", "self", "associate", "one_per_author"):
        assert layers[f"filtering.rejected.{rule}"] > 0, rule
    assert layers["filtering.calls"] == len(checker.corpus_truth(corpus))
    assert layers["ingest.records"] == corpus.records


def _perturb_line(text: str, line_no: int, old: str, new: str) -> str:
    lines = text.splitlines(keepends=True)
    assert old in lines[line_no]
    lines[line_no] = lines[line_no].replace(old, new, 1)
    return "".join(lines)


def test_checker_accepts_real_corpus_outputs_and_flags_perturbed_rows(corpus_file):
    corpus, path = corpus_file
    truth = checker.corpus_truth(corpus)
    yearly = checker.yearly_truth(corpus)
    author = sorted(truth)[7]

    metrics = cli(["metrics", "--corpus", path])
    assert checker.check_corpus_metrics(metrics, truth, sorted(truth)) == []
    row = checker.parse_table(metrics)[3]
    bad = _perturb_line(metrics, 4, f"  {row['cit']}  ", f"  {int(row['cit']) + 1}  ")
    assert checker.check_corpus_metrics(bad, truth, sorted(truth))

    single = cli(["metrics", "--corpus", path, "--author", author])
    assert checker.check_author_metrics(single, truth, author) == []
    assert checker.check_author_metrics(metrics, truth, author)

    table = cli(["yearly", path])
    assert checker.check_yearly(table, yearly) == []
    first = checker.parse_table(table)[0]
    assert checker.check_yearly(_perturb_line(table, 1, first["year"], str(int(first["year"]) - 1)), yearly)

    plot = cli(["yearly", path, "--format", "plotdata"])
    assert checker.check_yearly_plot(plot, yearly) == []
    series, year, doc = plot.splitlines()[1].split("\t")
    bumped = _perturb_line(plot, 1, f"\t{doc}\n", f"\t{int(doc) + 1}\n")
    assert checker.check_yearly_plot(bumped, yearly)

    assert checker.check_validate(cli(["validate", path]), corpus) == []


def test_checker_accepts_real_summary_outputs_and_flags_perturbed_rows(summary_file):
    summary, path = summary_file
    ids = [row.author_id for row in summary.rows]

    metrics = cli(["metrics", "--summary", path])
    assert checker.check_summary_metrics(metrics, summary, ids) == []
    row = checker.parse_table(metrics)[9]
    bad_k = _perturb_line(metrics, 10, f"  {row['k_display']}  ", f"  {int(row['k_display']) + 1}  ")
    assert checker.check_summary_metrics(bad_k, summary, ids)

    rank = cli(["rank", "--summary", path, "--key", "k_display"])
    assert checker.check_rank(rank, summary, ids) == []
    # Swap the authors of ranks 1 and 2, keeping the rank column intact.
    lines = rank.splitlines(keepends=True)
    first, second = checker.parse_table(rank)[:2]
    assert first["k_display"] != second["k_display"]
    swapped = [lines[0], "1" + lines[2][1:], "2" + lines[1][1:], *lines[3:]]
    assert checker.check_rank("".join(swapped), summary, ids)

    plot = cli(["correlate", path, "--x", "H", "--y", "FA", "--format", "plotdata"])
    assert checker.check_correlate_plot(plot, summary) == []
    x, y = plot.splitlines()[1].split("\t")[1:]
    shifted = f"{float(y) + 0.02:.2f}"
    assert checker.check_correlate_plot(_perturb_line(plot, 1, f"\t{y}", f"\t{shifted}"), summary)

    table = cli(["correlate", path, "--x", "H", "--y", "FA"])
    assert checker.check_correlate_r(table, summary) == []
    r = checker.parse_table(table)[0]["r"]
    wrong = f"{float(r) + 0.001:.4f}"
    assert checker.check_correlate_r(table.replace(r, wrong), summary)


def test_traced_and_untraced_runs_print_the_same(corpus_file, summary_file):
    original = kindex.indices.filter_citations
    tracer = Tracer()
    commands = [
        ["metrics", "--corpus", corpus_file[1]],
        ["yearly", corpus_file[1], "--format", "plotdata"],
        ["metrics", "--summary", summary_file[1]],
        ["rank", "--summary", summary_file[1], "--key", "k_display"],
        ["correlate", summary_file[1], "--x", "H", "--y", "FA", "--format", "plotdata"],
    ]
    plain = [cli(argv) for argv in commands]
    tracer.begin_job(0)
    with tracer.installed():
        assert kindex.indices.filter_citations is not original
        traced = [cli(argv, lambda a: tracer.run_main(kindex.cli.main, a)) for argv in commands]
    layers = tracer.end_job(sum(len(t) for t in traced))
    assert kindex.indices.filter_citations is original
    assert traced == plain
    assert set(layers) == set(LAYER_METRICS) - {"trace.overhead_s"}
    assert not tracer.violations
    for key in ("filtering.calls", "model.role_profile_calls", "cli.fmt_calls",
                "analytics.yearly_s", "analytics.rank_s", "analytics.correlate_s",
                "ingest.parse_summary_s", "indices.summary_metrics_s", "cli.self_s"):
        assert layers[key] > 0, key


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0, 10)
    assert run.tail(values[:12]) == (2.0, 100.0 * 2 / 12, 10)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
