"""Per-layer tracing of kindex from outside the package.

``Tracer.installed()`` replaces layer functions at the module attributes
where their callers look them up (``kindex.indices.filter_citations``,
``kindex.cli.compute_author_metrics`` and so on) and restores them on
exit. Each call of a wrapped function records a span (name, start, end,
parent span, job id); functions called once per table cell or per row are
recorded as a call count and a total time instead. Spans stay in memory
until ``write`` is called.

The filter wrapper checks the audit invariant on every call: accepted
plus rejected mention units equal the units of the links that cite the
author's publications, counted independently from the bundle.
"""

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

RULES = ("indexed", "flagged", "dedupe", "self", "associate", "one_per_author")
COMMANDS = ("validate", "metrics", "rank", "correlate", "yearly")

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "filtering.filter_s": "s",
    "filtering.calls": "count",
    "filtering.links_scanned": "count",
    "filtering.links_matched": "count",
    "filtering.useful_ratio": "ratio",
    "filtering.associates_s": "s",
    "filtering.accepted": "count",
    **{f"filtering.rejected.{rule}": "count" for rule in RULES},
    "model.role_profile_s": "s",
    "model.role_profile_calls": "count",
    "model.pubs_scanned": "count",
    "model.by_id_builds": "count",
    "model.classify_s": "s",
    "model.classify_calls": "count",
    "ingest.parse_corpus_s": "s",
    "ingest.parse_summary_s": "s",
    "ingest.records": "count",
    "ingest.records_per_s": "1/s",
    "indices.author_metrics_s": "s",
    "indices.summary_metrics_s": "s",
    "analytics.yearly_s": "s",
    "analytics.rank_s": "s",
    "analytics.correlate_s": "s",
    **{f"cli.main_s.{command}": "s" for command in COMMANDS},
    "cli.self_s": "s",
    "cli.fmt_s": "s",
    "cli.fmt_calls": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[tuple] = []          # (name, start, end, parent, job)
        self.untimed: dict[int, float] = defaultdict(float)  # span -> time not its own
        self.tallies: list[tuple] = []        # (job, name, calls, seconds)
        self.job = None
        self.counts: Counter = Counter()
        self.violations: list[str] = []
        self._stack: list[int] = []
        self._job_tally: dict[str, list] = {}
        self._job_first_span = 0
        self._link_units = None
        self._link_units_of = None

    # --- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args)``
        runs outside the span and its time is excluded from the parent's
        self time."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            if after is not None:
                after(result, args)
                if parent >= 0:
                    self.untimed[parent] += perf_counter() - end
            return result
        return traced

    def tally(self, name: str, fn):
        """Wrap ``fn`` so calls add to a per-job count and total time."""
        def tallied(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = self._job_tally.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                if self._stack:
                    self.untimed[self._stack[-1]] += elapsed
        return tallied

    @contextlib.contextmanager
    def installed(self):
        """Patch the kindex layer functions for the duration of the block."""
        import kindex.cli as cli
        import kindex.filtering as filtering
        import kindex.indices as indices
        import kindex.model as model

        patches = [
            (cli, "parse_publications", self.span("ingest.parse_corpus", cli.parse_publications, self._after_parse_corpus)),
            (cli, "parse_author_summaries", self.span("ingest.parse_summary", cli.parse_author_summaries, self._after_parse_summary)),
            (cli, "compute_author_metrics", self.span("indices.author_metrics", cli.compute_author_metrics)),
            (cli, "metrics_from_summary", self.tally("indices.summary_metrics", cli.metrics_from_summary)),
            (cli, "yearly_summary", self.span("analytics.yearly", cli.yearly_summary)),
            (cli, "rank_authors", self.span("analytics.rank", cli.rank_authors)),
            (cli, "pearson", self.span("analytics.pearson", cli.pearson)),
            (cli, "linear_trend", self.span("analytics.linear_trend", cli.linear_trend)),
            (cli, "fmt_value", self.tally("cli.fmt", cli.fmt_value)),
            (indices, "build_role_profile", self.span("model.role_profile", indices.build_role_profile, self._after_role_profile)),
            (indices, "filter_citations", self.span("filtering.filter", indices.filter_citations, self._after_filter)),
            (filtering, "close_associates", self.span("filtering.associates", filtering.close_associates)),
            (model, "classify_roles", self.tally("model.classify", model.classify_roles)),
            (model.CorpusBundle, "publications_by_id", self.tally("model.by_id", model.CorpusBundle.publications_by_id)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def run_main(self, main, argv: list[str]) -> int:
        return self.span(f"cli.main.{argv[0]}", main)(argv)

    # --- counters -----------------------------------------------------------

    def _after_parse_corpus(self, bundle, args):
        self.counts["ingest.records"] += len(bundle.publications) + len(bundle.citations)

    def _after_parse_summary(self, rows, args):
        self.counts["ingest.records"] += len(rows)

    def _after_role_profile(self, profile, args):
        self.counts["model.role_profile_calls"] += 1
        self.counts["model.pubs_scanned"] += len(args[1])

    def _after_filter(self, result, args):
        author, corpus = args[0], args[1]
        if self._link_units_of is not corpus:
            per_pub: dict[str, list[int]] = defaultdict(lambda: [0, 0])
            for link in corpus.citations:
                entry = per_pub[link.cited_pub]
                entry[0] += 1
                entry[1] += link.mention_count
            self._link_units, self._link_units_of = per_pub, corpus
        _, audits = result
        links = units = 0
        for audit in audits:
            entry = self._link_units.get(audit.cited_pub, (0, 0))
            links += entry[0]
            units += entry[1]
            self.counts["filtering.accepted"] += audit.accepted
            for rule, count in audit.rejected.items():
                self.counts[f"filtering.rejected.{rule}"] += count
        accounted = sum(a.accepted + sum(a.rejected.values()) for a in audits)
        if accounted != units:
            self.violations.append(
                f"filter_citations({author!r}): accepted + rejected = {accounted}, "
                f"inspected = {units}")
        self.counts["filtering.calls"] += 1
        self.counts["filtering.links_scanned"] += len(corpus.citations)
        self.counts["filtering.links_matched"] += links

    # --- jobs ---------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self.counts = Counter()
        self._job_tally = {}
        self._job_first_span = len(self.spans)

    def end_job(self, output_bytes: int) -> dict[str, float]:
        """Close the current job and return its per-layer metrics
        (``trace.overhead_s`` excepted)."""
        for name, (calls, seconds) in self._job_tally.items():
            self.tallies.append((self.job, name, calls, seconds))
        spans = self.spans[self._job_first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            index = self._job_first_span + offset
            total[name] += end - start
            own[name] += end - start - child_time[index] - self.untimed[index]
        def tallied(name):
            return self._job_tally.get(name, (0, 0.0))

        parse_s = total["ingest.parse_corpus"] + total["ingest.parse_summary"]
        c = self.counts
        metrics = {
            "filtering.filter_s": total["filtering.filter"],
            "filtering.calls": c["filtering.calls"],
            "filtering.links_scanned": c["filtering.links_scanned"],
            "filtering.links_matched": c["filtering.links_matched"],
            "filtering.useful_ratio": (c["filtering.links_matched"] / c["filtering.links_scanned"]
                                       if c["filtering.links_scanned"] else 0.0),
            "filtering.associates_s": total["filtering.associates"],
            "filtering.accepted": c["filtering.accepted"],
            **{f"filtering.rejected.{r}": c[f"filtering.rejected.{r}"] for r in RULES},
            "model.role_profile_s": total["model.role_profile"],
            "model.role_profile_calls": c["model.role_profile_calls"],
            "model.pubs_scanned": c["model.pubs_scanned"],
            "model.by_id_builds": tallied("model.by_id")[0],
            "model.classify_s": tallied("model.classify")[1],
            "model.classify_calls": tallied("model.classify")[0],
            "ingest.parse_corpus_s": total["ingest.parse_corpus"],
            "ingest.parse_summary_s": total["ingest.parse_summary"],
            "ingest.records": c["ingest.records"],
            "ingest.records_per_s": c["ingest.records"] / parse_s if parse_s else 0.0,
            "indices.author_metrics_s": own["indices.author_metrics"],
            "indices.summary_metrics_s": tallied("indices.summary_metrics")[1],
            "analytics.yearly_s": total["analytics.yearly"],
            "analytics.rank_s": total["analytics.rank"],
            "analytics.correlate_s": total["analytics.pearson"] + total["analytics.linear_trend"],
            **{f"cli.main_s.{cmd}": total[f"cli.main.{cmd}"] for cmd in COMMANDS},
            "cli.self_s": sum(own[f"cli.main.{cmd}"] for cmd in COMMANDS),
            "cli.fmt_s": tallied("cli.fmt")[1],
            "cli.fmt_calls": tallied("cli.fmt")[0],
            "cli.output_bytes": output_bytes,
        }
        self.job = None
        return metrics

    def write(self, path) -> None:
        """Write every span and per-job tally as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent, "job": job}) + "\n")
            for job, name, calls, seconds in self.tallies:
                handle.write(json.dumps({
                    "tally": name, "job": job, "calls": calls, "seconds": seconds}) + "\n")
