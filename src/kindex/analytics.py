"""Corpus-level statistics: correlations, trend fits, rankings and yearly
activity summaries."""

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

from .indices import AuthorMetrics, cit_per_doc
from .model import CorpusBundle

RANK_KEYS = ("k_display", "k_exact", "h_index", "cit_per_doc")


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined (constant input or fewer than two points)."""


@dataclass(frozen=True)
class YearlySummaryRow:
    year: int
    doc: int
    cited_doc: int
    cit: int
    self_cit: int
    cit_per_doc: float


def _unit_scaled(values: Sequence[float]) -> tuple[list[float], int]:
    """``(values * 2**-e, e)``, ``2**e`` just above the largest magnitude. The
    scaling is exact for normal floats, so a statistic of the scaled values,
    scaled back, equals the direct one bit for bit but cannot overflow."""
    exponent = math.frexp(max(map(abs, values), default=0.0))[1]
    return [math.ldexp(v, -exponent) for v in values], exponent


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation coefficient of two equal-length series."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise UndefinedCorrelationError("correlation needs at least two points")
    try:
        return statistics.correlation(_unit_scaled(x)[0], _unit_scaled(y)[0])
    except statistics.StatisticsError as exc:
        raise UndefinedCorrelationError(str(exc)) from None


def linear_trend(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Ordinary least-squares fit of two equal-length series; returns (slope,
    intercept). Raises UndefinedCorrelationError if the line at some x
    exceeds a float."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("trend fit needs at least two points")
    xs, x_exp = _unit_scaled(x)
    ys, y_exp = _unit_scaled(y)
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError as exc:
        raise ValueError(f"degenerate x values: {exc}") from None
    try:
        slope, intercept = math.ldexp(slope, y_exp - x_exp), math.ldexp(intercept, y_exp)
        if all(math.isfinite(slope * v + intercept) for v in x):
            return slope, intercept
    except OverflowError:
        pass
    raise UndefinedCorrelationError("trend line is too large for a float")


def _key_value(metrics: AuthorMetrics, key: str) -> float:
    value = getattr(metrics, key)
    return float("-inf") if value is None else float(value)


def rank_authors(metrics: Sequence[AuthorMetrics], key: str) -> list[AuthorMetrics]:
    """The authors in rank order: by ``key`` descending.

    Ties break by CIT/DOC descending, then display name ascending; the
    result does not depend on input order.
    """
    if key not in RANK_KEYS:
        raise KeyError(f"unknown ranking key {key!r}; choose from {RANK_KEYS}")
    return sorted(
        metrics,
        key=lambda m: (-_key_value(m, key), -m.cit_per_doc, m.display_name, m.author),
    )


def yearly_summary(corpus: CorpusBundle) -> list[YearlySummaryRow]:
    """Aggregate corpus activity per publication year, ascending.

    DOC counts publications of the year; CIT counts all incoming citation
    mentions of those publications; cited DOC counts publications with at
    least one incoming link; self-CIT counts mentions whose citing
    document shares an author with the cited publication.
    """
    by_id = corpus.publications_by_id()
    doc = Counter(pub.year for pub in corpus.publications)
    cit: Counter[int] = Counter()
    self_cit: Counter[int] = Counter()
    cited_ids: set[str] = set()
    for link in corpus.citations:
        cited = by_id[link.cited_pub]
        cit[cited.year] += link.mention_count
        if not set(cited.authors).isdisjoint(link.citing_authors):
            self_cit[cited.year] += link.mention_count
        cited_ids.add(link.cited_pub)
    cited_doc = Counter(by_id[pub_id].year for pub_id in cited_ids)

    return [
        YearlySummaryRow(
            year=year,
            doc=doc[year],
            cited_doc=cited_doc[year],
            cit=cit[year],
            self_cit=self_cit[year],
            cit_per_doc=cit_per_doc(cit[year], doc[year]),
        )
        for year in sorted(doc)
    ]
