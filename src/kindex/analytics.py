"""Corpus-level statistics: correlations, trend fits, rankings and yearly
activity summaries."""

import math
import statistics
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


@dataclass(frozen=True)
class RankingTable:
    """Authors ordered by one metric; ranks are contiguous from 1."""

    key: str
    rows: tuple[tuple[int, AuthorMetrics], ...]


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


def linear_trend(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least-squares fit; returns (slope, intercept). Raises
    UndefinedCorrelationError if the line at some point's x exceeds a float."""
    if len(points) < 2:
        raise ValueError("trend fit needs at least two points")
    xs, x_exp = _unit_scaled([p[0] for p in points])
    ys, y_exp = _unit_scaled([p[1] for p in points])
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError as exc:
        raise ValueError(f"degenerate x values: {exc}") from None
    try:
        slope, intercept = math.ldexp(slope, y_exp - x_exp), math.ldexp(intercept, y_exp)
        if all(math.isfinite(slope * x + intercept) for x, _ in points):
            return slope, intercept
    except OverflowError:
        pass
    raise UndefinedCorrelationError("trend line is too large for a float")


def _key_value(metrics: AuthorMetrics, key: str) -> float:
    value = getattr(metrics, key)
    return float("-inf") if value is None else float(value)


def rank_authors(metrics: Sequence[AuthorMetrics], key: str) -> RankingTable:
    """Rank authors by ``key`` descending.

    Ties break by CIT/DOC descending, then display name ascending; the
    result does not depend on input order.
    """
    if key not in RANK_KEYS:
        raise KeyError(f"unknown ranking key {key!r}; choose from {RANK_KEYS}")
    ordered = sorted(
        metrics,
        key=lambda m: (-_key_value(m, key), -m.cit_per_doc, m.display_name, m.author),
    )
    return RankingTable(
        key=key,
        rows=tuple((rank, m) for rank, m in enumerate(ordered, 1)),
    )


def yearly_summary(corpus: CorpusBundle) -> list[YearlySummaryRow]:
    """Aggregate corpus activity per publication year, ascending.

    DOC counts publications of the year; CIT counts all incoming citation
    mentions of those publications; cited DOC counts publications with at
    least one incoming link; self-CIT counts mentions whose citing
    document shares an author with the cited publication.
    """
    by_id = corpus.publications_by_id()
    per_year: dict[int, dict[str, int]] = {}
    for pub in corpus.publications:
        per_year.setdefault(
            pub.year, {"doc": 0, "cited_doc": 0, "cit": 0, "self_cit": 0}
        )["doc"] += 1

    cited_ids: set[str] = set()
    for link in corpus.citations:
        cited = by_id[link.cited_pub]
        bucket = per_year[cited.year]
        bucket["cit"] += link.mention_count
        if not set(cited.authors).isdisjoint(link.citing_authors):
            bucket["self_cit"] += link.mention_count
        cited_ids.add(link.cited_pub)
    for pub_id in cited_ids:
        per_year[by_id[pub_id].year]["cited_doc"] += 1

    return [
        YearlySummaryRow(
            year=year,
            doc=bucket["doc"],
            cited_doc=bucket["cited_doc"],
            cit=bucket["cit"],
            self_cit=bucket["self_cit"],
            cit_per_doc=cit_per_doc(bucket["cit"], bucket["doc"]),
        )
        for year, bucket in sorted(per_year.items())
    ]
