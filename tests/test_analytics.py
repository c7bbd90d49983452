import math
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from kindex import (
    AuthorMetrics,
    CitationRecord,
    CorpusBundle,
    PublicationRecord,
    UndefinedCorrelationError,
    linear_trend,
    pearson,
    rank_authors,
    yearly_summary,
)


def pearson_oracle(x, y):
    """Single-pass sums formula, independent of the implementation path."""
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    return (n * sxy - sx * sy) / math.sqrt(
        (n * sxx - sx * sx) * (n * syy - sy * sy)
    )


def trend_oracle(points):
    """Normal equations solved by direct 2x2 inversion."""
    n = len(points)
    sx = sum(p[0] for p in points)
    sxx = sum(p[0] ** 2 for p in points)
    sy = sum(p[1] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    return slope, intercept


class TestPearson:
    def test_exact_positive_relation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_negative_relation(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_twenty_row_synthetic_against_oracle(self):
        rng = random.Random(20)
        h = [rng.randint(10, 50) for _ in range(20)]
        fa = [max(0.0, min(1.0, 0.5 - 0.008 * v + rng.gauss(0, 0.1))) for v in h]
        assert pearson(h, fa) == pytest.approx(pearson_oracle(h, fa), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1], [2])

    def test_symmetry_and_bounds(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 30)
            x = [rng.uniform(-5, 5) for _ in range(n)]
            y = [rng.uniform(-5, 5) for _ in range(n)]
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            r = pearson(x, y)
            assert -1.0 <= r <= 1.0 + 1e-15
            assert r == pytest.approx(pearson(y, x), abs=1e-15)

    def test_affine_images(self):
        x = [1.0, 2.0, 5.0, 7.5, 11.0]
        assert pearson(x, [2 * v + 3 for v in x]) == pytest.approx(1.0, abs=1e-9)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-9)


class TestLinearTrend:
    def test_identity_line(self):
        assert linear_trend([0, 1, 2], [0, 1, 2]) == pytest.approx((1.0, 0.0))

    def test_flat_line(self):
        assert linear_trend([0, 1, 2], [5, 5, 5]) == pytest.approx((0.0, 5.0))

    def test_random_points_against_normal_equations(self):
        rng = random.Random(15)
        points = [(rng.uniform(0, 10), rng.uniform(-3, 3)) for _ in range(15)]
        slope, intercept = linear_trend(*zip(*points))
        o_slope, o_intercept = trend_oracle(points)
        assert slope == pytest.approx(o_slope, abs=1e-9)
        assert intercept == pytest.approx(o_intercept, abs=1e-9)

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            linear_trend([1, 1], [2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            linear_trend([1, 2], [1, 2, 3])

    def test_one_point_rejected(self):
        with pytest.raises(ValueError, match="^trend fit needs at least two points$"):
            linear_trend([1.0], [2.0])


# Values with a fixed number of decimals, so none is subnormal.
_MODERATE = st.integers(-10**9, 10**9).map(lambda n: n / 1000)
_SERIES = st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.lists(_MODERATE, min_size=n, max_size=n),
                        st.lists(_MODERATE, min_size=n, max_size=n)))


class TestRescaling:
    """pearson and linear_trend rescale their inputs by powers of two: the
    results equal the unscaled statistics bit for bit, and inputs near the
    largest float no longer overflow."""

    @given(_SERIES)
    def test_pearson_equals_the_unscaled_statistic(self, series):
        x, y = series
        try:
            expected = statistics.correlation(x, y)
        except statistics.StatisticsError:
            with pytest.raises(UndefinedCorrelationError):
                pearson(x, y)
            return
        assert pearson(x, y) == expected

    @given(_SERIES)
    def test_trend_equals_the_unscaled_fit(self, series):
        x, y = series
        try:
            expected = tuple(statistics.linear_regression(x, y))
        except statistics.StatisticsError:
            with pytest.raises(ValueError):
                linear_trend(x, y)
            return
        assert linear_trend(x, y) == expected

    def test_pearson_near_the_largest_float(self):
        x = [1e308, 5e307, 2e307]
        y = [1.0, 2.0, 4.0]
        assert pearson(x, y) == pearson([math.ldexp(v, -1000) for v in x], y)
        assert pearson(x, y) == pytest.approx(-0.9449, abs=1e-4)

    def test_trend_near_the_largest_float(self):
        slope, intercept = linear_trend([1.0, 3.0, 5.0], [1.7e308, 1.6e308, 1.5e308])
        assert slope == pytest.approx(-0.05e308)
        assert intercept == pytest.approx(1.75e308)

    @pytest.mark.parametrize("points", [
        [(0.0, 0.0), (1e-300, 1e308)],                           # the slope
        [(0.0, -1.7e308), (1.0, 1.7e308), (2.0, 1.7e308)],       # the line at x = 2
    ])
    def test_trend_too_large_for_a_float(self, points):
        with pytest.raises(UndefinedCorrelationError, match="too large for a float"):
            linear_trend(*zip(*points))


def metrics(author, k_display=0, k_exact=0.0, h=0, cpd=0.0, name=None):
    return AuthorMetrics(
        author=author, display_name=name or author, doc=1, cit=0,
        cit_per_doc=cpd, h_index=h, k_r=None, fwci_total=None,
        k_exact=k_exact, k_display=k_display,
    )


class TestRankAuthors:
    def test_empty_input(self):
        assert rank_authors([], "k_display") == []

    def test_descending_with_contiguous_ranks(self):
        ranked = rank_authors(
            [metrics("a", 10), metrics("b", 58), metrics("c", 47)], "k_display"
        )
        assert [(rank, m.author) for rank, m in enumerate(ranked, 1)] == [
            (1, "b"), (2, "c"), (3, "a"),
        ]

    def test_tie_breaks_by_cit_per_doc_then_name(self):
        ranked = rank_authors(
            [
                metrics("low", 20, cpd=1.0, name="Zed"),
                metrics("high", 20, cpd=9.0, name="Amy"),
                metrics("alpha", 20, cpd=1.0, name="Ada"),
            ],
            "k_display",
        )
        assert [m.author for m in ranked] == ["high", "alpha", "low"]

    def test_order_invariant_under_permutation(self):
        rng = random.Random(2)
        rows = [
            metrics(f"a{i}", rng.randint(5, 15), cpd=rng.random()) for i in range(20)
        ]
        baseline = rank_authors(rows, "k_display")
        for _ in range(5):
            rng.shuffle(rows)
            assert rank_authors(rows, "k_display") == baseline

    def test_missing_h_sorts_last(self):
        rows = [
            metrics("known", h=4),
            AuthorMetrics(
                author="unknown", display_name="unknown", doc=1, cit=0,
                cit_per_doc=99.0, h_index=None, k_r=None, fwci_total=None,
                k_exact=0.0, k_display=0,
            ),
        ]
        assert [m.author for m in rank_authors(rows, "h_index")] == [
            "known", "unknown",
        ]

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            rank_authors([], "fame")


def pub(pub_id, year, authors):
    return PublicationRecord(pub_id=pub_id, year=year, authors=tuple(authors))


def cite(citing, cited, authors, mentions=1):
    return CitationRecord(
        citing_pub=citing, cited_pub=cited,
        citing_authors=tuple(authors), mention_count=mentions,
    )


class TestYearlySummary:
    def test_empty_corpus(self):
        assert yearly_summary(CorpusBundle(publications=())) == []

    def test_synthetic_two_year_corpus(self):
        corpus = CorpusBundle(
            publications=(
                pub("a", 2000, ["x"]),
                pub("b", 2000, ["w"]),
                pub("c", 2001, ["x", "y"]),
            ),
            citations=(
                cite("ext1", "a", ["z"], mentions=2),
                cite("ext2", "a", ["x"]),        # self-citation
                cite("c", "b", ["x", "y"]),
            ),
        )
        rows = yearly_summary(corpus)
        assert [r.year for r in rows] == [2000, 2001]
        y2000 = rows[0]
        assert y2000.doc == 2
        assert y2000.cited_doc == 2
        assert y2000.cit == 4
        assert y2000.self_cit == 1
        assert y2000.cit_per_doc == pytest.approx(2.0)
        assert rows[1].cit == 0

    def test_totals_match_brute_force_pass(self):
        rng = random.Random(30)
        pubs = [
            pub(f"p{i}", 2000 + rng.randint(0, 4), [f"a{i % 5}"]) for i in range(40)
        ]
        cites = tuple(
            cite(f"ext{j}", f"p{rng.randrange(40)}", [f"a{rng.randrange(8)}"],
                 mentions=rng.randint(1, 3))
            for j in range(60)
        )
        corpus = CorpusBundle(publications=tuple(pubs), citations=cites)
        rows = yearly_summary(corpus)
        by_id = {p.pub_id: p for p in pubs}
        for row in rows:
            docs = [p for p in pubs if p.year == row.year]
            incoming = [c for c in cites if by_id[c.cited_pub].year == row.year]
            assert row.doc == len(docs)
            assert row.cit == sum(c.mention_count for c in incoming)
            assert row.cited_doc == len({c.cited_pub for c in incoming})
            assert row.self_cit == sum(
                c.mention_count for c in incoming
                if set(c.citing_authors) & set(by_id[c.cited_pub].authors)
            )
