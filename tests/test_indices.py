import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kindex import (
    AuthorMetrics,
    AuthorSummaryRow,
    CitationRecord,
    CorpusBundle,
    EmptyPortfolioError,
    FilterConfig,
    PublicationRecord,
    Role,
    cit_per_doc,
    compute_author_metrics,
    fwci_total,
    h_index,
    k_index,
    metrics_from_summary,
    ringelmann_share,
    role_dominance,
    round_half_away,
)


def brute_force_h(counts):
    """Definition scan: largest h in 0..n with at least h entries >= h."""
    best = 0
    for h in range(len(counts) + 1):
        if sum(1 for c in counts if c >= h) >= h:
            best = h
    return best


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_known_values(self):
        assert h_index([10, 8, 5, 4, 3]) == brute_force_h([10, 8, 5, 4, 3]) == 4
        assert h_index([1, 1, 1]) == brute_force_h([1, 1, 1]) == 1

    def test_random_lists_against_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            counts = [rng.randint(0, 50) for _ in range(rng.randint(0, 40))]
            assert h_index(counts) == brute_force_h(counts)

    def test_order_invariance(self):
        rng = random.Random(43)
        counts = [rng.randint(0, 20) for _ in range(15)]
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert h_index(counts) == h_index(shuffled)


class TestCitPerDoc:
    def test_reference_year_2000(self):
        assert cit_per_doc(3198, 242) == pytest.approx(13.2149, abs=1e-4)

    def test_reference_top_author(self):
        assert cit_per_doc(7765, 294) == pytest.approx(26.41, abs=0.005)

    def test_zero_citations(self):
        assert cit_per_doc(0, 5) == 0.0

    def test_empty_portfolio_rejected(self):
        with pytest.raises(EmptyPortfolioError):
            cit_per_doc(10, 0)


class TestRoleDominance:
    def test_losing_heavy_profile(self):
        shares = {Role.FA: 0.01, Role.CORA: 0.25, Role.SA: 0.01,
                  Role.COA: 0.40, Role.LA: 0.58}
        assert role_dominance(shares) == pytest.approx(1.27 / 1.98)
        assert round(role_dominance(shares), 2) == 0.64

    def test_winning_heavy_profile(self):
        shares = {Role.FA: 0.27, Role.CORA: 0.59, Role.SA: 0.10,
                  Role.COA: 0.24, Role.LA: 0.32}
        assert role_dominance(shares) == pytest.approx(1.96 / 1.56)
        assert round(role_dominance(shares), 2) == 1.26

    def test_all_zero_shares_give_one(self):
        assert role_dominance({}) == 1.0

    def test_alphabetical_field_pins_to_one(self):
        shares = {Role.FA: 0.9, Role.LA: 0.1}
        assert role_dominance(shares, alphabetical=True) == 1.0

    def test_always_positive_and_balanced_is_one(self):
        rng = random.Random(5)
        for _ in range(200):
            shares = {r: rng.random() for r in Role}
            assert role_dominance(shares) > 0
        balanced = {Role.FA: 0.3, Role.SA: 0.2, Role.COA: 0.1, Role.LA: 0.4}
        assert role_dominance(balanced) == pytest.approx(1.0)


class TestFwciTotal:
    def test_five_slot_sum(self):
        values = {Role.FA: 1.131, Role.LA: 2.704, Role.COA: 3.099,
                  Role.CORA: 1.836, Role.SA: 3.993}
        assert fwci_total(values) == pytest.approx(12.763)

    def test_includes_single_author_slot(self):
        values = {Role.FA: 1.8, Role.LA: 2.004, Role.COA: 1.626,
                  Role.CORA: 1.703, Role.SA: 0.442}
        assert fwci_total(values) == pytest.approx(7.575)

    def test_all_absent_is_zero(self):
        assert fwci_total({}) == 0.0


class TestKIndex:
    def test_top_rating_row(self):
        exact, display = k_index(0.75, 8.0, 5183, 100)
        assert exact == pytest.approx(57.83)
        assert display == 58

    def test_missing_k_r_defaults_to_one(self):
        exact, display = k_index(None, 3.2, 1517, 100)
        assert exact == pytest.approx(18.37)
        assert display == 18

    def test_mid_table_row(self):
        exact, display = k_index(1.2, 7.64, 980, 100)
        assert exact == pytest.approx(18.968)
        assert display == 19

    def test_missing_fwci_defaults_to_zero(self):
        exact, display = k_index(0.5, None, 1783, 100)
        assert exact == pytest.approx(17.83)
        assert display == 18

    def test_empty_portfolio_rejected(self):
        with pytest.raises(EmptyPortfolioError):
            k_index(1.0, 1.0, 10, 0)

    def test_display_within_half_of_exact(self):
        rng = random.Random(9)
        for _ in range(500):
            exact, display = k_index(
                rng.uniform(0.3, 3), rng.uniform(0, 15),
                rng.randint(0, 9000), rng.randint(1, 400),
            )
            assert -0.5 < display - exact <= 0.5

    def test_monotonic_in_cit_and_fwci(self):
        base, _ = k_index(1.1, 5.0, 100, 10)
        more_cit, _ = k_index(1.1, 5.0, 101, 10)
        more_fwci, _ = k_index(1.1, 5.1, 100, 10)
        assert more_cit > base
        assert more_fwci > base

    def test_scaling_cit_and_doc_preserves_value(self):
        rng = random.Random(10)
        for _ in range(200):
            cit, doc = rng.randint(0, 5000), rng.randint(1, 300)
            scale = rng.randint(2, 9)
            assert cit_per_doc(cit * scale, doc * scale) == cit_per_doc(cit, doc)


class TestRounding:
    def test_half_rounds_away_from_zero(self):
        assert round_half_away(23.5) == 24
        assert round_half_away(57.83) == 58
        assert round_half_away(18.37) == 18
        assert round_half_away(-2.5) == -3

    def test_integers_unchanged(self):
        assert round_half_away(27.0) == 27

    # Any float, integers from 2**52 (where a float's spacing reaches 1, then
    # 2), and ties n + 0.5 with the floats on either side of them.
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(lambda n, sign: sign * float(n), st.integers(2**52, 2**54),
                  st.sampled_from([1, -1])),
        st.builds(lambda n, toward: n + 0.5 if toward is None else math.nextafter(n + 0.5, toward),
                  st.integers(-2**20, 2**20), st.sampled_from([None, -math.inf, math.inf])),
    ))
    @example(0.49999999999999994)
    @example(4503599627370497.0)
    def test_matches_exact_rounding(self, value):
        expected = math.floor(abs(Fraction(value)) + Fraction(1, 2))
        assert round_half_away(value) == (expected if value >= 0 else -expected)


class TestIntegratedK:
    """``k_integrated`` of a metrics bundle whose K is ``k`` and whose
    patent and commercialization parts are set with ``_replace``."""

    BASE = metrics_from_summary(AuthorSummaryRow("a", "A", doc=1, cit=0))

    def k_integrated(self, k, k_p, k_c):
        return self.BASE._replace(k_exact=k, k_p=k_p, k_c=k_c).k_integrated

    def test_zero_components(self):
        assert self.k_integrated(58, 0, 0) == 58

    def test_additivity(self):
        assert self.k_integrated(10, 2, 3) == 15

    def test_random_triples_re_added(self):
        rng = random.Random(3)
        for _ in range(100):
            k, k_p, k_c = (rng.uniform(0, 100) for _ in range(3))
            assert self.k_integrated(k, k_p, k_c) == pytest.approx(k + k_p + k_c)


class TestRingelmannShare:
    def test_known_values(self):
        assert [ringelmann_share(n) for n in (1, 2, 3, 4)] == [100, 93, 86, 79]

    def test_clamped_at_zero(self):
        assert ringelmann_share(20) == 0.0

    def test_non_increasing(self):
        values = [ringelmann_share(n) for n in range(1, 40)]
        assert values[0] == 100
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v == 0 for n, v in zip(range(1, 40), values) if n >= 16)

    def test_zero_coauthors_rejected(self):
        with pytest.raises(ValueError):
            ringelmann_share(0)


def pub(pub_id, authors, corresponding=(), fwci=None, **kwargs):
    return PublicationRecord(
        pub_id=pub_id, year=2020, authors=tuple(authors),
        corresponding=frozenset(corresponding), fwci=fwci, **kwargs,
    )


def cite(citing, cited, authors, mentions=1):
    return CitationRecord(
        citing_pub=citing, cited_pub=cited,
        citing_authors=tuple(authors), mention_count=mentions,
    )


class TestComputeAuthorMetrics:
    def test_single_uncited_publication(self):
        corpus = CorpusBundle(publications=(pub("p1", ["x"]),))
        m = compute_author_metrics("x", corpus)
        assert (m.doc, m.cit, m.h_index) == (1, 0, 0)
        assert m.fwci_total is None
        assert m.k_exact == 0.0
        assert m.k_display == 0

    def test_four_publication_corpus_hand_computed(self):
        # spreadsheet-style evaluation:
        #   roles of x: S1 SA, S2 FA, S3 CoA+CorA, S4 LA (shares 0.25 each)
        #   role FWCI means: FA 1.0, LA 3.0, SA 2.0 (S3 has no FWCI)
        #   k_r = (1 + 0.25 + 0.25 + 0.25) / (1 + 0.25 + 0.25) = 7/6
        #   FWCI total = 6.0
        #   valid citations: S1 gets 1 (3 mentions deduped... see links),
        #   S2 gets 1, S3 gets 1, S4 gets 0 -> CIT 3, H 1
        #   K = (7/6)*6 + 3/4 = 7.75 -> displayed 8
        corpus = CorpusBundle(
            publications=(
                pub("S1", ["x"], fwci=2.0),
                pub("S2", ["x", "y"], fwci=1.0),
                pub("S3", ["y", "x", "z"], corresponding=["x"]),
                pub("S4", ["z", "x"], fwci=3.0),
            ),
            citations=(
                cite("E1", "S1", ["e1"], mentions=2),
                cite("E2", "S2", ["x", "q"]),      # self
                cite("E3", "S1", ["y"]),           # associate
                cite("E4", "S2", ["w"]),
                cite("E5", "S3", ["w"]),
            ),
        )
        m = compute_author_metrics("x", corpus)
        assert m.k_integrated == m.k_exact
        m = m._replace(k_p=1.5, k_c=0.25)
        assert m.doc == 4
        assert m.cit == 3
        assert m.h_index == 1
        assert m.cit_per_doc == pytest.approx(0.75)
        assert m.k_r == pytest.approx(7 / 6)
        assert m.fwci_total == pytest.approx(6.0)
        assert m.k_exact == pytest.approx(7.75)
        assert m.k_display == 8
        assert m.k_integrated == pytest.approx(9.5)

    def test_alphabetical_corpus_pins_k_r(self):
        corpus = CorpusBundle(
            publications=(
                pub("p1", ["a", "x"], fwci=1.0, alphabetical_order=True),
                pub("p2", ["b", "x"], alphabetical_order=True),
            ),
        )
        assert compute_author_metrics("x", corpus).k_r == 1.0

    def test_unknown_author_rejected(self):
        corpus = CorpusBundle(publications=(pub("p1", ["x"]),))
        with pytest.raises(EmptyPortfolioError):
            compute_author_metrics("ghost", corpus)


class TestMetricsFromSummary:
    def test_row_without_role_data_keeps_defaults(self):
        row = AuthorSummaryRow(author="a", display_name="A", doc=100, cit=2700)
        m = metrics_from_summary(row)
        assert m.k_r is None
        assert m.fwci_total is None
        assert m.k_display == 27

    def test_row_with_role_data(self):
        row = AuthorSummaryRow(
            author="a", display_name="A", h_index=10, doc=100, cit=1517,
            shares={}, role_fwci={Role.FA: 3.2},
        )
        m = metrics_from_summary(row)
        assert m.k_r is None
        assert m.fwci_total == pytest.approx(3.2)
        assert m.k_display == 18

    def test_row_without_doc_rejected(self):
        row = AuthorSummaryRow(author="a", display_name="A", cit=5)
        with pytest.raises(EmptyPortfolioError):
            metrics_from_summary(row)

    def test_hand_built_row_with_doc_0_rejected(self):
        # The parser refuses DOC 0; a row built by hand meets cit_per_doc's check.
        with pytest.raises(EmptyPortfolioError):
            metrics_from_summary(AuthorSummaryRow("a", "A", doc=0, cit=1))


# Field names in constructor order, as the former frozen dataclasses had them.
SUMMARY_FIELDS = ("author", "display_name", "h_index", "doc", "cit", "shares", "role_fwci")
METRIC_FIELDS = ("author", "display_name", "doc", "cit", "cit_per_doc", "h_index", "k_r",
                 "fwci_total", "k_exact", "k_display", "k_p", "k_c")
_ROLE_VALUES = st.dictionaries(st.sampled_from(Role), st.floats(0, 1e6), max_size=5)


@st.composite
def _summary_rows(draw):
    doc = draw(st.integers(1, 10**6))
    return AuthorSummaryRow(
        draw(st.text(min_size=1, max_size=4)), draw(st.text(min_size=1, max_size=4)),
        draw(st.none() | st.integers(0, doc)), doc, draw(st.integers(0, 10**9)),
        draw(_ROLE_VALUES), draw(_ROLE_VALUES),
    )


_values = st.one_of(_summary_rows(), _summary_rows().map(metrics_from_summary))


def _value_fields(value):
    return SUMMARY_FIELDS if isinstance(value, AuthorSummaryRow) else METRIC_FIELDS


class TestValueContract:
    """Summary rows and metrics bundles are immutable named tuples that keep
    the behaviour the frozen dataclasses had: value equality, pickling,
    copying, repr, hashing and immutability."""

    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_pickle_and_copy_give_an_equal_value(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)

    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_repr_is_the_dataclass_repr(self, value):
        dataclass = dataclasses.make_dataclass(
            type(value).__name__, _value_fields(value), frozen=True)
        assert repr(value) == repr(dataclass(*value))

    @settings(max_examples=100, deadline=None)
    @given(_values)
    def test_fields_cannot_be_assigned(self, value):
        for name in (*_value_fields(value), "k_integrated", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name, None))

    @settings(max_examples=200, deadline=None)
    @given(_summary_rows().map(metrics_from_summary))
    def test_equal_metrics_hash_equal(self, metrics):
        twin = AuthorMetrics(*(copy.copy(value) for value in metrics))
        assert twin == metrics and hash(twin) == hash(metrics)

    def test_default_dicts_are_new_per_row(self):
        first, second = AuthorSummaryRow("a", "A"), AuthorSummaryRow("a", "A")
        assert first.shares == {} == first.role_fwci
        assert type(first.shares) is dict and type(first.role_fwci) is dict
        dicts = [first.shares, first.role_fwci, second.shares, second.role_fwci]
        assert len({id(d) for d in dicts}) == 4

    @settings(max_examples=200, deadline=None)
    @given(_summary_rows().map(metrics_from_summary), st.floats(-1e6, 1e6),
           st.floats(-1e6, 1e6))
    def test_replaced_parts_add_to_k_integrated(self, metrics, k_p, k_c):
        with_parts = metrics._replace(k_p=k_p, k_c=k_c)
        assert with_parts.k_integrated == metrics.k_exact + k_p + k_c
        assert type(with_parts) is AuthorMetrics and with_parts[:10] == metrics[:10]
