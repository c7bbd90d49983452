import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kindex import (
    CitationRecord,
    CorpusBundle,
    EmptyPortfolioError,
    FilterAudit,
    FilterConfig,
    NoPublicationsError,
    PublicationFlag,
    PublicationRecord,
    Role,
    audit_export,
    build_role_profile,
    classify_roles,
    close_associates,
    compute_author_metrics,
    filter_citations,
    fwci_total,
    h_index,
    k_index,
    role_dominance,
)

# Hand-enumerated ground truth for tests/data/corpus_filter.txt, target
# author "t" (see the fixture's comments for the link-by-link breakdown).
RAW_UNITS = 15
ACCEPTED_ALL_ON = 5
SINGLE_RULE_COUNTS = {
    "require_indexed_source": 14,   # drops the unindexed citing doc
    "exclude_flagged": 14,          # drops the NONSCIENTIFIC citing doc
    "dedupe_per_document": 12,      # 3->1 and 2->1 mention collapses
    "exclude_self": 13,             # drops t's own and b's overlapping doc
    "exclude_close_associates": 11, # drops e-inst, a, c and b citers
    "one_per_author_per_source": 11,
}


def pub(pub_id, authors, **kwargs):
    return PublicationRecord(pub_id=pub_id, year=2020, authors=tuple(authors), **kwargs)


def cite(citing, cited, authors, **kwargs):
    return CitationRecord(
        citing_pub=citing, cited_pub=cited, citing_authors=tuple(authors), **kwargs
    )


def config_with(**overrides) -> FilterConfig:
    base = {f: False for f in FilterConfig.__dataclass_fields__}
    base.update(overrides)
    return FilterConfig(**base)


class TestCloseAssociates:
    def test_loner_has_only_own_institutions(self):
        corpus = CorpusBundle(
            publications=(pub("p1", ["solo"], institution_by_author={"solo": "Inst A"}),)
        )
        assert close_associates("solo", corpus) == (set(), {"Inst A"})

    def test_symmetry(self):
        corpus = CorpusBundle(publications=(pub("p1", ["a", "b"]),))
        assert "b" in close_associates("a", corpus)[0]
        assert "a" in close_associates("b", corpus)[0]

    def test_unknown_author(self):
        corpus = CorpusBundle(publications=(pub("p1", ["a"]),))
        with pytest.raises(NoPublicationsError):
            close_associates("ghost", corpus)

    def test_five_author_corpus_against_pairwise_scan(self):
        corpus = CorpusBundle(
            publications=(
                pub("p1", ["a", "b"], institution_by_author={"a": "Inst A"}),
                pub("p2", ["b", "c", "d"]),
                pub("p3", ["e"]),
                pub("p4", ["a", "d"], institution_by_author={"a": "Inst B"}),
            )
        )
        # oracle: brute-force pairwise scan over all publication pairs
        for author in "abcde":
            coauthors, institutions = set(), set()
            for p in corpus.publications:
                if author in p.authors:
                    coauthors |= {x for x in p.authors if x != author}
                    inst = p.institution_by_author.get(author)
                    if inst:
                        institutions.add(inst)
            assert close_associates(author, corpus) == (coauthors, institutions)


class TestFilterExamples:
    def test_single_external_citation_counts_once(self):
        corpus = CorpusBundle(
            publications=(pub("p1", ["t"]),),
            citations=(cite("ext", "p1", ["stranger"]),),
        )
        count, audits = filter_citations("t", corpus, FilterConfig())
        assert count == 1
        assert audits[0].rejected == {}

    def test_self_citation_excluded(self):
        corpus = CorpusBundle(
            publications=(pub("p1", ["t", "u"]),),
            citations=(cite("ext", "p1", ["x", "t"]),),
        )
        count, audits = filter_citations("t", corpus, FilterConfig())
        assert count == 0
        assert audits[0].rejected == {"self": 1}

    def test_triple_mention_collapses_under_dedupe(self):
        corpus = CorpusBundle(
            publications=(pub("p1", ["t"]),),
            citations=(cite("ext", "p1", ["stranger"], mention_count=3),),
        )
        count, _ = filter_citations("t", corpus, config_with(dedupe_per_document=True))
        assert count == 1

    def test_empty_citations_give_zero(self):
        corpus = CorpusBundle(publications=(pub("p1", ["t"]),))
        count, audits = filter_citations("t", corpus, FilterConfig())
        assert count == 0
        assert len(audits) == 1


class TestFilterCorpusGroundTruth:
    def test_all_rules_off_equals_raw_mentions(self, filter_corpus):
        count, _ = filter_citations("t", filter_corpus, config_with())
        assert count == RAW_UNITS

    def test_all_rules_on(self, filter_corpus):
        count, audits = filter_citations("t", filter_corpus, FilterConfig())
        assert count == ACCEPTED_ALL_ON
        assert {a.cited_pub: a.accepted for a in audits} == {
            "P1": 3, "P2": 1, "P3": 0, "P7": 1,
        }

    @pytest.mark.parametrize("rule,expected", sorted(SINGLE_RULE_COUNTS.items()))
    def test_each_rule_alone(self, filter_corpus, rule, expected):
        count, _ = filter_citations("t", filter_corpus, config_with(**{rule: True}))
        assert count == expected

    def test_all_on_attribution(self, filter_corpus):
        _, audits = filter_citations("t", filter_corpus, FilterConfig())
        by_pub = {a.cited_pub: a.rejected for a in audits}
        assert by_pub["P1"] == {
            "indexed": 1, "flagged": 1, "associate": 1, "one_per_author": 1,
        }
        assert by_pub["P2"] == {"dedupe": 2, "self": 1, "associate": 1}
        assert by_pub["P3"] == {}
        assert by_pub["P7"] == {"dedupe": 1, "self": 1}

    def test_first_matching_rule_wins_attribution(self, filter_corpus):
        # the b-authored citing doc is both a self-citation (shared author
        # with P7) and an associate citation; self tests first
        _, audits = filter_citations("t", filter_corpus, FilterConfig())
        p7 = next(a for a in audits if a.cited_pub == "P7")
        assert p7.rejected["self"] == 1
        cfg = config_with(exclude_close_associates=True)
        _, audits = filter_citations("t", filter_corpus, cfg)
        p7 = next(a for a in audits if a.cited_pub == "P7")
        assert p7.rejected["associate"] == 1

    def test_conservation_and_monotonicity_over_all_configs(self, filter_corpus):
        fields = sorted(FilterConfig.__dataclass_fields__)
        counts = {}
        for bits in itertools.product([False, True], repeat=len(fields)):
            cfg = FilterConfig(**dict(zip(fields, bits)))
            count, audits = filter_citations("t", filter_corpus, cfg)
            counts[bits] = count
            assert all(a.inspected == a.accepted + sum(a.rejected.values())
                       for a in audits)
            assert sum(a.inspected for a in audits) == RAW_UNITS
        for bits, count in counts.items():
            for i in range(len(fields)):
                if not bits[i]:
                    stricter = bits[:i] + (True,) + bits[i + 1:]
                    assert counts[stricter] <= count

    def test_idempotence(self, filter_corpus):
        # rebuild a corpus whose citations are exactly the links accepted
        # under the full rule set; re-filtering must change nothing
        surviving = (
            cite("P4", "P1", ["f", "g"], citing_institutions=frozenset({"Inst Z"})),
            cite("P10", "P1", ["g"]),
            cite("P9", "P1", ["f", "g"]),
            cite("P9", "P2", ["f", "g"]),
            cite("P4", "P7", ["f", "g"]),
        )
        filtered = CorpusBundle(
            publications=filter_corpus.publications, citations=surviving
        )
        count, audits = filter_citations("t", filtered, FilterConfig())
        assert count == ACCEPTED_ALL_ON
        assert all(a.rejected == {} for a in audits)


class TestAuditExport:
    def test_delimited_lines(self, filter_corpus):
        _, audits = filter_citations("t", filter_corpus, FilterConfig())
        text = audit_export(audits)
        lines = text.strip().split("\n")
        assert "P1\taccepted\t3" in lines
        assert "P2\tdedupe\t2" in lines
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_empty_audits(self):
        assert audit_export([]) == ""


# --- the index-backed functions against full corpus scans -------------------

AUTHORS = ("a", "b", "c", "d")
INSTITUTIONS = ("Inst A", "Inst B")


@st.composite
def small_bundles(draw, institutions=INSTITUTIONS) -> CorpusBundle:
    """A few publications by a small author pool (so authors sit on many
    publications and institutions are shared), cited by links drawn from a
    small id pool (so (citing, cited) pairs repeat), with multi-mention,
    unindexed and flagged in-corpus citing documents. ``institutions`` is
    the pool of institution names."""
    n_pubs = draw(st.integers(1, 5))
    pub_ids = [f"p{i}" for i in range(n_pubs)]
    publications = []
    for pub_id in pub_ids:
        byline = draw(st.lists(st.sampled_from(AUTHORS), min_size=1, max_size=4,
                               unique=True))
        publications.append(PublicationRecord(
            pub_id=pub_id,
            year=2020,
            authors=tuple(byline),
            corresponding=frozenset(draw(st.sets(st.sampled_from(byline)))),
            fwci=draw(st.none() | st.floats(0, 5, allow_nan=False)),
            alphabetical_order=draw(st.booleans()),
            flags=frozenset(draw(st.sets(st.sampled_from(PublicationFlag),
                                         max_size=1))),
            institution_by_author=draw(st.dictionaries(
                st.sampled_from(byline), st.sampled_from(institutions))),
        ))
    citing_ids = st.sampled_from(pub_ids + ["x0", "x1"])
    citations = []
    for _ in range(draw(st.integers(0, 12))):
        cited = draw(st.sampled_from(pub_ids))
        citing = draw(citing_ids.filter(lambda c, cited=cited: c != cited))
        citations.append(CitationRecord(
            citing_pub=citing,
            cited_pub=cited,
            citing_authors=tuple(draw(st.lists(st.sampled_from(AUTHORS + ("z",)),
                                               max_size=3, unique=True))),
            citing_institutions=frozenset(draw(st.sets(
                st.sampled_from(institutions + ("Inst Z",))))),
            citing_indexed=draw(st.booleans()),
            mention_count=draw(st.integers(1, 3)),
        ))
    return CorpusBundle(tuple(publications), tuple(citations))


def scan_own(author, corpus):
    own = [p for p in corpus.publications if author in p.authors]
    if not own:
        raise NoPublicationsError(author)
    return own


def scan_close_associates(author, corpus):
    coauthors, institutions = set(), set()
    for p in scan_own(author, corpus):
        coauthors |= {x for x in p.authors if x != author}
        if p.institution_by_author.get(author):
            institutions.add(p.institution_by_author[author])
    return coauthors, institutions


def scan_filter_citations(author, corpus, cfg):
    """One pass over every link in corpus order, attributing each rejected
    unit to the first rule that matches."""
    by_id = {p.pub_id: p for p in corpus.publications}
    own = scan_own(author, corpus)
    coauthors, institutions = scan_close_associates(author, corpus)
    audits = {p.pub_id: FilterAudit(cited_pub=p.pub_id) for p in own}
    accepted_pairs = set()
    for link in corpus.citations:
        if link.cited_pub not in audits:
            continue
        audit, units = audits[link.cited_pub], link.mention_count
        citing_doc = by_id.get(link.citing_pub)
        citers = set(link.citing_authors)
        pair = (link.citing_pub, link.cited_pub)
        if cfg.require_indexed_source and not link.citing_indexed:
            audit._reject("indexed", units)
        elif cfg.exclude_flagged and citing_doc is not None and citing_doc.flags:
            audit._reject("flagged", units)
        else:
            if cfg.dedupe_per_document:
                audit._reject("dedupe", units - 1)
                units = 1
            if cfg.exclude_self and citers & set(by_id[link.cited_pub].authors):
                audit._reject("self", units)
            elif cfg.exclude_close_associates and (
                    citers & coauthors or link.citing_institutions & institutions):
                audit._reject("associate", units)
            elif cfg.one_per_author_per_source and pair in accepted_pairs:
                audit._reject("one_per_author", units)
            else:
                if cfg.one_per_author_per_source:
                    audit._reject("one_per_author", units - 1)
                    units = 1
                    accepted_pairs.add(pair)
                audit.accepted += units
    ordered = [audits[p.pub_id] for p in own]
    return sum(a.accepted for a in ordered), ordered


def all_configs():
    fields = sorted(FilterConfig.__dataclass_fields__)
    for bits in itertools.product([False, True], repeat=len(fields)):
        yield FilterConfig(**dict(zip(fields, bits)))


class TestIndexAgainstFullScan:
    @settings(max_examples=60, deadline=None)
    @given(small_bundles())
    def test_every_author_and_rule_subset(self, corpus):
        for author in AUTHORS:
            try:
                own = scan_own(author, corpus)
            except NoPublicationsError:
                with pytest.raises(NoPublicationsError):
                    filter_citations(author, corpus, FilterConfig())
                with pytest.raises(NoPublicationsError):
                    close_associates(author, corpus)
                with pytest.raises(EmptyPortfolioError):
                    compute_author_metrics(author, corpus)
                continue
            assert close_associates(author, corpus) == scan_close_associates(
                author, corpus)
            shares, role_fwci = build_role_profile(author, corpus.publications)
            k_r = role_dominance(shares, all(p.alphabetical_order for p in own))
            fwci = fwci_total(role_fwci) if role_fwci else None
            for cfg in all_configs():
                expected = scan_filter_citations(author, corpus, cfg)
                assert filter_citations(author, corpus, cfg) == expected
                cit, audits = expected
                metrics = compute_author_metrics(author, corpus, cfg)
                assert (metrics.doc, metrics.cit, metrics.h_index) == (
                    len(own), cit, h_index(a.accepted for a in audits))
                assert (metrics.k_r, metrics.fwci_total) == (k_r, fwci)
                assert metrics.k_exact == k_index(k_r, fwci, cit, len(own))[0]


class TestAssociateRule:
    """Citing authors are matched against the coauthors only, and citing
    institutions against the author's own institutions only, also when an
    author id is spelled like an institution name."""

    @settings(max_examples=60, deadline=None)
    @given(small_bundles(institutions=AUTHORS[:2]))
    def test_ids_and_names_are_never_compared(self, corpus):
        rule = config_with(exclude_close_associates=True)
        for author, own in corpus.publications_by_author.items():
            coauthors = {a for p in own for a in p.authors} - {author}
            names = {p.institution_by_author[author] for p in own
                     if author in p.institution_by_author}
            assert close_associates(author, corpus) == (coauthors, names)
            kept = sum(link.mention_count for link in corpus.citations
                       if link.cited_pub in {p.pub_id for p in own}
                       and not coauthors & set(link.citing_authors)
                       and not names & link.citing_institutions)
            assert filter_citations(author, corpus, rule)[0] == kept


def byline_roles(pub: PublicationRecord, position: int) -> set[Role]:
    """The roles of the author at ``position`` of the byline, read directly."""
    last = len(pub.authors) - 1
    if last == 0:
        roles = {Role.SA}
    else:
        roles = {Role.FA if position == 0 else Role.LA if position == last else Role.COA}
    if pub.authors[position] in pub.corresponding:
        roles.add(Role.CORA)
    return roles


class TestRoleRule:
    @settings(max_examples=60, deadline=None)
    @given(small_bundles())
    def test_classification_and_profile_follow_the_byline(self, corpus):
        assignments = {}
        for pub in corpus.publications:
            assignments[pub.pub_id] = classify_roles(pub)
            assert assignments[pub.pub_id] == {
                author: byline_roles(pub, i) for i, author in enumerate(pub.authors)}
        for author in corpus.publications_by_author:
            own = [p for p in corpus.publications if author in p.authors]
            held = {role: [p for p in own if role in assignments[p.pub_id][author]]
                    for role in Role}
            role_fwci = {}
            for role, pubs in held.items():
                values = [p.fwci for p in pubs if p.fwci is not None]
                if values:
                    role_fwci[role] = sum(values) / len(values)
            assert build_role_profile(author, corpus.publications) == (
                {role: len(pubs) / len(own) for role, pubs in held.items()},
                role_fwci,
            )
