import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from kindex import (
    CitationRecord,
    MalformedRecordError,
    NoPublicationsError,
    ParseError,
    PublicationFlag,
    PublicationRecord,
    Role,
    build_role_profile,
    classify_roles,
    parse_publications,
)


def pub(pub_id, authors, corresponding=(), fwci=None, **kwargs):
    return PublicationRecord(
        pub_id=pub_id,
        year=2020,
        authors=tuple(authors),
        corresponding=frozenset(corresponding),
        fwci=fwci,
        **kwargs,
    )


class TestClassifyRoles:
    def test_single_author_is_sa(self):
        roles = classify_roles(pub("p", ["A"]))
        assert roles == {"A": frozenset({Role.SA})}

    def test_single_author_keeps_corresponding(self):
        roles = classify_roles(pub("p", ["A"], corresponding=["A"]))
        assert roles["A"] == {Role.SA, Role.CORA}

    def test_four_authors_with_corresponding_middle(self):
        roles = classify_roles(pub("p", "ABCD", corresponding=["B"]))
        assert roles["A"] == {Role.FA}
        assert roles["B"] == {Role.COA, Role.CORA}
        assert roles["C"] == {Role.COA}
        assert roles["D"] == {Role.LA}

    def test_two_authors_have_no_middle(self):
        roles = classify_roles(pub("p", "AB"))
        assert roles == {"A": frozenset({Role.FA}), "B": frozenset({Role.LA})}

    def test_duplicate_author_rejected(self):
        with pytest.raises(MalformedRecordError):
            PublicationRecord(pub_id="p", year=2020, authors=("A", "A"))

    def test_positional_role_counts(self):
        # any byline with n >= 2: exactly one FA, one LA, n-2 CoA, no SA
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 12)
            authors = [f"a{i}" for i in range(n)]
            roles = classify_roles(pub("p", authors))
            flat = [r for rs in roles.values() for r in rs]
            assert flat.count(Role.FA) == 1
            assert flat.count(Role.LA) == 1
            assert flat.count(Role.COA) == n - 2
            assert Role.SA not in flat

    def test_pure_function(self):
        record = pub("p", "ABC", corresponding=["C"])
        assert classify_roles(record) == classify_roles(record)


class TestBuildRoleProfile:
    def test_share_is_count_ratio(self):
        corpus = [
            pub("p1", ["x", "y"]),        # x FA
            pub("p2", ["y", "x"]),        # x LA
            pub("p3", ["y", "x", "z"]),   # x CoA
            pub("p4", ["z", "x"]),        # x LA
        ]
        shares, _ = build_role_profile("x", corpus)
        assert shares[Role.FA] == 0.25

    def test_role_fwci_is_mean_over_role(self):
        corpus = [
            pub("p1", ["y", "x"], fwci=1.0),
            pub("p2", ["z", "x"], fwci=3.0),
        ]
        _, role_fwci = build_role_profile("x", corpus)
        assert role_fwci[Role.LA] == 2.0

    def test_missing_fwci_counts_for_share_not_for_mean(self):
        corpus = [
            pub("p1", ["x", "y"], fwci=2.0),
            pub("p2", ["x", "z"]),  # no fwci value
        ]
        shares, role_fwci = build_role_profile("x", corpus)
        assert shares[Role.FA] == 1.0
        assert role_fwci[Role.FA] == 2.0

    def test_role_without_fwci_data_has_no_entry(self):
        _, role_fwci = build_role_profile("x", [pub("p1", ["x", "y"])])
        assert Role.FA not in role_fwci

    def test_unknown_author_rejected(self):
        with pytest.raises(NoPublicationsError):
            build_role_profile("ghost", [pub("p1", ["x"])])

    def test_ten_publication_corpus_against_hand_enumeration(self):
        # oracle: read x's role straight off each byline, independently of
        # classify_roles
        corpus = [
            pub("p1", ["x"], corresponding=["x"], fwci=1.5),
            pub("p2", ["x", "a"], fwci=2.0),
            pub("p3", ["a", "x"], fwci=0.5),
            pub("p4", ["a", "x", "b"], corresponding=["x"]),
            pub("p5", ["x", "a", "b"], fwci=4.0),
            pub("p6", ["b", "a", "x"], fwci=1.0),
            pub("p7", ["x"], fwci=3.5),
            pub("p8", ["a", "b", "x", "c"], corresponding=["x"], fwci=2.5),
            pub("p9", ["c", "x", "a"]),
            pub("p10", ["x", "c"], corresponding=["c"], fwci=0.0),
        ]
        counts = {r: 0 for r in Role}
        fwci_values = {r: [] for r in Role}
        for p in corpus:
            if len(p.authors) == 1:
                role = Role.SA
            elif p.authors[0] == "x":
                role = Role.FA
            elif p.authors[-1] == "x":
                role = Role.LA
            else:
                role = Role.COA
            counts[role] += 1
            if p.fwci is not None:
                fwci_values[role].append(p.fwci)
            if "x" in p.corresponding:
                counts[Role.CORA] += 1
                if p.fwci is not None:
                    fwci_values[Role.CORA].append(p.fwci)

        shares, role_fwci = build_role_profile("x", corpus)
        for role in Role:
            assert shares[role] == pytest.approx(counts[role] / 10)
            if fwci_values[role]:
                expected = sum(fwci_values[role]) / len(fwci_values[role])
                assert role_fwci[role] == pytest.approx(expected)
            else:
                assert role not in role_fwci

    def test_positional_shares_sum_to_one(self):
        rng = random.Random(11)
        for trial in range(30):
            corpus = []
            for i in range(rng.randint(1, 15)):
                n = rng.randint(1, 6)
                others = [f"o{trial}_{i}_{j}" for j in range(n - 1)]
                authors = others + ["x"]
                rng.shuffle(authors)
                corpus.append(pub(f"p{i}", authors))
            shares, _ = build_role_profile("x", corpus)
            positional = (
                shares[Role.FA] + shares[Role.LA]
                + shares[Role.COA] + shares[Role.SA]
            )
            assert positional == pytest.approx(1.0, abs=1e-12)


class TestRecordValidation:
    def test_empty_byline_rejected(self):
        with pytest.raises(MalformedRecordError):
            PublicationRecord(pub_id="p", year=2020, authors=())

    def test_corresponding_outside_byline_rejected(self):
        with pytest.raises(MalformedRecordError):
            pub("p", "AB", corresponding=["Z"])

    def test_negative_fwci_rejected(self):
        with pytest.raises(MalformedRecordError):
            pub("p", "AB", fwci=-0.5)


def _pub(**overrides):
    fields = {"pub_id": "p", "year": 2020, "authors": ("A", "B")} | overrides
    return lambda: PublicationRecord(**fields)


def _cite(**overrides):
    fields = {"citing_pub": "q", "cited_pub": "p"} | overrides
    return lambda: CitationRecord(**fields)


PUB_LINE = "type=pub\tpub_id=p\tyear=2020\tauthors=A,B"
CITE_LINE = PUB_LINE + "\ntype=cite\tcited_pub=p"

# One case per documented record rule: the record built directly, the same
# record as a corpus file, and the message both report.
VIOLATIONS = {
    "empty pub_id": (
        _pub(pub_id=""), "type=pub\tpub_id=\tyear=2020\tauthors=A,B",
        "publication has empty pub_id"),
    "empty byline": (
        _pub(authors=()), "type=pub\tpub_id=p\tyear=2020\tauthors=",
        "publication 'p' has no authors"),
    "duplicate byline": (
        _pub(authors=("A", "B", "A")), "type=pub\tpub_id=p\tyear=2020\tauthors=A,B,A",
        "publication 'p' has a duplicate author in the byline"),
    "corresponding outside byline": (
        _pub(corresponding=frozenset({"Z", "A"})), PUB_LINE + "\tcorresponding=Z,A",
        "publication 'p': corresponding authors ['Z'] are not in the byline"),
    "negative fwci": (
        _pub(fwci=-0.5), PUB_LINE + "\tfwci=-0.5",
        "publication 'p' has negative fwci -0.5"),
    "infinite fwci": (
        _pub(fwci=math.inf), PUB_LINE + "\tfwci=inf",
        "publication 'p' has non-finite fwci inf"),
    "nan fwci": (
        _pub(fwci=math.nan), PUB_LINE + "\tfwci=nan",
        "publication 'p' has non-finite fwci nan"),
    "institution of a non-author": (
        _pub(institution_by_author={"A": "X", "Z": "Y"}), PUB_LINE + "\tinstitutions=A:X,Z:Y",
        "publication 'p': institutions listed for non-authors ['Z']"),
    "self-citation": (
        _cite(citing_pub="p"), CITE_LINE + "\tciting_pub=p",
        "citation of 'p' cites itself"),
    "zero mentions": (
        _cite(mention_count=0), CITE_LINE + "\tciting_pub=q\tmentions=0",
        "citation 'q' -> 'p' has mention_count 0"),
}


class TestConstructionChecks:
    """A record that exists satisfies the corpus rules: construction runs
    the only check, and the parser reports its message unchanged."""

    @pytest.mark.parametrize("build,text,message", VIOLATIONS.values(), ids=VIOLATIONS.keys())
    def test_violation_raises_the_parser_message(self, build, text, message):
        with pytest.raises(MalformedRecordError) as err:
            build()
        assert str(err.value) == message
        with pytest.raises(ParseError) as parsed:
            parse_publications(text)
        line_no = text.count("\n") + 1
        assert [str(issue) for issue in parsed.value.issues] == [f"line {line_no}: {message}"]

    def test_valid_records_construct(self):
        assert _pub(corresponding=frozenset({"A"}), fwci=0.0)().authors == ("A", "B")
        assert _cite(mention_count=2)().mention_count == 2


# Field names in constructor order, as the records have always had them.
PUB_FIELDS = ("pub_id", "year", "authors", "corresponding", "fwci", "alphabetical_order",
              "flags", "institution_by_author")
CITE_FIELDS = ("citing_pub", "cited_pub", "citing_authors", "citing_institutions",
               "citing_indexed", "mention_count")
_NAMES = st.text("abé :#", min_size=1, max_size=4)  # never "Z", the name no record holds


@st.composite
def _publications(draw):
    authors = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    return PublicationRecord(
        draw(_NAMES), draw(st.integers(-10**6, 10**6)), tuple(authors),
        frozenset(draw(st.lists(st.sampled_from(authors), max_size=2))),
        draw(st.none() | st.floats(0, allow_infinity=False)), draw(st.booleans()),
        frozenset(draw(st.lists(st.sampled_from(PublicationFlag), max_size=2))),
        draw(st.dictionaries(st.sampled_from(authors), _NAMES, max_size=3)),
    )


@st.composite
def _citations(draw):
    cited = draw(_NAMES)
    return CitationRecord(
        draw(_NAMES.filter(lambda s: s != cited)), cited,
        tuple(draw(st.lists(_NAMES, max_size=3))), frozenset(draw(st.lists(_NAMES, max_size=3))),
        draw(st.booleans()), draw(st.integers(1, 10**30)),
    )


_records = st.one_of(_publications(), _citations())

# Per record type, values that break one rule each.
_BREAKING = {
    PublicationRecord: [
        {"pub_id": ""}, {"authors": ()}, {"authors": ("Z", "Z")},
        {"corresponding": frozenset({"Z"})}, {"fwci": -0.5}, {"fwci": math.inf},
        {"fwci": math.nan}, {"institution_by_author": {"Z": "X"}},
    ],
    CitationRecord: [{"mention_count": 0}, {"mention_count": -3}, {"citing_pub": "Z",
                                                                   "cited_pub": "Z"}],
}


def _fields(record):
    return PUB_FIELDS if isinstance(record, PublicationRecord) else CITE_FIELDS


class TestRecordContract:
    """Records are validated immutable tuples that keep the behaviour the
    frozen dataclasses had: value equality, pickling, copying, repr."""

    @settings(max_examples=200, deadline=None)
    @given(_records)
    def test_pickle_and_copy_give_an_equal_record(self, record):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert twin == record and type(twin) is type(record)

    @settings(max_examples=200, deadline=None)
    @given(_records)
    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in _fields(record))
        assert repr(record) == f"{type(record).__name__}({fields})"

    @settings(max_examples=100, deadline=None)
    @given(_records)
    def test_fields_cannot_be_assigned(self, record):
        for name in (*_fields(record), "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))

    @settings(max_examples=200, deadline=None)
    @given(_citations())
    def test_equal_citations_hash_equal(self, record):
        twin = CitationRecord(*(copy.copy(value) for value in record))
        assert twin == record and hash(twin) == hash(record)

    def test_default_institutions_are_a_new_dict_per_record(self):
        first, second = _pub()(), _pub()()
        assert first.institution_by_author == {} == second.institution_by_author
        assert type(first.institution_by_author) is dict
        assert first.institution_by_author is not second.institution_by_author

    @settings(max_examples=200, deadline=None)
    @given(_records, st.data())
    def test_replace_and_make_run_the_constructor_checks(self, record, data):
        change = data.draw(st.sampled_from(_BREAKING[type(record)]))
        with pytest.raises(MalformedRecordError) as built:
            type(record)(**(record._asdict() | change))
        broken = [change.get(name, value) for name, value in zip(_fields(record), record)]
        for attempt in (lambda: record._replace(**change), lambda: type(record)._make(broken)):
            with pytest.raises(MalformedRecordError) as err:
                attempt()
            assert str(err.value) == str(built.value)
