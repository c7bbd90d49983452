"""Domain model: publications, citations and coauthorship roles.

The records and corpus bundles are immutable values. classify_roles (one
publication's roles, as a mapping from each byline author to a frozenset)
and build_role_profile (an author's role shares and per-role mean FWCI,
as two dicts) are pure functions, so they are safe to evaluate in
parallel across authors or publications.

PublicationRecord and CitationRecord are validated immutable tuples
(named-tuple subclasses), which are much cheaper to build than frozen
dataclasses. Their constructor checks the record rules; ``_replace`` and
``_make`` go through the same checks, so change a field with
``record._replace(...)``, not ``dataclasses.replace``. A record can be
iterated and indexed and compares equal to a plain tuple of the same
values.
"""

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

AuthorId = str


class Role(str, Enum):
    """Coauthorship role of an author within one publication."""

    FA = "FA"      # first author
    LA = "LA"      # last author
    COA = "CoA"    # middle coauthor (any position other than first/last)
    CORA = "CorA"  # corresponding author (overlays a positional role)
    SA = "SA"      # single author


# Canonical role order; also the numbering of the per-role FWCI slots 1..5.
ROLE_ORDER = (Role.FA, Role.LA, Role.COA, Role.CORA, Role.SA)


class PublicationFlag(str, Enum):
    ERRONEOUS = "ERRONEOUS"
    NONSCIENTIFIC = "NONSCIENTIFIC"


class MalformedRecordError(ValueError):
    """A record violates its structural invariants."""


class NoPublicationsError(LookupError):
    """The requested author has no publications in the corpus."""


class _PublicationFields(NamedTuple):
    pub_id: str
    year: int
    authors: tuple[AuthorId, ...]
    corresponding: frozenset[AuthorId]
    fwci: float | None
    alphabetical_order: bool
    flags: frozenset[PublicationFlag]
    institution_by_author: Mapping[AuthorId, str]


class _CitationFields(NamedTuple):
    citing_pub: str
    cited_pub: str
    citing_authors: tuple[AuthorId, ...]
    citing_institutions: frozenset[str]
    citing_indexed: bool
    mention_count: int


_tuple_new = tuple.__new__


def _checked_make(cls, iterable):
    """``_make``, and so ``_replace``, through the checking constructor."""
    return cls(*iterable)


class PublicationRecord(_PublicationFields):
    """One indexed publication.

    ``authors`` preserves byline order (position 1 = first author).
    ``fwci`` is the publication's field-weighted citation impact, or None
    when the source database reports none. ``institution_by_author`` left
    out or None gives a new empty dict. Construction raises MalformedRecordError
    for a record breaking the rules of docs/formats.md.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(
        cls,
        pub_id: str,
        year: int,
        authors: tuple[AuthorId, ...],
        corresponding: frozenset[AuthorId] = frozenset(),
        fwci: float | None = None,
        alphabetical_order: bool = False,
        flags: frozenset[PublicationFlag] = frozenset(),
        institution_by_author: Mapping[AuthorId, str] | None = None,
    ) -> "PublicationRecord":
        if not pub_id:
            raise MalformedRecordError("publication has empty pub_id")
        if not authors:
            raise MalformedRecordError(f"publication {pub_id!r} has no authors")
        byline = set(authors)
        if len(byline) != len(authors):
            raise MalformedRecordError(
                f"publication {pub_id!r} has a duplicate author in the byline"
            )
        if not corresponding <= byline:
            raise MalformedRecordError(
                f"publication {pub_id!r}: corresponding authors "
                f"{sorted(corresponding - byline)} are not in the byline"
            )
        if fwci is not None:
            if fwci < 0:
                raise MalformedRecordError(
                    f"publication {pub_id!r} has negative fwci {fwci}"
                )
            if not math.isfinite(fwci):
                raise MalformedRecordError(
                    f"publication {pub_id!r} has non-finite fwci {fwci}"
                )
        if institution_by_author is None:
            institution_by_author = {}
        elif not institution_by_author.keys() <= byline:
            raise MalformedRecordError(
                f"publication {pub_id!r}: institutions listed for "
                f"non-authors {sorted(institution_by_author.keys() - byline)}"
            )
        return _tuple_new(cls, (
            pub_id, year, authors, corresponding, fwci, alphabetical_order, flags,
            institution_by_author,
        ))


class CitationRecord(_CitationFields):
    """One citing-document -> cited-document link.

    The citing document may be external to the corpus, so its authors,
    institutions and indexing status are carried inline. ``mention_count``
    is how many times the cited work is referenced within the citing
    document. Construction raises MalformedRecordError for an empty
    ``citing_pub``, a self-citation or a ``mention_count`` below 1.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(
        cls,
        citing_pub: str,
        cited_pub: str,
        citing_authors: tuple[AuthorId, ...] = (),
        citing_institutions: frozenset[str] = frozenset(),
        citing_indexed: bool = True,
        mention_count: int = 1,
    ) -> "CitationRecord":
        if not citing_pub:
            raise MalformedRecordError("citation has empty citing_pub")
        if citing_pub == cited_pub:
            raise MalformedRecordError(f"citation of {cited_pub!r} cites itself")
        if mention_count < 1:
            raise MalformedRecordError(
                f"citation {citing_pub!r} -> {cited_pub!r} has "
                f"mention_count {mention_count}"
            )
        return _tuple_new(cls, (
            citing_pub, cited_pub, citing_authors, citing_institutions, citing_indexed,
            mention_count,
        ))


@dataclass(frozen=True)
class CorpusBundle:
    """A parsed corpus: publications plus the citation links between them.

    Every ``cited_pub`` resolves to a publication in the bundle; citing
    documents may be external. ``pub_ids`` are unique. The parser checks
    both; nothing here rechecks them, so a bundle built by hand must keep
    them.

    The lookup maps below are built once, on first use, and shared by
    every reader of the bundle; callers must not modify them.
    """

    publications: tuple[PublicationRecord, ...]
    citations: tuple[CitationRecord, ...] = ()

    @cached_property
    def _by_id(self) -> dict[str, PublicationRecord]:
        return {p.pub_id: p for p in self.publications}

    @cached_property
    def publications_by_author(self) -> dict[AuthorId, tuple[PublicationRecord, ...]]:
        """Each author's publications, in corpus order."""
        by_author: dict[AuthorId, list[PublicationRecord]] = {}
        for pub in self.publications:
            for author in pub.authors:
                by_author.setdefault(author, []).append(pub)
        return {author: tuple(pubs) for author, pubs in by_author.items()}

    @cached_property
    def citations_by_cited(self) -> dict[str, tuple[CitationRecord, ...]]:
        """Incoming citation links of each cited publication, in corpus order."""
        by_cited: dict[str, list[CitationRecord]] = {}
        for link in self.citations:
            by_cited.setdefault(link.cited_pub, []).append(link)
        return {pub_id: tuple(links) for pub_id, links in by_cited.items()}

    def publications_by_id(self) -> dict[str, PublicationRecord]:
        return self._by_id

    def authored(self, author: AuthorId) -> tuple[PublicationRecord, ...]:
        """The author's publications in corpus order; NoPublicationsError if none."""
        if author not in self.publications_by_author:
            raise NoPublicationsError(f"author {author!r} has no publications in corpus")
        return self.publications_by_author[author]


def _roles_in(pub: PublicationRecord, author: AuthorId) -> tuple[Role, ...]:
    """The roles ``author`` holds in ``pub``; ``author`` must be in the byline.

    Sole author -> SA. Otherwise the first byline position is FA, the last
    is LA and everyone in between is CoA (a two-author paper has no CoA).
    Corresponding authorship is added on top of the positional role.
    """
    if len(pub.authors) == 1:
        position = Role.SA
    elif author == pub.authors[0]:
        position = Role.FA
    elif author == pub.authors[-1]:
        position = Role.LA
    else:
        position = Role.COA
    return (position, Role.CORA) if author in pub.corresponding else (position,)


def classify_roles(pub: PublicationRecord) -> dict[AuthorId, frozenset[Role]]:
    """The roles each byline author holds in ``pub`` (the rule of ``_roles_in``)."""
    return {a: frozenset(_roles_in(pub, a)) for a in pub.authors}


def build_role_profile(
    author: AuthorId, corpus: Iterable[PublicationRecord]
) -> tuple[dict[Role, float], dict[Role, float]]:
    """``(shares, role_fwci)`` of the author over a corpus.

    ``shares[r]`` is the fraction of the author's publications in which
    role ``r`` is held. The positional shares (FA, LA, CoA, SA) sum to 1;
    CorA overlays them, so the total over all five roles may exceed 1.
    ``role_fwci`` holds the mean FWCI over the publications held in that
    role, counting only publications that carry an FWCI value; roles with
    no such publication have no entry.
    """
    own = [p for p in corpus if author in p.authors]
    if not own:
        raise NoPublicationsError(f"author {author!r} has no publications in corpus")

    held: dict[Role, list[float | None]] = {r: [] for r in ROLE_ORDER}
    for pub in own:
        for role in _roles_in(pub, author):
            held[role].append(pub.fwci)

    shares = {r: len(held[r]) / len(own) for r in ROLE_ORDER}
    role_fwci: dict[Role, float] = {}
    for role in ROLE_ORDER:
        values = [v for v in held[role] if v is not None]
        if values:
            # The plain mean whenever its sum is finite (results stay
            # bit-identical); else divide first, so huge values keep a finite mean.
            total, n = sum(values), len(values)
            role_fwci[role] = total / n if math.isfinite(total) else sum(v / n for v in values)
    return shares, role_fwci
