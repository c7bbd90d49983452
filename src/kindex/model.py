"""Domain model: publications, citations and coauthorship roles.

Everything here is an immutable value object; the two operations
(classify_roles, build_role_profile) are pure functions, so they are safe
to evaluate in parallel across authors or publications.
"""

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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


class VenueTier(str, Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"
    BOOK = "BOOK"
    UNRANKED = "UNRANKED"


class PublicationFlag(str, Enum):
    ERRONEOUS = "ERRONEOUS"
    NONSCIENTIFIC = "NONSCIENTIFIC"


class MalformedRecordError(ValueError):
    """A record violates its structural invariants."""


class NoPublicationsError(LookupError):
    """The requested author has no publications in the corpus."""


@dataclass(frozen=True, eq=True, slots=True)
class PublicationRecord:
    """One indexed publication.

    ``authors`` preserves byline order (position 1 = first author).
    ``fwci`` is the publication's field-weighted citation impact, or None
    when the source database reports none. Construction raises
    MalformedRecordError for a record breaking the rules of docs/formats.md.
    """

    pub_id: str
    year: int
    authors: tuple[AuthorId, ...]
    corresponding: frozenset[AuthorId] = frozenset()
    venue_tier: VenueTier = VenueTier.UNRANKED
    fwci: float | None = None
    indexed: bool = True
    alphabetical_order: bool = False
    flags: frozenset[PublicationFlag] = frozenset()
    institution_by_author: Mapping[AuthorId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.pub_id:
            raise MalformedRecordError("publication has empty pub_id")
        if not self.authors:
            raise MalformedRecordError(f"publication {self.pub_id!r} has no authors")
        byline = set(self.authors)
        if len(byline) != len(self.authors):
            raise MalformedRecordError(
                f"publication {self.pub_id!r} has a duplicate author in the byline"
            )
        if not self.corresponding <= byline:
            raise MalformedRecordError(
                f"publication {self.pub_id!r}: corresponding authors "
                f"{sorted(self.corresponding - byline)} are not in the byline"
            )
        if self.fwci is not None and self.fwci < 0:
            raise MalformedRecordError(
                f"publication {self.pub_id!r} has negative fwci {self.fwci}"
            )
        if self.fwci is not None and not math.isfinite(self.fwci):
            raise MalformedRecordError(
                f"publication {self.pub_id!r} has non-finite fwci {self.fwci}"
            )
        if not self.institution_by_author.keys() <= byline:
            raise MalformedRecordError(
                f"publication {self.pub_id!r}: institutions listed for "
                f"non-authors {sorted(self.institution_by_author.keys() - byline)}"
            )


@dataclass(frozen=True, eq=True, slots=True)
class CitationRecord:
    """One citing-document -> cited-document link.

    The citing document may be external to the corpus, so its authors,
    institutions and indexing status are carried inline. ``mention_count``
    is how many times the cited work is referenced within the citing
    document. Construction raises MalformedRecordError for a self-citation
    or a ``mention_count`` below 1.
    """

    citing_pub: str
    cited_pub: str
    citing_authors: tuple[AuthorId, ...] = ()
    citing_institutions: frozenset[str] = frozenset()
    citing_indexed: bool = True
    mention_count: int = 1

    def __post_init__(self) -> None:
        if self.citing_pub == self.cited_pub:
            raise MalformedRecordError(
                f"citation of {self.cited_pub!r} cites itself"
            )
        if self.mention_count < 1:
            raise MalformedRecordError(
                f"citation {self.citing_pub!r} -> {self.cited_pub!r} has "
                f"mention_count {self.mention_count}"
            )


@dataclass(frozen=True)
class RoleAssignment:
    """Roles held by each author of one publication."""

    publication: str
    roles: Mapping[AuthorId, frozenset[Role]]


@dataclass(frozen=True)
class RoleProfile:
    """Per-author role shares and per-role mean FWCI.

    ``shares[r]`` is the fraction of the author's publications in which
    role ``r`` is held. The positional shares (FA, LA, CoA, SA) sum to 1;
    CorA overlays them, so the total over all five roles may exceed 1.
    ``role_fwci`` holds the mean FWCI over the publications held in that
    role, counting only publications that carry an FWCI value; roles with
    no such publication have no entry.
    """

    author: AuthorId
    shares: Mapping[Role, float]
    role_fwci: Mapping[Role, float]


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


def classify_roles(pub: PublicationRecord) -> RoleAssignment:
    """Assign coauthorship roles from the byline.

    Sole author -> SA. Otherwise the first byline position is FA, the last
    is LA and everyone in between is CoA (a two-author paper has no CoA).
    Corresponding authorship is added on top of the positional role.
    """
    roles: dict[AuthorId, set[Role]] = {a: set() for a in pub.authors}
    if len(pub.authors) == 1:
        roles[pub.authors[0]].add(Role.SA)
    else:
        roles[pub.authors[0]].add(Role.FA)
        roles[pub.authors[-1]].add(Role.LA)
        for middle in pub.authors[1:-1]:
            roles[middle].add(Role.COA)
    for author in pub.corresponding:
        roles[author].add(Role.CORA)
    return RoleAssignment(
        publication=pub.pub_id,
        roles={a: frozenset(r) for a, r in roles.items()},
    )


def build_role_profile(
    author: AuthorId, corpus: Iterable[PublicationRecord]
) -> RoleProfile:
    """Compute the author's role shares and per-role mean FWCI over a corpus."""
    own = [p for p in corpus if author in p.authors]
    if not own:
        raise NoPublicationsError(f"author {author!r} has no publications in corpus")

    held: dict[Role, list[PublicationRecord]] = {r: [] for r in ROLE_ORDER}
    for pub in own:
        assignment = classify_roles(pub)
        for role in assignment.roles[author]:
            held[role].append(pub)

    shares = {r: len(held[r]) / len(own) for r in ROLE_ORDER}
    role_fwci: dict[Role, float] = {}
    for role in ROLE_ORDER:
        values = [p.fwci for p in held[role] if p.fwci is not None]
        if values:
            role_fwci[role] = sum(values) / len(values)
    return RoleProfile(author=author, shares=shares, role_fwci=role_fwci)
