"""Citation-validity filtering.

Six independent switches decide which incoming citations count toward an
author's CIT total. A citation link with mention_count m contributes m
"mention units" before filtering; the rules below reject units, and the
audit accounts for every unit (accepted + rejected == inspected).

Rules, in the fixed order they are applied (cheapest test first; the
surviving count does not depend on the order, only the audit attribution
does):

  indexed         drop links whose citing document is not indexed
  flagged         drop links whose citing document carries an
                  ERRONEOUS/NONSCIENTIFIC flag (known only for citing
                  documents present in the corpus)
  dedupe          collapse repeated mentions within one citing document
  self            drop links from documents sharing an author with the
                  cited publication
  associate       drop links from close associates of the target author
                  (current/former coauthors, or the author's institutions)
  one_per_author  at most one accepted unit per (citing document, cited
                  publication) pair
"""

from collections.abc import Mapping
from dataclasses import dataclass, field

from .model import AuthorId, CorpusBundle

RULE_INDEXED = "indexed"
RULE_FLAGGED = "flagged"
RULE_DEDUPE = "dedupe"
RULE_SELF = "self"
RULE_ASSOCIATE = "associate"
RULE_ONE_PER_AUTHOR = "one_per_author"

RULE_ORDER = (
    RULE_INDEXED,
    RULE_FLAGGED,
    RULE_DEDUPE,
    RULE_SELF,
    RULE_ASSOCIATE,
    RULE_ONE_PER_AUTHOR,
)


@dataclass(frozen=True)
class FilterConfig:
    """On/off switches for the six citation-validity rules. All default on."""

    require_indexed_source: bool = True
    exclude_flagged: bool = True
    dedupe_per_document: bool = True
    exclude_self: bool = True
    exclude_close_associates: bool = True
    one_per_author_per_source: bool = True

    @classmethod
    def all_off(cls) -> "FilterConfig":
        return cls(False, False, False, False, False, False)


@dataclass
class FilterAudit:
    """Accounting for one cited publication: accepted units plus rejected
    units attributed to the first rule that matched."""

    cited_pub: str
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def inspected(self) -> int:
        return self.accepted + sum(self.rejected.values())

    def _reject(self, rule: str, units: int) -> None:
        if units:
            self.rejected[rule] = self.rejected.get(rule, 0) + units


def close_associates(author: AuthorId, corpus: CorpusBundle) -> frozenset[str]:
    """Coauthors of ``author`` across the corpus, plus the author's own
    institution strings. The author themself is not included."""
    associates: set[str] = set()
    for pub in corpus.authored(author):
        associates.update(a for a in pub.authors if a != author)
        inst = pub.institution_by_author.get(author)
        if inst:
            associates.add(inst)
    return frozenset(associates)


def filter_citations(
    target_author: AuthorId, corpus: CorpusBundle, cfg: FilterConfig
) -> tuple[int, list[FilterAudit]]:
    """Count the valid citations of all of ``target_author``'s publications.

    Returns the total accepted mention units and one audit per publication
    of the author (publications without incoming links get an empty audit,
    which keeps them visible to H-index computation).
    """
    by_id = corpus.publications_by_id()
    own = corpus.authored(target_author)
    associates = (
        close_associates(target_author, corpus)
        if cfg.exclude_close_associates
        else frozenset()
    )

    audits: list[FilterAudit] = []
    total = 0
    # Each rule depends only on a link and its cited publication, so the
    # links are visited one cited publication at a time.
    for cited in own:
        audit = FilterAudit(cited_pub=cited.pub_id)
        audits.append(audit)
        byline = frozenset(cited.authors)
        accepted_from: set[str] = set()  # citing documents already counted
        for link in corpus.citations_by_cited.get(cited.pub_id, ()):
            units = link.mention_count

            if cfg.require_indexed_source and not link.citing_indexed:
                audit._reject(RULE_INDEXED, units)
                continue
            citing_doc = by_id.get(link.citing_pub)
            if cfg.exclude_flagged and citing_doc is not None and citing_doc.flags:
                audit._reject(RULE_FLAGGED, units)
                continue
            if cfg.dedupe_per_document and units > 1:
                audit._reject(RULE_DEDUPE, units - 1)
                units = 1
            if cfg.exclude_self and not byline.isdisjoint(link.citing_authors):
                audit._reject(RULE_SELF, units)
                continue
            if cfg.exclude_close_associates and not (
                associates.isdisjoint(link.citing_authors)
                and associates.isdisjoint(link.citing_institutions)
            ):
                audit._reject(RULE_ASSOCIATE, units)
                continue
            if cfg.one_per_author_per_source:
                if link.citing_pub in accepted_from:
                    audit._reject(RULE_ONE_PER_AUTHOR, units)
                    continue
                if units > 1:
                    audit._reject(RULE_ONE_PER_AUTHOR, units - 1)
                    units = 1
                accepted_from.add(link.citing_pub)
            audit.accepted += units
        total += audit.accepted
    return total, audits


def audit_export(audits: list[FilterAudit]) -> str:
    """Render audits as delimited text: one ``cited_pub<TAB>rule<TAB>count``
    line per entry, with ``accepted`` as a pseudo-rule, sorted for
    deterministic output."""
    lines = []
    for audit in sorted(audits, key=lambda a: a.cited_pub):
        lines.append(f"{audit.cited_pub}\taccepted\t{audit.accepted}")
        for rule in RULE_ORDER:
            if rule in audit.rejected:
                lines.append(f"{audit.cited_pub}\t{rule}\t{audit.rejected[rule]}")
    return "\n".join(lines) + ("\n" if lines else "")
