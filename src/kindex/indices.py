"""Indicator formulas: H-index, CIT/DOC, role dominance, FWCI totals and
the aggregate K-index.

The K-index of an author is

    K = k_r * FWCI + CIT/DOC

where k_r rewards the winning role functions (first, corresponding and
single authorship) over the losing ones (middle coauthorship and last
authorship):

    k_r = (1 + FA + CorA + SA) / (1 + CoA + LA)

with the role shares entering as fractions of 1. FWCI is the sum of the
author's per-role mean FWCI values over all five role slots. K is
displayed as the nearest integer (ties round away from zero). The
integrated form adds externally supplied patent-activity and
commercialization components: K_i = K + K_p + K_c.
"""

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .filtering import FilterConfig, filter_citations
from .ingest import AuthorSummaryRow
from .model import AuthorId, CorpusBundle, NoPublicationsError, Role, ROLE_ORDER, build_role_profile

WINNING_ROLES = (Role.FA, Role.CORA, Role.SA)
LOSING_ROLES = (Role.COA, Role.LA)
# The default of each role slot, for ``sum(map(mapping.get, roles, _ZEROS))``.
_ZEROS = (0.0,) * len(ROLE_ORDER)


class EmptyPortfolioError(ValueError):
    """CIT/DOC is undefined for an author with zero publications."""


class NonFiniteIndexError(ValueError):
    """An indicator is too large to be represented as a float."""


@dataclass(frozen=True)
class AuthorMetrics:
    """The full indicator bundle for one author."""

    author: AuthorId
    display_name: str
    doc: int
    cit: int
    cit_per_doc: float
    h_index: int | None
    k_r: float | None
    fwci_total: float | None
    k_exact: float
    k_display: int
    k_p: float = 0.0
    k_c: float = 0.0

    @property
    def k_integrated(self) -> float:
        """K_i = K + K_p + K_c; set the parts with ``dataclasses.replace``."""
        return self.k_exact + self.k_p + self.k_c


def round_half_away(value: float) -> int:
    """Round to the nearest integer with ties going away from zero.

    The fraction is compared, not ``value + 0.5`` floored: that sum is
    itself rounded, up to the next integer for 0.49999999999999994 and for
    odd integers between 2**52 and 2**53. ``magnitude - whole`` is exact."""
    magnitude = abs(value)
    whole = math.floor(magnitude)
    rounded = whole + (magnitude - whole >= 0.5)
    return rounded if value >= 0 else -rounded


def h_index(citation_counts: Iterable[int]) -> int:
    """Largest h such that at least h entries are >= h."""
    h = 0
    for count in sorted(citation_counts, reverse=True):
        if count <= h:
            break
        h += 1
    return h


def cit_per_doc(cit: int, doc: int) -> float:
    """Citations per publication; undefined (never silently 0) for doc == 0."""
    if doc < 1:
        raise EmptyPortfolioError("CIT/DOC requires at least one publication")
    try:
        return cit / doc
    except OverflowError:
        raise NonFiniteIndexError("CIT/DOC is too large for a float") from None


def role_dominance(
    shares: Mapping[Role, float], alphabetical: bool = False
) -> float:
    """Role dominance coefficient from role shares (fractions of 1).

    Missing shares count as 0. When the author's field lists authors
    alphabetically the positional roles carry no signal, so the
    coefficient is taken as exactly 1.
    """
    if alphabetical:
        return 1.0
    winning = sum(map(shares.get, WINNING_ROLES, _ZEROS))
    losing = sum(map(shares.get, LOSING_ROLES, _ZEROS))
    return (1.0 + winning) / (1.0 + losing)


def fwci_total(role_fwci: Mapping[Role, float]) -> float:
    """Sum of the per-role mean FWCI values over all five role slots;
    missing slots contribute 0."""
    return sum(map(role_fwci.get, ROLE_ORDER, _ZEROS))


def k_index(
    k_r: float | None,
    fwci: float | None,
    cit: int,
    doc: int,
) -> tuple[float, int]:
    """Aggregate index K = k_r * FWCI + CIT/DOC.

    A missing role-dominance coefficient defaults to 1 and a missing FWCI
    total to 0. Returns (exact value, displayed integer); raises
    NonFiniteIndexError when K is too large for a float.
    """
    exact = (1.0 if k_r is None else k_r) * (0.0 if fwci is None else fwci)
    exact += cit_per_doc(cit, doc)
    if not math.isfinite(exact):
        raise NonFiniteIndexError("K-index is too large for a float")
    return exact, round_half_away(exact)


def ringelmann_share(n_coauthors: int) -> float:
    """Modeled average individual contribution (percent) among n coauthors:
    100 - 7*(n - 1), clamped at 0 for large groups."""
    if n_coauthors < 1:
        raise ValueError("coauthor count must be at least 1")
    return max(0.0, 100.0 - 7.0 * (n_coauthors - 1))


def _author_metrics(
    author: AuthorId, name: str, doc: int, cit: int, h: int | None,
    k_r: float | None, role_fwci: Mapping[Role, float],
) -> AuthorMetrics:
    """The indicator bundle from its inputs; the FWCI total (absent without
    per-role values), K and CIT/DOC are derived here."""
    fwci = fwci_total(role_fwci) if role_fwci else None
    try:
        if fwci == math.inf:
            # K can still be finite when k_r < 1: sum the FWCI values at 1/8 scale.
            eighth = sum(v / 8 for v in role_fwci.values())
            if math.isfinite((1.0 if k_r is None else k_r) * eighth * 8 + cit_per_doc(cit, doc)):
                raise NonFiniteIndexError("FWCI total is too large for a float")
        k_exact, k_display = k_index(k_r, fwci, cit, doc)
    except NonFiniteIndexError as exc:
        raise NonFiniteIndexError(f"author {author!r}: {exc}") from None
    return AuthorMetrics(
        author, name, doc, cit, cit_per_doc(cit, doc), h, k_r, fwci, k_exact, k_display,
    )


def compute_author_metrics(
    author: AuthorId,
    corpus: CorpusBundle,
    cfg: FilterConfig = FilterConfig(),
) -> AuthorMetrics:
    """Full pipeline over a corpus: role profile, citation filtering and
    every indicator.

    DOC counts the author's publications in the corpus; CIT and the
    per-publication counts feeding the H-index are the filtered valid
    citations under ``cfg``. The role-dominance coefficient is pinned to 1
    when every one of the author's publications has an alphabetical
    byline.
    """
    try:
        own = corpus.authored(author)
    except NoPublicationsError as exc:
        raise EmptyPortfolioError(str(exc)) from None
    shares, role_fwci = build_role_profile(author, own)
    cit, audits = filter_citations(author, corpus, cfg)
    alphabetical = all(p.alphabetical_order for p in own)
    return _author_metrics(
        author, author, len(own), cit, h_index(a.accepted for a in audits),
        role_dominance(shares, alphabetical), role_fwci,
    )


def metrics_from_summary(row: AuthorSummaryRow) -> AuthorMetrics:
    """Indicators from a pre-aggregated summary row (no filtering step).

    The role-dominance coefficient is computed only when the row carries
    at least one share cell, and the FWCI total only when it carries at
    least one per-role FWCI cell; otherwise they stay absent and the
    K-index falls back to its defaults (1 and 0 respectively).
    """
    if row.doc is None or row.doc < 1:
        raise EmptyPortfolioError(
            f"summary row for {row.author!r} has no publication count"
        )
    if row.cit is None:
        raise EmptyPortfolioError(
            f"summary row for {row.author!r} has no citation count"
        )
    return _author_metrics(
        row.author, row.display_name, row.doc, row.cit, row.h_index,
        role_dominance(row.shares) if row.shares else None, row.role_fwci,
    )
