"""kindex: scientometric indicator toolkit.

Computes the K-index family of indicators (role dominance, FWCI totals,
K and integrated K), the H-index and CIT/DOC from publication corpora or
pre-aggregated author summaries, applies configurable citation-validity
filtering, and provides rankings, correlations, trend fits and yearly
activity summaries.
"""

from .analytics import (
    UndefinedCorrelationError,
    YearlySummaryRow,
    linear_trend,
    pearson,
    rank_authors,
    yearly_summary,
)
from .filtering import (
    FilterAudit,
    FilterConfig,
    audit_export,
    close_associates,
    filter_citations,
)
from .indices import (
    AuthorMetrics,
    EmptyPortfolioError,
    NonFiniteIndexError,
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
from .ingest import (
    AuthorSummaryRow,
    Config,
    ParseError,
    ParseIssue,
    dump_publications,
    load_config,
    parse_author_summaries,
    parse_publications,
)
from .model import (
    CitationRecord,
    CorpusBundle,
    MalformedRecordError,
    NoPublicationsError,
    PublicationFlag,
    PublicationRecord,
    Role,
    build_role_profile,
    classify_roles,
)

__version__ = "0.1.0"

__all__ = [
    "AuthorMetrics",
    "AuthorSummaryRow",
    "CitationRecord",
    "Config",
    "CorpusBundle",
    "EmptyPortfolioError",
    "FilterAudit",
    "FilterConfig",
    "MalformedRecordError",
    "NoPublicationsError",
    "NonFiniteIndexError",
    "ParseError",
    "ParseIssue",
    "PublicationFlag",
    "PublicationRecord",
    "Role",
    "UndefinedCorrelationError",
    "YearlySummaryRow",
    "audit_export",
    "build_role_profile",
    "cit_per_doc",
    "classify_roles",
    "close_associates",
    "compute_author_metrics",
    "dump_publications",
    "filter_citations",
    "fwci_total",
    "h_index",
    "k_index",
    "linear_trend",
    "load_config",
    "metrics_from_summary",
    "parse_author_summaries",
    "parse_publications",
    "pearson",
    "rank_authors",
    "ringelmann_share",
    "role_dominance",
    "round_half_away",
    "yearly_summary",
]
