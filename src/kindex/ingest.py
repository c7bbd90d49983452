"""Parsing of corpus files, author summary tables and configuration.

Three text formats are handled (documented bit-exact in docs/formats.md):

* corpus files: one ``pub`` or ``cite`` record per line, TAB-separated
  ``key=value`` fields;
* summary tables: delimited columns carrying per-author totals, role
  shares (percent) and per-role mean FWCI values;
* config files: flat ``key=value`` lines with ``#`` comments.

Parsing never invents values: a "-" or empty cell stays absent in the
model, it does not become zero. All errors carry line numbers, and a file
is either accepted whole or rejected with the full list of problems.
"""

from collections.abc import Iterable
from dataclasses import dataclass, field

from .filtering import FilterConfig
from .model import (
    AuthorId,
    CitationRecord,
    CorpusBundle,
    MalformedRecordError,
    PublicationFlag,
    PublicationRecord,
    Role,
    ROLE_ORDER,
    VenueTier,
)


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


class ParseError(ValueError):
    """One or more lines could not be parsed or validated."""

    def __init__(self, issues: list[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class ConfigError(ValueError):
    """Bad configuration file."""


@dataclass(frozen=True)
class AuthorSummaryRow:
    """One row of a pre-aggregated author summary table.

    ``shares`` holds role shares as fractions of 1 and ``role_fwci`` the
    per-role mean FWCI values; either mapping only contains the cells
    actually present in the file.
    """

    author: AuthorId
    display_name: str
    h_index: int | None = None
    doc: int | None = None
    cit: int | None = None
    shares: dict[Role, float] = field(default_factory=dict)
    role_fwci: dict[Role, float] = field(default_factory=dict)


# Largest number of decimal places for output, from a config file or --precision.
MAX_PRECISION = 12


@dataclass(frozen=True)
class Config:
    """Filter switches plus output options loaded from a config file."""

    filters: FilterConfig = FilterConfig()
    precision: int = 2


# --- corpus files -----------------------------------------------------------

_PUB_FIELDS = (
    "pub_id", "year", "authors", "corresponding", "venue_tier", "fwci",
    "indexed", "alphabetical", "flags", "institutions",
)
_PUB_REQUIRED = ("pub_id", "year", "authors")
_CITE_FIELDS = (
    "citing_pub", "cited_pub", "citing_authors", "citing_institutions",
    "citing_indexed", "mentions",
)
_CITE_REQUIRED = ("citing_pub", "cited_pub")


def _parse_bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ValueError(f"expected true or false, got {value!r}")


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_fields(line: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in line.split("\t"):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"field {token!r} is not key=value")
        key, _, value = token.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate field {key!r}")
        fields[key] = value.strip()
    if "type" not in fields:
        raise ValueError("record has no type field")
    return fields


def _build_publication(fields: dict[str, str]) -> PublicationRecord:
    unknown = set(fields) - set(_PUB_FIELDS) - {"type"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} on pub record")
    missing = [k for k in _PUB_REQUIRED if k not in fields]
    if missing:
        raise ValueError(f"pub record missing required field(s) {missing}")

    institutions: dict[str, str] = {}
    for pair in _split_list(fields.get("institutions", "")):
        if ":" not in pair:
            raise ValueError(f"institution entry {pair!r} is not author:name")
        author, _, name = pair.partition(":")
        institutions[author.strip()] = name.strip()

    flags = set()
    for flag in _split_list(fields.get("flags", "")):
        try:
            flags.add(PublicationFlag(flag))
        except ValueError:
            raise ValueError(f"unknown flag {flag!r}") from None
    try:
        tier = VenueTier(fields.get("venue_tier", "UNRANKED"))
    except ValueError:
        raise ValueError(f"unknown venue_tier {fields['venue_tier']!r}") from None

    fwci = None
    if "fwci" in fields and fields["fwci"] != "":
        fwci = float(fields["fwci"])

    record = PublicationRecord(
        pub_id=fields["pub_id"],
        year=int(fields["year"]),
        authors=tuple(_split_list(fields["authors"])),
        corresponding=frozenset(_split_list(fields.get("corresponding", ""))),
        venue_tier=tier,
        fwci=fwci,
        indexed=_parse_bool(fields.get("indexed", "true")),
        alphabetical_order=_parse_bool(fields.get("alphabetical", "false")),
        flags=frozenset(flags),
        institution_by_author=institutions,
    )
    record.validate()
    return record


def _build_citation(fields: dict[str, str]) -> CitationRecord:
    unknown = set(fields) - set(_CITE_FIELDS) - {"type"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} on cite record")
    missing = [k for k in _CITE_REQUIRED if k not in fields]
    if missing:
        raise ValueError(f"cite record missing required field(s) {missing}")
    record = CitationRecord(
        citing_pub=fields["citing_pub"],
        cited_pub=fields["cited_pub"],
        citing_authors=tuple(_split_list(fields.get("citing_authors", ""))),
        citing_institutions=frozenset(
            _split_list(fields.get("citing_institutions", ""))
        ),
        citing_indexed=_parse_bool(fields.get("citing_indexed", "true")),
        mention_count=int(fields.get("mentions", "1")),
    )
    record.validate()
    return record


def parse_publications(source: Iterable[str] | str) -> CorpusBundle:
    """Parse a corpus file into a bundle.

    ``source`` is a string or an iterable of lines (an open file works).
    Raises ParseError carrying every line-numbered problem found; nothing
    is silently dropped.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    issues: list[ParseIssue] = []
    publications: list[PublicationRecord] = []
    citations: list[tuple[int, CitationRecord]] = []
    pub_lines: dict[str, int] = {}

    for line_no, raw in enumerate(lines, 1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            fields = _parse_fields(line)
            kind = fields["type"]
            if kind == "pub":
                record = _build_publication(fields)
                if record.pub_id in pub_lines:
                    raise ValueError(
                        f"duplicate pub_id {record.pub_id!r} "
                        f"(first seen on line {pub_lines[record.pub_id]})"
                    )
                pub_lines[record.pub_id] = line_no
                publications.append(record)
            elif kind == "cite":
                citations.append((line_no, _build_citation(fields)))
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except (ValueError, MalformedRecordError) as exc:
            issues.append(ParseIssue(line_no, str(exc)))

    for line_no, cite in citations:
        if cite.cited_pub not in pub_lines:
            issues.append(
                ParseIssue(
                    line_no,
                    f"citation references unknown cited_pub {cite.cited_pub!r}",
                )
            )

    if issues:
        raise ParseError(issues)
    return CorpusBundle(
        publications=tuple(publications),
        citations=tuple(c for _, c in citations),
    )


def dump_publications(bundle: CorpusBundle) -> str:
    """Serialize a bundle back to corpus-file text (parse round-trips to a
    structurally identical bundle). Optional fields at their defaults are
    omitted."""
    lines = []
    for p in bundle.publications:
        parts = [
            "type=pub",
            f"pub_id={p.pub_id}",
            f"year={p.year}",
            "authors=" + ",".join(p.authors),
        ]
        if p.corresponding:
            parts.append("corresponding=" + ",".join(sorted(p.corresponding)))
        if p.venue_tier is not VenueTier.UNRANKED:
            parts.append(f"venue_tier={p.venue_tier.value}")
        if p.fwci is not None:
            parts.append(f"fwci={p.fwci!r}")
        if not p.indexed:
            parts.append("indexed=false")
        if p.alphabetical_order:
            parts.append("alphabetical=true")
        if p.flags:
            parts.append("flags=" + ",".join(sorted(f.value for f in p.flags)))
        if p.institution_by_author:
            pairs = sorted(p.institution_by_author.items())
            parts.append("institutions=" + ",".join(f"{a}:{n}" for a, n in pairs))
        lines.append("\t".join(parts))
    for c in bundle.citations:
        parts = [
            "type=cite",
            f"citing_pub={c.citing_pub}",
            f"cited_pub={c.cited_pub}",
        ]
        if c.citing_authors:
            parts.append("citing_authors=" + ",".join(c.citing_authors))
        if c.citing_institutions:
            parts.append(
                "citing_institutions=" + ",".join(sorted(c.citing_institutions))
            )
        if not c.citing_indexed:
            parts.append("citing_indexed=false")
        if c.mention_count != 1:
            parts.append(f"mentions={c.mention_count}")
        lines.append("\t".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# --- summary tables ---------------------------------------------------------

_SHARE_COLUMNS = {
    "fa": Role.FA, "la": Role.LA, "coa": Role.COA, "cora": Role.CORA,
    "sa": Role.SA,
}
_FWCI_COLUMNS = {
    f"fwci{i}": role for i, role in enumerate(ROLE_ORDER, start=1)
}
_COUNT_COLUMNS = ("h", "doc", "cit")
_KNOWN_COLUMNS = (
    {"id", "author"} | set(_COUNT_COLUMNS) | set(_SHARE_COLUMNS)
    | set(_FWCI_COLUMNS)
)


def _is_absent(cell: str) -> bool:
    return cell.strip() in ("", "-")


def _parse_count(cell: str, column: str) -> int:
    digits = cell.replace(" ", "").replace(" ", "")
    value = int(digits)
    if value < 0:
        raise ValueError(f"{column} must be non-negative, got {value}")
    return value


def _parse_decimal(cell: str) -> float:
    return float(cell.strip().replace(",", "."))


def _parse_share(cell: str, column: str) -> float:
    text = cell.strip()
    if text.endswith("%"):
        text = text[:-1].strip()
    percent = _parse_decimal(text)
    if not 0 <= percent <= 100:
        raise ValueError(f"{column} share {cell!r} is outside 0..100%")
    return percent / 100.0


def parse_author_summaries(text: str) -> list[AuthorSummaryRow]:
    """Parse a delimited author summary table.

    The first non-blank line names the columns (tab- or semicolon-
    delimited): Author is required; Id, H, DOC, CIT and the per-role
    share/FWCI pairs FA/FWCI1, LA/FWCI2, CoA/FWCI3, CorA/FWCI4, SA/FWCI5
    are optional. Share cells are percentages, with or without the ``%``
    sign; a "-" or empty cell is an absent value.
    """
    lines = [
        (no, line)
        for no, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        return []

    header_no, header = lines[0]
    delim = "\t" if "\t" in header else ";"
    columns = [c.strip().lower() for c in header.split(delim)]
    issues: list[ParseIssue] = []
    unknown = [c for c in columns if c not in _KNOWN_COLUMNS]
    if unknown:
        raise ParseError(
            [ParseIssue(header_no, f"unknown column(s) {unknown}")]
        )
    if "author" not in columns:
        raise ParseError([ParseIssue(header_no, "missing Author column")])
    if len(set(columns)) != len(columns):
        raise ParseError([ParseIssue(header_no, "duplicate column in header")])

    rows: list[AuthorSummaryRow] = []
    for line_no, line in lines[1:]:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) > len(columns):
            issues.append(
                ParseIssue(line_no, f"{len(cells)} cells for {len(columns)} columns")
            )
            continue
        cells += [""] * (len(columns) - len(cells))
        record = dict(zip(columns, cells))
        try:
            rows.append(_build_summary_row(record))
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))

    if issues:
        raise ParseError(issues)
    return rows


def _build_summary_row(record: dict[str, str]) -> AuthorSummaryRow:
    name = record.get("author", "").strip()
    if not name:
        raise ValueError("empty Author cell")
    author = record.get("id", "").strip() or name

    counts: dict[str, int | None] = {}
    for column in _COUNT_COLUMNS:
        cell = record.get(column, "")
        counts[column] = None if _is_absent(cell) else _parse_count(cell, column.upper())
    if counts["doc"] is not None and counts["doc"] < 1:
        raise ValueError("DOC must be at least 1")
    if (
        counts["h"] is not None
        and counts["doc"] is not None
        and counts["h"] > counts["doc"]
    ):
        raise ValueError(f"H {counts['h']} exceeds DOC {counts['doc']}")

    shares: dict[Role, float] = {}
    for column, role in _SHARE_COLUMNS.items():
        cell = record.get(column, "")
        if not _is_absent(cell):
            shares[role] = _parse_share(cell, column.upper())
    role_fwci: dict[Role, float] = {}
    for column, role in _FWCI_COLUMNS.items():
        cell = record.get(column, "")
        if not _is_absent(cell):
            value = _parse_decimal(cell)
            if value < 0:
                raise ValueError(f"{column.upper()} must be non-negative")
            role_fwci[role] = value

    return AuthorSummaryRow(
        author=author,
        display_name=name,
        h_index=counts["h"],
        doc=counts["doc"],
        cit=counts["cit"],
        shares=shares,
        role_fwci=role_fwci,
    )


# --- config files -----------------------------------------------------------

_RULE_KEYS = {
    "require_indexed_source": "require_indexed_source",
    "dedupe_per_document": "dedupe_per_document",
    "exclude_self_citations": "exclude_self",
    "exclude_close_associates": "exclude_close_associates",
    "one_per_author_per_source": "one_per_author_per_source",
    "exclude_flagged": "exclude_flagged",
}


def load_config(text: str) -> Config:
    """Load ``key=value`` configuration. Unknown or repeated keys are
    rejected; omitted keys keep their defaults (every filter rule on,
    precision 2)."""
    rule_values: dict[str, bool] = {}
    precision = 2
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        seen.add(key)
        if key in _RULE_KEYS:
            try:
                rule_values[_RULE_KEYS[key]] = _parse_bool(value)
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {key}: {exc}") from None
        elif key == "precision":
            try:
                precision = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: precision must be an integer, got {value!r}"
                ) from None
            if not 0 <= precision <= MAX_PRECISION:
                raise ConfigError(f"line {line_no}: precision must be in 0..{MAX_PRECISION}")
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    return Config(filters=FilterConfig(**rule_values), precision=precision)
