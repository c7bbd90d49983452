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

import gc
import math
import re
import sys
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter

from .filtering import FilterConfig
from .model import (
    AuthorId,
    CitationRecord,
    CorpusBundle,
    PublicationFlag,
    PublicationRecord,
    Role,
    ROLE_ORDER,
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
_PUB_KEYS = frozenset(_PUB_FIELDS) | {"type"}
_CITE_KEYS = frozenset(_CITE_FIELDS) | {"type"}
# Documented values of the pub keys that are checked but read by no indicator.
_VENUE_TIERS = frozenset({"Q1", "Q2", "Q3", "Q4", "BOOK", "UNRANKED"})

# Shared by every record whose optional set-valued field is absent or empty.
_EMPTY: frozenset = frozenset()

# A cite line as dump_publications writes it: keys in _CITE_FIELDS order, no
# "=" in a value, no empty list item, no whitespace (``\s``: what str.strip
# removes) around a value or list item but at the line's end (a file line's
# newline). Such a line reads the same without _parse_fields and _build_citation.
# Use match() and compare its end: fullmatch backtracks long on a near miss.
_VALUE = r"[^\s=](?:[^\t=]*[^\s=])?"
_ITEMS = r"[^\s=,](?:[^\t=,]*[^\s=,])?(?:,[^\s=,](?:[^\t=,]*[^\s=,])?)*"
_SERIALIZED_CITE = re.compile(
    rf"type=cite\tciting_pub=({_VALUE})\tcited_pub=({_VALUE})"
    rf"(?:\tciting_authors=({_ITEMS}))?(?:\tciting_institutions=({_ITEMS}))?"
    r"(?:\tciting_indexed=(true|false))?(?:\tmentions=([0-9]+))?\s*"
)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for a bulk parse or a whole command.

    Parsed records hold no reference cycles, yet each allocation counts
    toward the collector's thresholds, so a large file would trigger
    hundreds of collections that free nothing. The previous state is
    restored on exit: a collector the caller had disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ValueError(f"expected true or false, got {value!r}")


def _parse_int(text: str) -> int:
    """An integer written as ASCII digits with an optional leading ``-``.

    The other spellings ``int()`` reads (``1_000``, ``+5``, non-ASCII
    digits) are rejected; text ``int()`` cannot read keeps its message.
    """
    digits = text[1:] if text.startswith("-") else text
    if digits.isdigit() and digits.isascii():
        return int(text)
    int(text)  # raises int()'s own message for text it cannot read
    raise ValueError(f"{text!r} is not a plain integer")


def _split_list(value: str) -> list[str]:
    return [name for item in value.split(",") if (name := item.strip())]


def _parse_fields(line: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in line.split("\t"):
        key, sep, value = token.partition("=")
        if not sep:
            if token.strip():
                raise ValueError(f"field {token.strip()!r} is not key=value")
            continue
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate field {key!r}")
        fields[key] = value.strip()
    if "type" not in fields:
        raise ValueError("record has no type field")
    return fields


def _check_keys(
    fields: dict[str, str], known: frozenset[str], required: tuple[str, ...], kind: str
) -> None:
    if not fields.keys() <= known:
        unknown = sorted(fields.keys() - known)
        raise ValueError(f"unknown field(s) {unknown} on {kind} record")
    for key in required:
        if key not in fields:
            missing = [k for k in required if k not in fields]
            raise ValueError(f"{kind} record missing required field(s) {missing}")


def _build_publication(fields: dict[str, str]) -> PublicationRecord:
    _check_keys(fields, _PUB_KEYS, _PUB_REQUIRED, "pub")

    institutions: dict[str, str] = {}
    if value := fields.get("institutions"):
        for pair in _split_list(value):
            author, sep, name = pair.partition(":")
            if not sep:
                raise ValueError(f"institution entry {pair!r} is not author:name")
            institutions[author.strip()] = name.strip()

    flags = _EMPTY
    if value := fields.get("flags"):
        found = set()
        for flag in _split_list(value):
            try:
                found.add(PublicationFlag(flag))
            except ValueError:
                raise ValueError(f"unknown flag {flag!r}") from None
        flags = frozenset(found)

    if "venue_tier" in fields and fields["venue_tier"] not in _VENUE_TIERS:
        raise ValueError(f"unknown venue_tier {fields['venue_tier']!r}")

    fwci = float(value) if (value := fields.get("fwci")) else None
    year = _parse_int(fields["year"])
    if "indexed" in fields:
        _parse_bool(fields["indexed"])  # checked only, like venue_tier

    corresponding = fields.get("corresponding")
    return PublicationRecord(
        pub_id=fields["pub_id"],
        year=year,
        authors=tuple(_split_list(fields["authors"])),
        corresponding=frozenset(_split_list(corresponding)) if corresponding else _EMPTY,
        fwci=fwci,
        alphabetical_order=(
            _parse_bool(fields["alphabetical"]) if "alphabetical" in fields else False
        ),
        flags=flags,
        institution_by_author=institutions,
    )


def _build_citation(fields: dict[str, str]) -> CitationRecord:
    _check_keys(fields, _CITE_KEYS, _CITE_REQUIRED, "cite")
    authors = fields.get("citing_authors")
    institutions = fields.get("citing_institutions")
    return CitationRecord(
        citing_pub=fields["citing_pub"],
        cited_pub=fields["cited_pub"],
        citing_authors=tuple(_split_list(authors)) if authors else (),
        citing_institutions=(
            frozenset(_split_list(institutions)) if institutions else _EMPTY
        ),
        citing_indexed=(
            _parse_bool(fields["citing_indexed"]) if "citing_indexed" in fields else True
        ),
        mention_count=_parse_int(fields["mentions"]) if "mentions" in fields else 1,
    )


@_gc_paused()
def parse_publications(source: Iterable[str] | str) -> CorpusBundle:
    """Parse a corpus file into a bundle.

    ``source`` is a string or an iterable of lines (an open file works).
    Raises ParseError carrying every line-numbered problem found; nothing
    is silently dropped.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    issues: list[ParseIssue] = []
    publications: list[PublicationRecord] = []
    citations: list[CitationRecord] = []
    cite_lines: list[int] = []
    pub_lines: dict[str, int] = {}

    for line_no, line in enumerate(lines, 1):
        try:
            if (match := _SERIALIZED_CITE.match(line)) and match.end() == len(line):
                citing, cited, authors, institutions, indexed, mentions = match.groups()
                citations.append(CitationRecord(
                    citing, cited, tuple(authors.split(",")) if authors else (),
                    frozenset(institutions.split(",")) if institutions else _EMPTY,
                    indexed != "false", int(mentions) if mentions else 1,
                ))
                cite_lines.append(line_no)
                continue
            stripped = line.lstrip()
            if not stripped or stripped[0] == "#":
                continue
            fields = _parse_fields(line)
            kind = fields["type"]
            if kind == "cite":
                citations.append(_build_citation(fields))
                cite_lines.append(line_no)
            elif kind == "pub":
                record = _build_publication(fields)
                if record.pub_id in pub_lines:
                    raise ValueError(
                        f"duplicate pub_id {record.pub_id!r} "
                        f"(first seen on line {pub_lines[record.pub_id]})"
                    )
                pub_lines[record.pub_id] = line_no
                publications.append(record)
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))

    for line_no, cite in zip(cite_lines, citations):
        if cite.cited_pub not in pub_lines:
            issues.append(
                ParseIssue(
                    line_no,
                    f"citation references unknown cited_pub {cite.cited_pub!r}",
                )
            )

    if issues:
        raise ParseError(issues)
    return CorpusBundle(publications=tuple(publications), citations=tuple(citations))


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
        if p.fwci is not None:
            parts.append(f"fwci={p.fwci!r}")
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
_COUNT_COLUMNS = {"h": "h_index", "doc": "doc", "cit": "cit"}  # column -> row field
_KNOWN_COLUMNS = (
    {"id", "author"} | set(_COUNT_COLUMNS) | set(_SHARE_COLUMNS)
    | set(_FWCI_COLUMNS)
)
# Text of an absent cell, after stripping.
_ABSENT = ("", "-")

# Each numeric column's value in a parsed row; None for an absent cell.
VALUE_COLUMNS: dict[str, Callable[[AuthorSummaryRow], int | float | None]] = {
    **{c: attrgetter(name) for c, name in _COUNT_COLUMNS.items()},
    **{c: lambda row, role=role: row.shares.get(role) for c, role in _SHARE_COLUMNS.items()},
    **{c: lambda row, role=role: row.role_fwci.get(role) for c, role in _FWCI_COLUMNS.items()},
}


def _parse_count(cell: str, column: str) -> int:
    value = _parse_int(cell.replace(" ", "").replace("\u00a0", ""))
    if value < 0:
        raise ValueError(f"{column} must be non-negative, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{column} is too large for a float")
    return value


@dataclass(frozen=True)
class _SummaryLayout:
    """Cell positions of one table's columns, resolved once from its header.

    ``counts`` holds (position, label) for H, DOC and CIT in that order,
    with position None for a missing column; ``shares`` and ``fwci`` hold
    (position, role, label) for the columns present, in role order.
    """

    author: int
    id: int | None
    counts: tuple[tuple[int | None, str], ...]
    shares: tuple[tuple[int, Role, str], ...]
    fwci: tuple[tuple[int, Role, str], ...]

    @classmethod
    def from_header(cls, columns: list[str]) -> "_SummaryLayout":
        at = {name: i for i, name in enumerate(columns)}
        return cls(
            author=at["author"],
            id=at.get("id"),
            counts=tuple((at.get(c), c.upper()) for c in _COUNT_COLUMNS),
            shares=tuple((at[c], r, c.upper()) for c, r in _SHARE_COLUMNS.items() if c in at),
            fwci=tuple((at[c], r, c.upper()) for c, r in _FWCI_COLUMNS.items() if c in at),
        )


@_gc_paused()
def parse_author_summaries(text: str) -> list[AuthorSummaryRow]:
    """Parse a delimited author summary table.

    The first non-blank line names the columns (tab- or semicolon-
    delimited): Author is required; Id, H, DOC, CIT and the per-role
    share/FWCI pairs FA/FWCI1, LA/FWCI2, CoA/FWCI3, CorA/FWCI4, SA/FWCI5
    are optional. Share cells are percentages, with or without the ``%``
    sign; a "-" or empty cell is an absent value. With an Id column, the
    author ids must be unique.
    """
    lines = [
        (no, line)
        for no, line in enumerate(text.splitlines(), 1)
        if (stripped := line.lstrip()) and stripped[0] != "#"
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

    layout = _SummaryLayout.from_header(columns)
    width = len(columns)
    id_lines: dict[AuthorId, int] = {}
    rows: list[AuthorSummaryRow] = []
    for line_no, line in lines[1:]:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) > width:
            issues.append(
                ParseIssue(line_no, f"{len(cells)} cells for {width} columns")
            )
            continue
        cells += [""] * (width - len(cells))
        try:
            row = _build_summary_row(cells, layout)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
            continue
        if layout.id is not None:
            first = id_lines.setdefault(row.author, line_no)
            if first != line_no:
                issues.append(ParseIssue(
                    line_no, f"duplicate Id {row.author!r} (first seen on line {first})"
                ))
        rows.append(row)

    if issues:
        raise ParseError(issues)
    return rows


def _build_summary_row(cells: list[str], layout: _SummaryLayout) -> AuthorSummaryRow:
    """One row from its stripped cells. Checks run in a fixed column order
    (H, DOC, CIT, shares, FWCI), so the first problem reported on a row does
    not depend on the order of the header."""
    name = cells[layout.author]
    if not name:
        raise ValueError("empty Author cell")
    author = (cells[layout.id] if layout.id is not None else "") or name

    counts = []
    for at, label in layout.counts:
        cell = "" if at is None else cells[at]
        if cell in _ABSENT:
            counts.append(None)
        elif cell.isascii() and cell.isdigit() and len(cell) < 309:
            # Below 10**308: non-negative and at most the largest double.
            counts.append(int(cell))
        else:
            counts.append(_parse_count(cell, label))
    h, doc, cit = counts
    if doc is not None and doc < 1:
        raise ValueError("DOC must be at least 1")
    if h is not None and doc is not None and h > doc:
        raise ValueError(f"H {h} exceeds DOC {doc}")

    shares: dict[Role, float] = {}
    for at, role, label in layout.shares:
        cell = cells[at]
        if cell not in _ABSENT:
            text = cell[:-1].strip() if cell.endswith("%") else cell
            percent = float(text.replace(",", "."))
            if not 0 <= percent <= 100:
                raise ValueError(f"{label} share {cell!r} is outside 0..100%")
            shares[role] = percent / 100.0
    role_fwci: dict[Role, float] = {}
    for at, role, label in layout.fwci:
        cell = cells[at]
        if cell not in _ABSENT:
            value = float(cell.replace(",", "."))
            if value < 0:
                raise ValueError(f"{label} must be non-negative")
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {cell!r}")
            role_fwci[role] = value

    return AuthorSummaryRow(author, name, h, doc, cit, shares, role_fwci)


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
    precision = Config.precision
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
                precision = _parse_int(value)
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: precision must be an integer, got {value!r}"
                ) from None
            if not 0 <= precision <= MAX_PRECISION:
                raise ConfigError(f"line {line_no}: precision must be in 0..{MAX_PRECISION}")
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    return Config(filters=FilterConfig(**rule_values), precision=precision)
