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
from collections.abc import Callable, Iterable, Sequence
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
_FLAGS = frozenset(flag.value for flag in PublicationFlag)

# Shared by every record whose optional set-valued field is absent or empty.
_EMPTY: frozenset = frozenset()

# A cite or pub line as dump_publications writes it: keys in _CITE_FIELDS or
# _PUB_FIELDS order, no "=" in a value, no empty list item, no whitespace
# (``\s``: what str.strip removes) around a value or list item but at the
# line's end (a file line's newline). A pub line may also hold venue_tier and
# indexed (perfbench/gen.py writes both), its year is ASCII digits after an
# optional "-", its fwci is spelled as repr() writes a float (float() reads
# both paths alike, and the record rejects a negative one), its flags are
# PublicationFlag values, and its institution pairs have no whitespace next
# to their first ":". Such a line gives the same groups that _parse_fields
# and _cite_texts or _pub_texts give, and one record constructor reads both.
# Use match() and compare its end: fullmatch backtracks long on a near miss.
_VALUE = r"[^\s=](?:[^\t=]*[^\s=])?"
_ITEM = r"[^\s=,](?:[^\t=,]*[^\s=,])?"
_ITEMS = rf"{_ITEM}(?:,{_ITEM})*"
_SERIALIZED_CITE = re.compile(
    rf"type=cite\tciting_pub=({_VALUE})\tcited_pub=({_VALUE})"
    rf"(?:\tciting_authors=({_ITEMS}))?(?:\tciting_institutions=({_ITEMS}))?"
    r"(?:\tciting_indexed=(true|false))?(?:\tmentions=([0-9]+))?\s*"
)
_TIER = "|".join(sorted(_VENUE_TIERS))
_FLAG = "|".join(sorted(_FLAGS))
_INSTITUTION = rf"[^\s=,:](?:[^\t=,:]*[^\s=,:])?:{_ITEM}"
_SERIALIZED_PUB = re.compile(
    rf"type=pub\tpub_id=({_VALUE})\tyear=(-?[0-9]+)\tauthors=({_ITEMS})"
    rf"(?:\tcorresponding=({_ITEMS}))?(?:\tvenue_tier=(?:{_TIER}))?"
    r"(?:\tfwci=(-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?))?(?:\tindexed=(?:true|false))?"
    rf"(?:\talphabetical=(true|false))?(?:\tflags=((?:{_FLAG})(?:,(?:{_FLAG}))*))?"
    rf"(?:\tinstitutions=({_INSTITUTION}(?:,{_INSTITUTION})*))?\s*"
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


def _split_lines(text: str) -> list[str]:
    """The lines of ``text`` split at LF, CR LF and lone CR only, as a file
    opened in text mode splits them: ``str.splitlines`` would also end a
    line at characters such as form feed, U+0085 and U+2028."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


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


def _joined(value: str | None) -> str | None:
    """The items of a list field joined by ","; None when it has none."""
    return ",".join(_split_list(value or "")) or None


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


def _pub_texts(fields: dict[str, str]) -> tuple[str | None, ...]:
    """The checked texts of a pub line, as _SERIALIZED_PUB's groups would
    give them: list items joined by ",", institution pairs as author:name,
    an absent field or an empty list as None."""
    _check_keys(fields, _PUB_KEYS, _PUB_REQUIRED, "pub")

    institutions: dict[str, str] = {}
    if value := fields.get("institutions"):
        for pair in _split_list(value):
            author, sep, name = pair.partition(":")
            if not sep:
                raise ValueError(f"institution entry {pair!r} is not author:name")
            institutions[author.strip()] = name.strip()

    flags = _split_list(fields.get("flags", ""))
    for flag in flags:
        if flag not in _FLAGS:
            raise ValueError(f"unknown flag {flag!r}")

    if "venue_tier" in fields and fields["venue_tier"] not in _VENUE_TIERS:
        raise ValueError(f"unknown venue_tier {fields['venue_tier']!r}")

    if fwci := fields.get("fwci"):
        float(fwci)
    _parse_int(fields["year"])
    if "indexed" in fields:
        _parse_bool(fields["indexed"])  # checked only, like venue_tier
    if (alphabetical := fields.get("alphabetical")) is not None:
        _parse_bool(alphabetical)

    return (
        fields["pub_id"], fields["year"], _joined(fields["authors"]),
        _joined(fields.get("corresponding")), fwci or None, alphabetical, ",".join(flags) or None,
        ",".join(f"{author}:{name}" for author, name in institutions.items()) or None,
    )


def _cite_texts(fields: dict[str, str]) -> tuple[str | None, ...]:
    """The checked texts of a cite line, as _SERIALIZED_CITE's groups would
    give them."""
    _check_keys(fields, _CITE_KEYS, _CITE_REQUIRED, "cite")
    if (indexed := fields.get("citing_indexed")) is not None:
        _parse_bool(indexed)
    if (mentions := fields.get("mentions")) is not None:
        _parse_int(mentions)
    return (
        fields["citing_pub"], fields["cited_pub"], _joined(fields.get("citing_authors")),
        _joined(fields.get("citing_institutions")), indexed, mentions,
    )


@_gc_paused()
def parse_publications(source: Iterable[str] | str) -> CorpusBundle:
    """Parse a corpus file into a bundle.

    ``source`` is a string or an iterable of lines (an open file works).
    Raises ParseError carrying every line-numbered problem found; nothing
    is silently dropped.
    """
    lines = _split_lines(source) if isinstance(source, str) else source
    issues: list[ParseIssue] = []
    publications: list[PublicationRecord] = []
    citations: list[CitationRecord] = []
    pub_lines: dict[str, int] = {}
    # (line, cited_pub) of each cite read before its cited pub, checked at the end.
    forward: list[tuple[int, str]] = []
    # One tuple or set per distinct list text: citing bylines repeat across
    # links, and shared values keep the corpus smaller.
    author_tuples: dict[str | None, tuple[AuthorId, ...]] = {None: ()}
    institution_sets: dict[str | None, frozenset[str]] = {None: _EMPTY}

    for line_no, line in enumerate(lines, 1):
        try:
            if (match := _SERIALIZED_CITE.match(line)) and match.end() == len(line):
                kind, texts = "cite", match.groups()
            elif (match := _SERIALIZED_PUB.match(line)) and match.end() == len(line):
                kind, texts = "pub", match.groups()
            else:
                stripped = line.lstrip()
                if not stripped or stripped[0] == "#":
                    continue
                fields = _parse_fields(line)
                kind = fields["type"]
                if kind == "cite":
                    texts = _cite_texts(fields)
                elif kind == "pub":
                    texts = _pub_texts(fields)
                else:
                    raise ValueError(f"unknown record type {kind!r}")
            if kind == "cite":
                citing, cited, authors, institutions, indexed, mentions = texts
                if (citing_authors := author_tuples.get(authors)) is None:
                    citing_authors = author_tuples[authors] = tuple(authors.split(","))
                if (citing_institutions := institution_sets.get(institutions)) is None:
                    citing_institutions = institution_sets[institutions] = frozenset(
                        institutions.split(","))
                citations.append(CitationRecord(
                    citing, cited, citing_authors, citing_institutions,
                    indexed != "false", int(mentions) if mentions else 1,
                ))
                if cited not in pub_lines:
                    forward.append((line_no, cited))
                continue
            (pub_id, year, authors, corresponding, fwci, alphabetical, flags,
             institutions) = texts
            record = PublicationRecord(
                pub_id, int(year), tuple(authors.split(",")) if authors else (),
                frozenset(corresponding.split(",")) if corresponding else _EMPTY,
                float(fwci) if fwci else None, alphabetical == "true",
                frozenset(map(PublicationFlag, flags.split(","))) if flags else _EMPTY,
                dict(pair.split(":", 1) for pair in institutions.split(","))
                if institutions else {},
            )
            if pub_id in pub_lines:
                raise ValueError(
                    f"duplicate pub_id {pub_id!r} (first seen on line {pub_lines[pub_id]})"
                )
            pub_lines[pub_id] = line_no
            publications.append(record)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))

    issues += [
        ParseIssue(line_no, f"citation references unknown cited_pub {cited!r}")
        for line_no, cited in forward
        if cited not in pub_lines
    ]
    if issues:
        raise ParseError(issues)
    return CorpusBundle(publications=tuple(publications), citations=tuple(citations))


def _writable(record: str, key: str, text: str, stops: str = "") -> str:
    """``text`` as written for ``key``, or ValueError naming ``record`` when
    the parser would read it back changed: it holds a TAB, CR, LF or one of
    ``stops``, or starts or ends with whitespace that str.strip removes."""
    bad = next((char for char in "\t\r\n" + stops if char in text), None)
    if bad is not None or text != text.strip():
        why = f"holds {bad!r}" if bad else "starts or ends with whitespace"
        raise ValueError(f"cannot write {record}: {key} {text!r} {why}")
    return text


def _writable_items(record: str, key: str, items: Sequence[str]) -> str:
    """The list items joined by ",", each checked by _writable; an empty
    item would be dropped, so it is refused too."""
    for item in items:
        if not item:
            raise ValueError(f"cannot write {record}: {key} has an empty item")
        _writable(record, key, item, ",")
    return ",".join(items)


def dump_publications(bundle: CorpusBundle) -> str:
    """Serialize a bundle back to corpus-file text (parse round-trips to a
    structurally identical bundle). Optional fields at their defaults are
    omitted. Raises ValueError for an id or name the format cannot read
    back as it is (see _writable)."""
    lines = []
    for p in bundle.publications:
        record = f"pub {p.pub_id!r}"
        parts = [
            "type=pub",
            f"pub_id={_writable(record, 'pub_id', p.pub_id)}",
            f"year={p.year}",
            "authors=" + _writable_items(record, "authors", p.authors),
        ]
        if p.corresponding:
            parts.append(
                "corresponding=" + _writable_items(record, "corresponding", sorted(p.corresponding))
            )
        if p.fwci is not None:
            parts.append(f"fwci={p.fwci!r}")
        if p.alphabetical_order:
            parts.append("alphabetical=true")
        if p.flags:
            parts.append("flags=" + ",".join(sorted(f.value for f in p.flags)))
        if p.institution_by_author:
            # An author id is checked as a byline item; the pair splits at its first ":".
            parts.append("institutions=" + ",".join(
                f"{_writable(record, 'institutions', author, ':')}:"
                f"{_writable(record, 'institutions', name, ',')}"
                for author, name in sorted(p.institution_by_author.items())
            ))
        lines.append("\t".join(parts))
    for c in bundle.citations:
        record = f"cite {c.citing_pub!r} -> {c.cited_pub!r}"
        parts = [
            "type=cite",
            f"citing_pub={_writable(record, 'citing_pub', c.citing_pub)}",
            f"cited_pub={_writable(record, 'cited_pub', c.cited_pub)}",
        ]
        if c.citing_authors:
            parts.append(
                "citing_authors=" + _writable_items(record, "citing_authors", c.citing_authors)
            )
        if c.citing_institutions:
            parts.append("citing_institutions=" + _writable_items(
                record, "citing_institutions", sorted(c.citing_institutions)))
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
        for no, line in enumerate(_split_lines(text), 1)
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
        cells = list(map(str.strip, line.split(delim)))
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
    for line_no, raw in enumerate(_split_lines(text), 1):
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
