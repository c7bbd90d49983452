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
import io
import math
import re
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from operator import attrgetter
from typing import Any, NamedTuple

from .filtering import FilterConfig
from .model import (
    AuthorId,
    CitationRecord,
    CorpusBundle,
    PublicationFlag,
    PublicationRecord,
    Role,
    ROLE_ORDER,
    _tuple_new,
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


class _SummaryFields(NamedTuple):
    author: AuthorId
    display_name: str
    h_index: int | None
    doc: int | None
    cit: int | None
    shares: dict[Role, float]
    role_fwci: dict[Role, float]


class AuthorSummaryRow(_SummaryFields):
    """One row of a pre-aggregated author summary table.

    ``shares`` holds role shares as fractions of 1 and ``role_fwci`` the
    per-role mean FWCI values; either mapping only contains the cells
    actually present in the file; left out or None, it is a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, author: AuthorId, display_name: str, h_index: int | None = None,
                doc: int | None = None, cit: int | None = None,
                shares: dict[Role, float] | None = None,
                role_fwci: dict[Role, float] | None = None) -> "AuthorSummaryRow":
        return _tuple_new(cls, (author, display_name, h_index, doc, cit,
                                {} if shares is None else shares,
                                {} if role_fwci is None else role_fwci))


# Largest number of decimal places for output, from a config file or --precision.
MAX_PRECISION = 12


@dataclass(frozen=True)
class Config:
    """Filter switches plus output options loaded from a config file."""

    filters: FilterConfig = FilterConfig()
    precision: int = 2


# --- corpus files -----------------------------------------------------------

# Documented values of the pub keys that are checked but read by no indicator.
_VENUE_TIERS = frozenset({"Q1", "Q2", "Q3", "Q4", "BOOK", "UNRANKED"})
_FLAGS = frozenset(flag.value for flag in PublicationFlag)
# Most digits an integer may have: by default int() and str() refuse more.
_MAX_DIGITS = 4300
_INT_BOUND = 10**_MAX_DIGITS

# Shared by every record whose optional set-valued field is absent or empty.
_EMPTY: frozenset = frozenset()


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


def _parse_int(text: str, too_long: str = "integer is too long") -> int:
    """An integer written as ASCII digits with an optional leading ``-``,
    at most _MAX_DIGITS of them; ``too_long`` is the message for more.

    The other spellings ``int()`` reads (``1_000``, ``+5``, non-ASCII
    digits) are rejected; short text ``int()`` cannot read keeps its message.
    """
    digits = text[1:] if text.startswith("-") else text
    if digits.isdigit() and digits.isascii():
        if len(digits) > _MAX_DIGITS:
            raise ValueError(too_long)
        return int(text)
    if len(text) <= _MAX_DIGITS:
        int(text)  # raises int()'s own message for text it cannot read
    raise ValueError(f"{text!r} is not a plain integer")


def _split_list(key: str, value: str) -> list[str]:
    """The stripped items of a list value, none for an empty value; an empty
    item in a non-empty list is refused."""
    items = [item.strip() for item in value.split(",")] if value else []
    if "" in items:
        raise ValueError(f"{key} has an empty item")
    return items


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


def _check_int(key: str, text: str) -> str:
    _parse_int(text, f"{key} has more than {_MAX_DIGITS} digits")
    return text


def _check_float(key: str, text: str) -> str:
    float(text)
    return text


def _check_bool(key: str, text: str) -> str:
    _parse_bool(text)
    return text


def _check_tier(key: str, text: str) -> str:
    if text not in _VENUE_TIERS:
        raise ValueError(f"unknown {key} {text!r}")
    return text


def _check_flags(key: str, text: str) -> str | None:
    flags = _split_list(key, text)
    for flag in flags:
        if flag not in _FLAGS:
            raise ValueError(f"unknown flag {flag!r}")
    return ",".join(flags) or None


def _check_pairs(key: str, text: str) -> str | None:
    pairs = []
    for pair in _split_list(key, text):
        author, sep, name = pair.partition(":")
        if not (sep and name.strip()):
            raise ValueError(f"institution entry {pair!r} is not author:name")
        pairs.append(f"{author.strip()}:{name.strip()}")
    return ",".join(pairs) or None


def _institution_map(text: str | None) -> dict[AuthorId, str]:
    """The author -> name map of checked ``institutions`` text (None for
    none); an author named twice is refused."""
    if not text:
        return {}
    pairs = [pair.split(":", 1) for pair in text.split(",")]
    by_author = dict(pairs)
    if len(by_author) < len(pairs):
        twice = next(author for author, n in Counter(a for a, _ in pairs).items() if n > 1)
        raise ValueError(f"institutions names {twice!r} twice")
    return by_author


def _write_int(record: str, key: str, value: int) -> str:
    if -_INT_BOUND < value < _INT_BOUND:
        return str(value)
    raise ValueError(f"cannot write {record}: {key} has more than {_MAX_DIGITS} digits")


def _write_pairs(record: str, key: str, pairs: Mapping[str, str]) -> str:
    # An author id is checked as a byline item; the pair splits at its first ":".
    return ",".join(f"{_writable(record, key, author, ':')}:{_writable(record, key, name, ',')}"
                    for author, name in sorted(pairs.items()))


class _Kind(NamedTuple):
    """How one kind of corpus value is read and written: ``pattern`` is what
    the fast path accepts, ``check(key, text)`` takes a stripped value to the
    text that pattern's group gives (None for an empty list) or raises
    ValueError, and ``write(record, key, value)`` gives the text written."""

    pattern: str
    check: Callable[[str, str], str | None]
    write: Callable[[str, str, Any], str] | None = None


_ITEM = r"[^\s=,](?:[^\t=,]*[^\s=,])?"
_ITEMS = rf"{_ITEM}(?:,{_ITEM})*"
_FLAG = "|".join(sorted(_FLAGS))
_INSTITUTION = rf"[^\s=,:](?:[^\t=,:]*[^\s=,:])?:{_ITEM}"
_ID = _Kind(r"[^\s=](?:[^\t=]*[^\s=])?", lambda key, text: text,
            lambda record, key, value: _writable(record, key, value))
_INT = _Kind(rf"-?[0-9]{{1,{_MAX_DIGITS}}}", _check_int, _write_int)
_FLOAT = _Kind(r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?", _check_float,
               lambda record, key, value: repr(value))
_BOOL = _Kind("true|false", _check_bool, lambda record, key, value: "true" if value else "false")
_LIST = _Kind(_ITEMS, lambda key, text: ",".join(_split_list(key, text)) or None,
              lambda record, key, value: _writable_items(record, key, value))
_SET = _LIST._replace(write=lambda record, key, value: _writable_items(record, key, sorted(value)))
_FLAG_SET = _Kind(f"(?:{_FLAG})(?:,(?:{_FLAG}))*", _check_flags,
                  lambda record, key, value: ",".join(sorted(flag.value for flag in value)))
_PAIRS = _Kind(rf"{_INSTITUTION}(?:,{_INSTITUTION})*", _check_pairs, _write_pairs)
_TIER = _Kind("|".join(sorted(_VENUE_TIERS)), _check_tier)

# Defaults that are no value: a required key, and a key that is checked but
# held by no record field, so the writer never writes it.
_REQUIRED, _CHECKED = object(), object()
# Each record kind's keys as (key, kind, default) in docs/formats.md's and
# the serializer's order. Leaving out the checked keys, that is the order of
# the record's fields, and the writer omits a field at its default.
_PUB_TABLE = (
    ("pub_id", _ID, _REQUIRED), ("year", _INT, _REQUIRED), ("authors", _LIST, _REQUIRED),
    ("corresponding", _SET, _EMPTY), ("venue_tier", _TIER, _CHECKED), ("fwci", _FLOAT, None),
    ("indexed", _BOOL, _CHECKED), ("alphabetical", _BOOL, False), ("flags", _FLAG_SET, _EMPTY),
    ("institutions", _PAIRS, {}),
)
_CITE_TABLE = (
    ("citing_pub", _ID, _REQUIRED), ("cited_pub", _ID, _REQUIRED), ("citing_authors", _LIST, ()),
    ("citing_institutions", _SET, _EMPTY), ("citing_indexed", _BOOL, True), ("mentions", _INT, 1),
)
_TABLES = {"pub": _PUB_TABLE, "cite": _CITE_TABLE}
# The keys whose values a pub line checks first, in this order; the others
# follow in table order. A line with several faults reports the first.
_PUB_CHECKED_FIRST = ("institutions", "flags", "venue_tier", "fwci")


def _serialized(kind: str) -> re.Pattern[str]:
    """A line of ``kind`` as dump_publications writes it: keys in table
    order, required ones present, a group for each value a record holds."""
    pattern = f"type={kind}"
    for key, value, default in _TABLES[kind]:
        group = f"(?:{value.pattern})" if default is _CHECKED else f"({value.pattern})"
        pattern += rf"\t{key}={group}" if default is _REQUIRED else rf"(?:\t{key}={group})?"
    return re.compile(pattern + r"\s*")


# A cite or pub line as dump_publications writes it: keys in _CITE_TABLE or
# _PUB_TABLE order, no "=" in a value, no empty list item, no whitespace
# (``\s``: what str.strip removes) around a value or list item but at the
# line's end (a file line's newline), and integers of at most _MAX_DIGITS
# ASCII digits after an optional "-" (the record rejects a negative count).
# A pub line may also hold venue_tier and indexed (perfbench/gen.py writes
# both), its fwci is spelled as repr() writes a float (float() reads both
# paths alike, and the record rejects a negative one), its flags are
# PublicationFlag values, and its institution pairs have no whitespace next
# to their first ":". Such a line gives the same groups that _parse_fields
# and _careful_texts give, and one record constructor reads both.
# Use match() and compare its end: fullmatch backtracks long on a near miss.
_SERIALIZED_CITE = _serialized("cite")
_SERIALIZED_PUB = _serialized("pub")


def _careful_texts(kind: str, fields: dict[str, str]) -> tuple[str | None, ...]:
    """The checked texts of a line off the fast path, as its pattern's
    groups would give them: list items joined by ",", institution pairs as
    author:name, an absent key or an empty list as None."""
    table = _TABLES[kind]
    known = {"type"}.union(key for key, _, _ in table)
    if not fields.keys() <= known:
        raise ValueError(f"unknown field(s) {sorted(fields.keys() - known)} on {kind} record")
    if missing := [key for key, _, default in table if default is _REQUIRED and key not in fields]:
        raise ValueError(f"{kind} record missing required field(s) {missing}")
    first = _PUB_CHECKED_FIRST if kind == "pub" else ()
    order = sorted(table, key=lambda row: first.index(row[0]) if row[0] in first else len(first))
    texts = {key: value.check(key, fields[key]) if key in fields else None
             for key, value, _ in order}
    return tuple(texts[key] for key, _, default in table if default is not _CHECKED)


@_gc_paused()
def parse_publications(source: Iterable[str] | str) -> CorpusBundle:
    """Parse a corpus file into a bundle.

    ``source`` is an iterable of lines (an open file works) or a string,
    split into lines as a file opened in text mode is. Raises ParseError
    carrying every line-numbered problem found; nothing is silently dropped.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
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
                if kind not in _TABLES:
                    raise ValueError(f"unknown record type {kind!r}")
                texts = _careful_texts(kind, fields)
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
                _institution_map(institutions),
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
    the parser would read it back changed: it is empty, holds a TAB, CR, LF
    or one of ``stops``, or starts or ends with whitespace that str.strip
    removes."""
    bad = next((char for char in "\t\r\n" + stops if char in text), None)
    if bad is not None or text != text.strip() or not text:
        why = (f"holds {bad!r}" if bad else "is empty" if not text
               else "starts or ends with whitespace")
        raise ValueError(f"cannot write {record}: {key} {text!r} {why}")
    return text


def _writable_items(record: str, key: str, items: Sequence[str]) -> str:
    """The list items joined by ",", each checked by _writable; the parser
    refuses an empty item, so it is refused too."""
    for item in items:
        if not item:
            raise ValueError(f"cannot write {record}: {key} has an empty item")
        _writable(record, key, item, ",")
    return ",".join(items)


def dump_publications(bundle: CorpusBundle) -> str:
    """Serialize a bundle back to corpus-file text (parse round-trips to a
    structurally identical bundle). Optional fields at their defaults are
    omitted. Raises ValueError for an id or name the format cannot read
    back as it is (see _writable), or an integer of over _MAX_DIGITS digits."""
    lines = []
    for kind, records in (("pub", bundle.publications), ("cite", bundle.citations)):
        # The keys of the record's fields, in field order.
        written = [row for row in _TABLES[kind] if row[2] is not _CHECKED]
        for record in records:
            pairs = list(zip(written, record))
            # A record is named by its ids: a pub by pub_id, a cite by both ends.
            name = f"{kind} " + " -> ".join(repr(v) for (_, k, _), v in pairs if k is _ID)
            lines.append("\t".join([f"type={kind}", *(
                f"{key}={value_kind.write(name, key, value)}"
                for (key, value_kind, default), value in pairs
                if default is _REQUIRED or value != default
            )]))
    return "\n".join(lines) + ("\n" if lines else "")


# --- summary tables ---------------------------------------------------------

_SHARE_COLUMNS = {role.value.lower(): role for role in ROLE_ORDER}  # fa, la, coa, cora, sa
_FWCI_COLUMNS = {f"fwci{i}": role for i, role in enumerate(ROLE_ORDER, start=1)}
_COUNT_COLUMNS = {"h": "h_index", "doc": "doc", "cit": "cit"}  # column -> row field
_KNOWN_COLUMNS = {"id", "author", *_COUNT_COLUMNS, *_SHARE_COLUMNS, *_FWCI_COLUMNS}
# Text of an absent cell, after stripping.
_ABSENT = ("", "-")

# Each numeric column's value in a parsed row; None for an absent cell.
VALUE_COLUMNS: dict[str, Callable[[AuthorSummaryRow], int | float | None]] = {
    **{c: attrgetter(name) for c, name in _COUNT_COLUMNS.items()},
    **{c: lambda row, role=role: row.shares.get(role) for c, role in _SHARE_COLUMNS.items()},
    **{c: lambda row, role=role: row.role_fwci.get(role) for c, role in _FWCI_COLUMNS.items()},
}


def _parse_count(cell: str, column: str) -> int:
    too_large = f"{column} is too large for a float"
    value = _parse_int(cell.replace(" ", "").replace("\u00a0", ""), too_large)
    if value < 0:
        raise ValueError(f"{column} must be non-negative, got {value}")
    if value > sys.float_info.max:
        raise ValueError(too_large)
    return value


@_gc_paused()
def parse_author_summaries(source: Iterable[str] | str) -> list[AuthorSummaryRow]:
    """Parse a delimited author summary table.

    The first non-blank line of ``source`` (read as parse_publications reads
    it) names the columns (tab- or semicolon-delimited): Author is required;
    Id, H, DOC, CIT and the per-role share/FWCI pairs FA/FWCI1, LA/FWCI2,
    CoA/FWCI3, CorA/FWCI4, SA/FWCI5 are optional. Share cells are percentages,
    with or without the ``%`` sign; a "-" or empty cell is an absent value.
    With an Id column, the author ids must be unique.
    """
    source = io.StringIO(source, newline=None) if isinstance(source, str) else source
    lines = (
        (no, line)
        for no, line in enumerate(source, 1)
        if (stripped := line.lstrip()) and stripped[0] != "#"
    )
    header_no, header = next(lines, (0, ""))
    if not header:
        return []

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

    # Each known column's cell position; a column the header lacks reads the
    # empty cell appended past each row's last.
    width = len(columns)
    at = {name: i for i, name in enumerate(columns)}
    author_at, id_at = at["author"], at.get("id", width)
    counts = [(at.get(c, width), c.upper()) for c in _COUNT_COLUMNS]
    shares = [(at.get(c, width), role, c.upper()) for c, role in _SHARE_COLUMNS.items()]
    fwci = [(at.get(c, width), role, c.upper()) for c, role in _FWCI_COLUMNS.items()]
    id_lines: dict[AuthorId, int] = {}
    rows: list[AuthorSummaryRow] = []
    for line_no, line in lines:
        cells = list(map(str.strip, line.split(delim)))
        if len(cells) > width:
            issues.append(
                ParseIssue(line_no, f"{len(cells)} cells for {width} columns")
            )
            continue
        cells += [""] * (width + 1 - len(cells))
        # A row reports its first problem only. Checks run in a fixed column
        # order (H, DOC, CIT, shares, FWCI; docs/formats.md lists it in full),
        # so that problem does not depend on the order of the header.
        try:
            name = cells[author_at]
            if name in _ABSENT:
                raise ValueError("empty Author cell")
            author = name if cells[id_at] in _ABSENT else cells[id_at]
            values = []
            for i, label in counts:
                if (cell := cells[i]) in _ABSENT:
                    values.append(None)
                elif cell.isascii() and cell.isdigit() and len(cell) < 309:
                    # Below 10**308: non-negative and at most the largest double.
                    values.append(int(cell))
                else:
                    values.append(_parse_count(cell, label))
            h, doc, cit = values
            if doc is not None and doc < 1:
                raise ValueError("DOC must be at least 1")
            if h is not None and doc is not None and h > doc:
                raise ValueError(f"H {h} exceeds DOC {doc}")
            role_shares: dict[Role, float] = {}
            for i, role, label in shares:
                if (cell := cells[i]) not in _ABSENT:
                    text = cell[:-1].strip() if cell.endswith("%") else cell
                    percent = float(text.replace(",", "."))
                    if not 0 <= percent <= 100:
                        raise ValueError(f"{label} share {cell!r} is outside 0..100%")
                    role_shares[role] = percent / 100.0
            role_fwci: dict[Role, float] = {}
            for i, role, label in fwci:
                if (cell := cells[i]) not in _ABSENT:
                    value = float(cell.replace(",", "."))
                    if value < 0:
                        raise ValueError(f"{label} must be non-negative")
                    if not math.isfinite(value):
                        raise ValueError(f"{label} must be finite, got {cell!r}")
                    role_fwci[role] = value
            if id_at < width and (first := id_lines.setdefault(author, line_no)) != line_no:
                raise ValueError(f"duplicate Id {author!r} (first seen on line {first})")
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
            continue
        rows.append(AuthorSummaryRow(author, name, h, doc, cit, role_shares, role_fwci))

    if issues:
        raise ParseError(issues)
    return rows


# --- config files -----------------------------------------------------------

_RULE_KEYS = {f.metadata.get("key", f.name): f.name for f in dataclass_fields(FilterConfig)}


def load_config(source: Iterable[str] | str) -> Config:
    """Load ``key=value`` configuration, read from ``source`` as
    parse_publications reads it. Unknown or repeated keys are rejected;
    omitted keys keep their defaults (every filter rule on, precision 2)."""
    rule_values: dict[str, bool] = {}
    precision = Config.precision
    seen: set[str] = set()
    source = io.StringIO(source, newline=None) if isinstance(source, str) else source
    for line_no, raw in enumerate(source, 1):
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
