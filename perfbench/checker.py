"""Independent output checker for the kindex benchmark.

Every expected number is recomputed from the generator's own records
(``gen.Corpus``, ``gen.Summary``) under the default filter rules of
``docs/formats.md``; this module never imports kindex. Each ``check_*``
function takes one command's stdout and returns a list of problems, empty
when the output is correct.
"""

import math
import random
import re
from collections import defaultdict
from fractions import Fraction

import numpy

from gen import Corpus, Summary

HALF = Fraction(1, 2)


def parse_table(text: str) -> list[dict[str, str]]:
    """Rows of a ``--format table`` output, keyed by header name.

    Columns are space-aligned, so a cell is the text between the start of
    its header and the start of the next one (names may contain spaces).
    """
    lines = text.splitlines()
    if not lines:
        return []
    spots = [(m.group(), m.start()) for m in re.finditer(r"\S+", lines[0])]
    rows = []
    for line in lines[1:]:
        row = {}
        for i, (name, start) in enumerate(spots):
            end = spots[i + 1][1] if i + 1 < len(spots) else None
            row[name] = line[start:end].strip()
        rows.append(row)
    return rows


def parse_plotdata(text: str) -> list[tuple[str, str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "series\tx\ty":
        raise ValueError("plotdata output has no series/x/y header")
    return [tuple(line.split("\t")) for line in lines[1:]]


def half_up(value: Fraction, places: int = 2) -> str:
    """Exact decimal rendering with ties rounded away from zero (value >= 0)."""
    scaled = math.floor(value * 10 ** places + HALF)
    whole, frac = divmod(scaled, 10 ** places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


def _near(printed: str, value: float, places: int) -> bool:
    """True when ``printed`` is ``value`` rounded to ``places`` decimals,
    allowing either neighbour at a tie."""
    try:
        shown = Fraction(printed)
    except ValueError:
        return False
    return abs(shown - Fraction(value)) <= Fraction(1, 2 * 10 ** places) + Fraction(1, 10 ** 9)


# --- corpus truth -----------------------------------------------------------

def corpus_truth(corpus: Corpus) -> dict[str, tuple[int, int, int]]:
    """(DOC, CIT, H) per author under the default rules: indexed citing
    documents only, no flagged citing documents, one unit per link, no
    self-citations, no close associates, one unit per (citing, cited)."""
    flagged = {p.pub_id for p in corpus.pubs if p.flags}
    incoming = defaultdict(list)
    for c in corpus.cites:
        incoming[c.cited_pub].append(c)
    own = defaultdict(list)
    for p in corpus.pubs:
        for a in p.authors:
            own[a].append(p)

    truth = {}
    for author, pubs in own.items():
        associates = {a for p in pubs for a in p.authors if a != author}
        associates |= {inst for p in pubs for a, inst in p.institutions if a == author}
        per_pub = []
        for p in pubs:
            counted: set[str] = set()
            for c in incoming[p.pub_id]:
                if (not c.citing_indexed or c.citing_pub in flagged
                        or set(c.citing_authors) & set(p.authors)
                        or set(c.citing_authors) & associates
                        or set(c.citing_institutions) & associates):
                    continue
                counted.add(c.citing_pub)
            per_pub.append(len(counted))
        per_pub.sort(reverse=True)
        h = sum(1 for rank, n in enumerate(per_pub, 1) if n >= rank)
        truth[author] = (len(pubs), sum(per_pub), h)
    return truth


def check_validate(text: str, corpus: Corpus) -> list[str]:
    want = f"ok: {len(corpus.pubs)} publications, {len(corpus.cites)} citations\n"
    return [] if text == want else [f"validate printed {text!r}, want {want!r}"]


def check_corpus_metrics(text: str, truth: dict, authors: list[str]) -> list[str]:
    """``metrics --corpus``: one row per author in id order, and DOC, CIT
    and H right for each author in ``authors``."""
    rows = parse_table(text)
    listed = [r.get("author") for r in rows]
    if listed != sorted(truth):
        return [f"metrics lists {len(listed)} authors, want the {len(truth)} corpus authors in order"]
    problems = []
    by_author = {r["author"]: r for r in rows}
    for author in authors:
        problems += _author_row_problems(by_author[author], truth[author])
    return problems


def check_author_metrics(text: str, truth: dict, author: str) -> list[str]:
    """``metrics --corpus --author A``: exactly A's row, with right values."""
    rows = parse_table(text)
    if [r.get("author") for r in rows] != [author]:
        return [f"metrics --author {author} printed {len(rows)} rows"]
    return _author_row_problems(rows[0], truth[author])


def _author_row_problems(row: dict, want: tuple[int, int, int]) -> list[str]:
    got = (row.get("doc"), row.get("cit"), row.get("h_index"))
    if got != tuple(str(v) for v in want):
        return [f"{row.get('author')}: doc/cit/h {got}, want {want}"]
    return []


def sample(items, k: int, seed: int, salt: str) -> list:
    items = sorted(items)
    return random.Random(f"{salt}:{seed}").sample(items, min(k, len(items)))


# --- yearly -----------------------------------------------------------------

def yearly_truth(corpus: Corpus) -> list[tuple[int, int, int, int, int, str]]:
    """(year, doc, cited_doc, cit, self_cit, cit_per_doc at 2 places)."""
    pub_by_id = {p.pub_id: p for p in corpus.pubs}
    doc = defaultdict(int)
    cit = defaultdict(int)
    self_cit = defaultdict(int)
    cited = defaultdict(set)
    for p in corpus.pubs:
        doc[p.year] += 1
    for c in corpus.cites:
        p = pub_by_id[c.cited_pub]
        cit[p.year] += c.mentions
        cited[p.year].add(p.pub_id)
        if set(c.citing_authors) & set(p.authors):
            self_cit[p.year] += c.mentions
    return [(y, doc[y], len(cited[y]), cit[y], self_cit[y], half_up(Fraction(cit[y], doc[y])))
            for y in sorted(doc)]


def check_yearly(text: str, truth: list) -> list[str]:
    rows = parse_table(text)
    got = [(r.get("year"), r.get("doc"), r.get("cited_doc"), r.get("cit"),
            r.get("self_cit"), r.get("cit_per_doc")) for r in rows]
    want = [tuple(str(v) for v in row) for row in truth]
    bad = [f"yearly row {g}, want {w}" for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        bad.append(f"yearly printed {len(got)} rows, want {len(want)}")
    return bad


def check_yearly_plot(text: str, truth: list) -> list[str]:
    columns = ("doc", "cited_doc", "cit", "self_cit", "cit_per_doc")
    want = [(column, str(row[0]), str(row[i])) for i, column in enumerate(columns, 1)
            for row in truth]
    got = parse_plotdata(text)
    bad = [f"yearly point {g}, want {w}" for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        bad.append(f"yearly plotdata has {len(got)} points, want {len(want)}")
    return bad


# --- summary tables ---------------------------------------------------------

def k_display_range(row) -> tuple[int, int]:
    """The displayed K of a summary row: K = k_r * FWCI + CIT/DOC, rounded
    half away from zero. Both neighbours are returned at an exact tie."""
    share = row.shares.get
    k_r = (1 + share("FA", 0) + share("CorA", 0) + share("SA", 0)) / (
        1 + share("CoA", 0) + share("LA", 0))
    k = k_r * sum(row.fwci.values(), Fraction(0)) + Fraction(row.cit, row.doc)
    eps = Fraction(1, 10 ** 9)
    return math.floor(k + HALF - eps), math.floor(k + HALF + eps)


def _k_problem(row, printed: str) -> list[str]:
    lo, hi = k_display_range(row)
    if printed not in {str(lo), str(hi)}:
        return [f"{row.author_id}: k_display {printed}, want {lo}"]
    return []


def check_summary_metrics(text: str, summary: Summary, ids: list[str]) -> list[str]:
    """``metrics --summary``: rows in input order; DOC, CIT, H and
    k_display right for the sampled ids."""
    rows = parse_table(text)
    if [r.get("author") for r in rows] != [s.author_id for s in summary.rows]:
        return [f"metrics --summary printed {len(rows)} rows out of input order"]
    problems = []
    by_id = {s.author_id: s for s in summary.rows}
    printed = {r["author"]: r for r in rows}
    for author in ids:
        s, r = by_id[author], printed[author]
        want = (str(s.doc), str(s.cit), "-" if s.h is None else str(s.h))
        got = (r.get("doc"), r.get("cit"), r.get("h_index"))
        if got != want:
            problems.append(f"{author}: doc/cit/h {got}, want {want}")
        problems += _k_problem(s, r.get("k_display"))
    return problems


def check_rank(text: str, summary: Summary, ids: list[str]) -> list[str]:
    """``rank --key k_display``: contiguous ranks over every row, sorted by
    k_display desc, CIT/DOC desc, name, id; k_display right for ``ids``."""
    rows = parse_table(text)
    by_id = {s.author_id: s for s in summary.rows}
    if sorted(r.get("author") for r in rows) != sorted(by_id):
        return [f"rank lists {len(rows)} rows, want every one of {len(by_id)} authors once"]
    if [r.get("rank") for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        return ["rank column is not 1..n"]

    def key(r):
        s = by_id[r["author"]]
        return (-int(r["k_display"]), -Fraction(s.cit, s.doc), s.name, s.author_id)

    problems = [f"rank rows {a['rank']} and {b['rank']} are out of order"
                for a, b in zip(rows, rows[1:]) if key(a) > key(b)]
    printed = {r["author"]: r for r in rows}
    for author in ids:
        problems += _k_problem(by_id[author], printed[author]["k_display"])
    return problems[:20]


def correlate_pairs(summary: Summary) -> tuple[list[int], list[Fraction]]:
    xs, ys = [], []
    for s in summary.rows:
        if s.h is not None and "FA" in s.shares:
            xs.append(s.h)
            ys.append(s.shares["FA"])
    return xs, ys


def check_correlate_plot(text: str, summary: Summary) -> list[str]:
    """``correlate --x H --y FA --format plotdata``: the complete pairs in
    input order, then the least-squares line at each distinct x."""
    xs, ys = correlate_pairs(summary)
    slope, intercept = numpy.polyfit(xs, [float(y) for y in ys], 1)
    points = [("points", half_up(Fraction(x)), half_up(y)) for x, y in zip(xs, ys)]
    trend = [(x, slope * x + intercept) for x in sorted(set(xs))]
    got = parse_plotdata(text)
    if len(got) != len(points) + len(trend):
        return [f"correlate plotdata has {len(got)} points, want {len(points) + len(trend)}"]
    problems = [f"correlate point {g}, want {w}"
                for g, w in zip(got, points) if g != w]
    # The fitted line is only known to float precision: allow either
    # neighbour at a rounding tie.
    for g, (x, y) in zip(got[len(points):], trend):
        if g[0] != "trend" or g[1] != half_up(Fraction(x)) or not _near(g[2], y, 2):
            problems.append(f"correlate trend point {g}, want ({x}, {y:.4f})")
    return problems[:20]


def check_correlate_r(text: str, summary: Summary) -> list[str]:
    """``correlate --x H --y FA`` table: n and r against numpy.corrcoef."""
    xs, ys = correlate_pairs(summary)
    r = numpy.corrcoef(xs, [float(y) for y in ys])[0, 1]
    rows = parse_table(text)
    if len(rows) != 1 or rows[0].get("n") != str(len(xs)):
        return [f"correlate printed {rows}, want n={len(xs)}"]
    if not _near(rows[0].get("r", ""), r, 4):
        return [f"correlate r {rows[0].get('r')}, want {r:.6f}"]
    return []
