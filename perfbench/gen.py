"""Seeded synthetic inputs for the kindex benchmark.

Two generators, each a pure function of a seed and a size:

* ``make_corpus(seed, n_pubs)``: a corpus file (``pub`` and ``cite``
  records) with about six citation links per publication and about three
  publications per author. It covers coauthorship within research groups,
  author institutions, citing institutions, unindexed and external citing
  documents, flagged documents, multi-mention links, repeated
  (citing, cited) pairs and alphabetical bylines, so every citation
  filter rule fires at a non-trivial rate.
* ``make_summary(seed, n_rows)``: an author summary table with absent
  cells (``-`` and empty), ``%`` and bare percentages, ``.`` and ``,``
  decimals and space digit separators.

Only the formats documented in ``docs/formats.md`` are emitted. The
generators keep their own exact records (``Corpus``, ``SummaryRow``) so
the output checker can recompute every expected number without kindex.
The same seed and size give byte-identical text.

Usage::

    python3 perfbench/gen.py corpus --seed 7 --size 2000 --out corpus.txt
    python3 perfbench/gen.py summary --seed 7 --size 10000 --out table.tsv
"""

import argparse
import math
import random
from dataclasses import dataclass
from fractions import Fraction

VENUE_TIERS = ("Q1", "Q2", "Q3", "Q4", "BOOK", "UNRANKED")
FLAG_SETS = (("ERRONEOUS",), ("NONSCIENTIFIC",), ("ERRONEOUS", "NONSCIENTIFIC"))
# Byline lengths 1..6 and their weights (mean about 2.9 authors).
BYLINE_WEIGHTS = (12, 25, 28, 20, 10, 5)
# Coauthors are drawn from this many neighbouring author ids on each side,
# which makes research groups whose members cite and coauthor each other.
GROUP_RADIUS = 12
LINKS_PER_PUB = 6


@dataclass(frozen=True)
class Pub:
    pub_id: str
    year: int
    authors: tuple[str, ...]
    corresponding: tuple[str, ...]
    venue_tier: str | None
    fwci: str | None
    indexed: bool
    alphabetical: bool
    flags: tuple[str, ...]
    institutions: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Cite:
    citing_pub: str
    cited_pub: str
    citing_authors: tuple[str, ...]
    citing_institutions: tuple[str, ...]
    citing_indexed: bool
    mentions: int


@dataclass(frozen=True)
class Corpus:
    seed: int
    pubs: tuple[Pub, ...]
    cites: tuple[Cite, ...]

    @property
    def records(self) -> int:
        return len(self.pubs) + len(self.cites)

    def text(self) -> str:
        lines = [f"# synthetic corpus: seed={self.seed} pubs={len(self.pubs)}"]
        lines.extend(_pub_line(p) for p in self.pubs)
        lines.append("")
        lines.append("# citation links")
        lines.extend(_cite_line(c) for c in self.cites)
        return "\n".join(lines) + "\n"


def _pub_line(p: Pub) -> str:
    parts = ["type=pub", f"pub_id={p.pub_id}", f"year={p.year}",
             "authors=" + ",".join(p.authors)]
    if p.corresponding:
        parts.append("corresponding=" + ",".join(p.corresponding))
    if p.venue_tier is not None:
        parts.append(f"venue_tier={p.venue_tier}")
    if p.fwci is not None:
        parts.append(f"fwci={p.fwci}")
    if not p.indexed:
        parts.append("indexed=false")
    if p.alphabetical:
        parts.append("alphabetical=true")
    if p.flags:
        parts.append("flags=" + ",".join(p.flags))
    if p.institutions:
        parts.append("institutions=" + ",".join(f"{a}:{n}" for a, n in p.institutions))
    return "\t".join(parts)


def _cite_line(c: Cite) -> str:
    parts = ["type=cite", f"citing_pub={c.citing_pub}", f"cited_pub={c.cited_pub}"]
    if c.citing_authors:
        parts.append("citing_authors=" + ",".join(c.citing_authors))
    if c.citing_institutions:
        parts.append("citing_institutions=" + ",".join(c.citing_institutions))
    if not c.citing_indexed:
        parts.append("citing_indexed=false")
    if c.mentions != 1:
        parts.append(f"mentions={c.mentions}")
    return "\t".join(parts)


def _institution_name(k: int) -> str:
    # Every seventh name carries a colon, which the format allows.
    return f"Lab {k}: Applied Science" if k % 7 == 3 else f"Institute {k}"


def make_corpus(seed: int, n_pubs: int) -> Corpus:
    """Generate a corpus of ``n_pubs`` publications and ~6 links each."""
    if n_pubs < 2:
        raise ValueError("a corpus needs at least two publications")
    rng = random.Random(f"kindex-corpus:{seed}:{n_pubs}")
    # One pool author per publication: with ~2.9 authors per byline, each
    # author holds about three publications.
    n_authors = n_pubs
    n_inst = max(3, n_authors // 8)
    authors = [f"au{i:06d}" for i in range(n_authors)]
    institutions = [_institution_name(k) for k in range(n_inst)]
    home = [institutions[rng.randrange(n_inst)] for _ in range(n_authors)]

    def group_member(lead: int) -> int:
        return (lead + rng.randint(-GROUP_RADIUS, GROUP_RADIUS)) % n_authors

    pubs: list[Pub] = []
    for i in range(n_pubs):
        lead = rng.randrange(n_authors)
        size = min(n_authors, rng.choices(range(1, 7), BYLINE_WEIGHTS)[0])
        members = [lead]
        while len(members) < size:
            candidate = group_member(lead)
            if candidate not in members:
                members.append(candidate)
        byline = [authors[m] for m in members]
        alphabetical = size > 1 and rng.random() < 0.06
        if alphabetical:
            byline.sort()
        corresponding: tuple[str, ...] = ()
        roll = rng.random()
        if roll < 0.6:
            corresponding = (rng.choice(byline),)
        elif roll < 0.7 and size > 1:
            corresponding = tuple(sorted(rng.sample(byline, 2)))
        inst_pairs = []
        for m in members:
            if rng.random() < 0.75:
                name = home[m] if rng.random() < 0.9 else rng.choice(institutions)
                inst_pairs.append((authors[m], name))
        pubs.append(Pub(
            pub_id=f"p{i:07d}",
            year=rng.randint(1996, 2024),
            authors=tuple(byline),
            corresponding=corresponding,
            venue_tier=rng.choice(VENUE_TIERS) if rng.random() < 0.7 else None,
            fwci=f"{rng.lognormvariate(0.0, 0.7):.3f}" if rng.random() < 0.85 else None,
            indexed=rng.random() >= 0.04,
            alphabetical=alphabetical,
            flags=rng.choice(FLAG_SETS) if rng.random() < 0.05 else (),
            institutions=tuple(inst_pairs),
        ))

    # Heavy-tailed popularity, so some publications collect many links.
    weights = [rng.paretovariate(1.6) for _ in range(n_pubs)]
    cited_idx = rng.choices(range(n_pubs), weights, k=LINKS_PER_PUB * n_pubs)
    external: list[tuple[str, tuple[str, ...], tuple[str, ...], bool]] = []
    cites: list[Cite] = []
    for ci in cited_idx:
        cited = pubs[ci]
        mentions = 1 if rng.random() < 0.78 else rng.randint(2, 5)
        roll = rng.random()
        if roll < 0.04 and cites:
            # The same (citing, cited) pair again, as a second link.
            prev = cites[rng.randrange(len(cites))]
            cites.append(Cite(prev.citing_pub, prev.cited_pub, prev.citing_authors,
                              prev.citing_institutions, prev.citing_indexed, mentions))
            continue
        if roll < 0.38:
            citing = pubs[rng.randrange(n_pubs)]
            if citing.pub_id == cited.pub_id:
                citing = pubs[(ci + 1) % n_pubs]
            inst = tuple(sorted({n for _, n in citing.institutions}))
            cites.append(Cite(citing.pub_id, cited.pub_id, citing.authors, inst,
                              citing.indexed, mentions))
            continue
        if roll < 0.50 and external:
            # An external document that already cited something else.
            doc_id, c_auth, c_inst, c_indexed = external[rng.randrange(len(external))]
        else:
            doc_id = f"x{len(external):07d}"
            c_auth, c_inst = _external_byline(rng, cited, authors, home, institutions)
            c_indexed = rng.random() >= 0.08
            external.append((doc_id, c_auth, c_inst, c_indexed))
        cites.append(Cite(doc_id, cited.pub_id, c_auth, c_inst, c_indexed, mentions))
    return Corpus(seed=seed, pubs=tuple(pubs), cites=tuple(cites))


def _external_byline(rng, cited: Pub, authors, home, institutions):
    """Authors and institutions of a citing document outside the corpus.

    Some bylines reuse an author of the cited work (self-citation), some a
    member of the cited lead's group (a likely close associate), and some
    name a cited author's home institution.
    """
    names = [f"xa{rng.randrange(10 * len(authors)):07d}"
             for _ in range(rng.randint(0, 3))]
    roll = rng.random()
    if roll < 0.08:
        names.append(rng.choice(cited.authors))
    elif roll < 0.16:
        lead = int(cited.authors[0][2:])
        names.append(authors[(lead + rng.randint(-GROUP_RADIUS, GROUP_RADIUS)) % len(authors)])
    names = list(dict.fromkeys(names))
    inst: list[str] = []
    roll = rng.random()
    if roll < 0.05:
        inst.append(home[int(rng.choice(cited.authors)[2:])])
    elif roll < 0.45:
        inst.append(rng.choice(institutions))
    return tuple(names), tuple(inst)


# --- summary tables ---------------------------------------------------------

SUMMARY_COLUMNS = ("Id", "Author", "H", "DOC", "CIT", "FA", "FWCI1", "LA",
                   "FWCI2", "CoA", "FWCI3", "CorA", "FWCI4", "SA", "FWCI5")
# (share column, FWCI column) per role, in the documented slot order.
ROLE_COLUMNS = (("FA", "FWCI1"), ("LA", "FWCI2"), ("CoA", "FWCI3"),
                ("CorA", "FWCI4"), ("SA", "FWCI5"))
_SYLLABLES = ("ka", "ra", "zhan", "bek", "tay", "mur", "sul", "nur", "as",
              "ay", "ol", "er", "gul", "dan", "ib", "sa", "ten", "kul")


@dataclass(frozen=True)
class SummaryRow:
    """Exact values of one summary row. Shares are fractions of 1 and an
    absent cell has no entry."""

    author_id: str
    name: str
    h: int | None
    doc: int
    cit: int
    shares: dict[str, Fraction]
    fwci: dict[str, Fraction]
    cells: tuple[str, ...]


@dataclass(frozen=True)
class Summary:
    seed: int
    rows: tuple[SummaryRow, ...]

    @property
    def records(self) -> int:
        return len(self.rows)

    def text(self) -> str:
        lines = [f"# synthetic author summary: seed={self.seed} rows={len(self.rows)}",
                 "\t".join(SUMMARY_COLUMNS)]
        lines.extend("\t".join(r.cells) for r in self.rows)
        return "\n".join(lines) + "\n"


def _count_cell(rng, value: int) -> str:
    if value >= 1000 and rng.random() < 0.5:
        return f"{value:,}".replace(",", " ")
    return str(value)


def _absent_cell(rng) -> str:
    return "-" if rng.random() < 0.6 else ""


def _decimal_cell(rng, value: int, scale: int) -> str:
    """``value / 10**scale`` written with '.' or ',' as decimal separator."""
    whole, frac = divmod(value, 10 ** scale)
    if frac == 0:
        return str(whole)
    text = f"{whole}.{frac:0{scale}d}".rstrip("0")
    return text.replace(".", ",") if rng.random() < 0.4 else text


def make_summary(seed: int, n_rows: int) -> Summary:
    """Generate an author summary table of ``n_rows`` rows."""
    rng = random.Random(f"kindex-summary:{seed}:{n_rows}")
    rows = []
    for i in range(n_rows):
        author_id = f"s{i:07d}"
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))).title()
        name = f"{name} {chr(65 + rng.randrange(26))}."
        doc = max(1, int(math.exp(rng.uniform(0.0, math.log(3000)))))
        cit = int(doc * rng.lognormvariate(math.log(8.0), 1.0))
        h = min(doc, int(math.sqrt(cit) * rng.uniform(0.4, 1.0)))
        h_value = None if rng.random() < 0.05 else h

        # Positional shares in tenths of a percent summing to 100%, plus
        # an independent corresponding-author share.
        if rng.random() < 0.1:
            tenths = {"FA": 0, "LA": 0, "CoA": 0, "SA": 1000}
        else:
            weights = [rng.random() for _ in range(3)]
            total = sum(weights)
            fa, la = (int(1000 * w / total) for w in weights[:2])
            tenths = {"FA": fa, "LA": la, "CoA": 1000 - fa - la, "SA": 0}
        tenths["CorA"] = rng.randint(0, 1000)

        shares: dict[str, Fraction] = {}
        fwci: dict[str, Fraction] = {}
        role_cells = []
        for share_col, fwci_col in ROLE_COLUMNS:
            if rng.random() < 0.08:
                role_cells.append(_absent_cell(rng))
            else:
                shares[share_col] = Fraction(tenths[share_col], 1000)
                cell = _decimal_cell(rng, tenths[share_col], 1)
                role_cells.append(cell + "%" if rng.random() < 0.5 else cell)
            if rng.random() < 0.15:
                role_cells.append(_absent_cell(rng))
            else:
                thousandths = int(1000 * rng.lognormvariate(0.0, 0.8))
                fwci[fwci_col] = Fraction(thousandths, 1000)
                role_cells.append(_decimal_cell(rng, thousandths, 3))
        cells = (author_id, name,
                 _absent_cell(rng) if h_value is None else str(h_value),
                 _count_cell(rng, doc), _count_cell(rng, cit), *role_cells)
        rows.append(SummaryRow(author_id, name, h_value, doc, cit, shares, fwci, cells))
    return Summary(seed=seed, rows=tuple(rows))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("corpus", "summary"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True,
                        help="publications (corpus) or rows (summary)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make = make_corpus if args.kind == "corpus" else make_summary
    data = make(args.seed, args.size)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(data.text())
    print(f"wrote {data.records} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
