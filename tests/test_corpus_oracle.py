"""An exact oracle for the paper's per-author numbers on the corpus path.

The role rule of ``model._roles_in`` and the formulas of the ``indices``
docstring are restated here in Fractions, over the benchmark generator's own
records (``perfbench/gen.py``, imported read-only), and checked against the
k_r, FWCI total and K that ``kindex metrics --corpus`` prints. CIT and DOC
come from the printed row: the filter rules have their own ground truth in
tests/test_filtering.py.
"""

import contextlib
import csv
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from kindex.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


def _roles(pub, author):
    """The roles ``author`` holds in ``pub``, read straight off the byline."""
    if len(pub.authors) == 1:
        roles = {"SA"}
    elif author == pub.authors[0]:
        roles = {"FA"}
    elif author == pub.authors[-1]:
        roles = {"LA"}
    else:
        roles = {"CoA"}
    return roles | {"CorA"} if author in pub.corresponding else roles


def exact_rows(corpus):
    """author -> (k_r, FWCI total or None) as Fractions."""
    own = {}
    for pub in corpus.pubs:
        for author in pub.authors:
            own.setdefault(author, []).append(pub)
    rows = {}
    for author, pubs in own.items():
        held = {role: [] for role in ("FA", "LA", "CoA", "CorA", "SA")}
        for pub in pubs:
            for role in _roles(pub, author):
                held[role].append(pub)
        share = {role: Fraction(len(p), len(pubs)) for role, p in held.items()}
        means = []
        for p in held.values():
            values = [Fraction(pub.fwci) for pub in p if pub.fwci is not None]
            if values:
                means.append(sum(values) / len(values))
        if all(pub.alphabetical for pub in pubs):
            k_r = Fraction(1)
        else:
            k_r = ((1 + share["FA"] + share["CorA"] + share["SA"])
                   / (1 + share["CoA"] + share["LA"]))
        rows[author] = k_r, sum(means) if means else None
    return rows


def _printed_rows(path, precision):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["metrics", "--corpus", str(path), "--format", "csv",
                     "--precision", str(precision)]) == 0
    return list(csv.DictReader(io.StringIO(out.getvalue())))


def _close(printed, exact, precision):
    """``printed`` is ``exact`` rounded at ``precision`` places, give or take
    the float error of the computation."""
    return abs(Fraction(printed) - exact) <= Fraction(1, 2 * 10**precision) + Fraction(1, 10**9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 400),
       precision=st.sampled_from([2, 7, 12]))
def test_printed_k_values_match_the_exact_formulas(tmp_path_factory, seed, size, precision):
    corpus = gen.make_corpus(seed, size)
    path = tmp_path_factory.mktemp("oracle") / "corpus.txt"
    path.write_text(corpus.text(), encoding="utf-8")
    exact = exact_rows(corpus)
    rows = _printed_rows(path, precision)
    assert sorted(row["author"] for row in rows) == sorted(exact)
    for row in rows:
        k_r, fwci = exact[row["author"]]
        k = k_r * (fwci or 0) + Fraction(int(row["cit"]), int(row["doc"]))
        assert _close(row["k_r"], k_r, precision), row
        assert (row["fwci_total"] == "-") if fwci is None else _close(
            row["fwci_total"], fwci, precision), row
        assert _close(row["k_exact"], k, precision), row
        # K is non-negative, so half away from zero is half up; at an exact
        # tie the float K may fall on either side.
        display = math.floor(k + Fraction(1, 2))
        tie = k - math.floor(k) == Fraction(1, 2)
        assert int(row["k_display"]) in ({display - 1, display} if tie else {display}), row
