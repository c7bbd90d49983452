"""Golden outputs: every command and format on the bundled tests/data files.

Each case runs ``kindex.cli.main`` in-process at the default precision and
compares its exit code, stdout and stderr, byte for byte, with the file
``tests/data/golden/<case>.txt``. A change meant to keep the output fixed
must leave every case passing unedited. To write the files afresh after a
deliberate output change, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kindex.analytics import RANK_KEYS
from kindex.cli import FORMATS, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
CORPORA = ("corpus_filter.txt", "corpus_yearly.txt", "corpus_bad.txt")
SUMMARIES = ("krating_summary.tsv", "natsci_top_sample.tsv")
AUTHORS = {
    "corpus_filter.txt": "t", "corpus_yearly.txt": "a2001", "corpus_bad.txt": "a",
    "krating_summary.tsv": "Zhautykov Bulat", "natsci_top_sample.tsv": "Zhautykov Bulat",
}
CORRELATE_AXES = (("DOC", "CIT"), ("FA", "FWCI1"))


def _cases() -> list[list[str]]:
    inputs = [("--corpus", name) for name in CORPORA] + [("--summary", name) for name in SUMMARIES]
    cases = []
    for fmt in FORMATS:
        tail = ["--format", fmt]
        cases += [["validate", name, *tail] for name in CORPORA]
        cases += [["yearly", name, *tail] for name in CORPORA]
        cases += [["metrics", kind, name, *tail] for kind, name in inputs]
        cases += [["rank", kind, name, "--key", key, *tail]
                  for kind, name in inputs for key in RANK_KEYS]
        cases += [["correlate", name, "--x", x, "--y", y, *tail]
                  for name in SUMMARIES for x, y in CORRELATE_AXES]
    cases += [["metrics", kind, name, "--author", AUTHORS[name]] for kind, name in inputs]
    return cases


def _case_id(argv: list[str]) -> str:
    return "_".join(arg.lstrip("-").replace(" ", "-").replace(".", "-") for arg in argv)


def _run(argv: list[str]) -> str:
    """The case's exit code, stdout and stderr as one text."""
    resolved = [str(DATA / arg) if arg in AUTHORS else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(resolved)
    return f"exit {code}\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


@pytest.mark.parametrize("argv", _cases(), ids=_case_id)
def test_output_matches_golden(argv):
    expected = (GOLDEN / f"{_case_id(argv)}.txt").read_text(encoding="utf-8")
    assert _run(argv) == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == {_case_id(a) for a in _cases()}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in _cases():
        (GOLDEN / f"{_case_id(argv)}.txt").write_text(_run(argv), encoding="utf-8", newline="\n")
