import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from kindex import CorpusBundle, parse_publications

sys.path.insert(0, str(Path(__file__).parent))

# On CI (GitHub sets CI=true) a failing property test also prints the
# reproduce_failure blob, so a failure seen only there can be replayed.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def filter_corpus() -> CorpusBundle:
    return parse_publications((DATA / "corpus_filter.txt").read_text())


@pytest.fixture(scope="session")
def natsci_text() -> str:
    return (DATA / "natsci_top_sample.tsv").read_text()


@pytest.fixture(scope="session")
def krating_text() -> str:
    return (DATA / "krating_summary.tsv").read_text()
