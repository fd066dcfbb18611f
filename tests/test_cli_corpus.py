import json

from cli_corpus import EXPECTED, mismatches, run_corpus


def test_cli_corpus_matches_its_expectations(tmp_path):
    """Every command of the committed corpus keeps its exit code, status, key
    set and values; regenerate with ``python tests/cli_corpus.py``."""
    expected = json.loads(EXPECTED.read_text())
    assert mismatches(run_corpus(tmp_path), expected) == []
