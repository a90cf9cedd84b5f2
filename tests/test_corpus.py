"""The CLI's single-config outputs against the committed byte corpus.

A change that moves an output must regenerate the corpus with
`PYTHONPATH=src python tests/write_corpus.py`, so that its diff lists
every moved value.
"""

import json
import re

from write_corpus import CORPUS, write_corpus


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name != "VERSIONS")


def test_outputs_match_the_corpus_byte_for_byte(tmp_path):
    written = tmp_path / "corpus"
    write_corpus(written)
    assert _files(written) == _files(CORPUS)
    versions = (CORPUS / "VERSIONS").read_text().strip()
    for name in _files(CORPUS):
        assert (written / name).read_bytes() == (CORPUS / name).read_bytes(), f"{name} (corpus written by {versions})"


def test_every_refusal_names_the_path_or_flag_it_refuses():
    """Each recorded run that exits 1 names a JSON path ($ or $.key...) or a
    command-line flag in its stderr, so its input can be found."""
    records = json.loads((CORPUS / "runs.json").read_text(encoding="utf-8"))
    refused = [r for r in records if r["exit_code"] == 1]
    assert refused
    assert [r["name"] for r in refused if not re.search(r"\$[.:]|--\w", r["stderr"])] == []
