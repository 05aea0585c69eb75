"""Every frozen corpus answer in perfbench/corpus_golden.json still holds: the
same exit code, default machine block and --json line.

The answers are rewritten only by ``python3 perfbench/corpus.py``, when an
output change is intended.
"""
import importlib.util
from pathlib import Path

from qwalg.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                               ROOT / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def test_corpus_answers_are_unchanged(monkeypatch):
    monkeypatch.chdir(ROOT)  # the golden argv name corpus files from the root
    entries = corpus.load()
    assert entries
    bad = corpus.compare(main, entries)
    for entry in entries:
        rc, line = corpus.run_cli(main, entry["argv"] + ["--json"])
        if (rc, line.strip()) != (entry["rc"], entry["json"]):
            bad.append(" ".join(entry["argv"]) + ": --json line differs")
    assert bad == []
