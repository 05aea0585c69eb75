"""Frozen answers for generated benchmark queries: every query of
``gen_localize(seed 7, 1 round)`` and ``gen_classify(seed 7, 1 round)``
(corpus queries left out; test_corpus_golden.py freezes those) still gives
the same exit code, default machine block and --json line.

The input texts are stored with the answers, so the test depends neither on
the generators nor on ``random`` across Python versions.  Rewrite the stored
file, only when an output change is intended, with

    PYTHONPATH=src python3 tests/test_generated_answers.py

from the repository root.
"""
import importlib.util
import json
from pathlib import Path

from qwalg.cli import main

ROOT = Path(__file__).resolve().parents[1]
STORED = Path(__file__).with_name("generated_answers.json")
INPUTS = "in"  # directory of the input texts, relative to the working directory


_spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                               ROOT / "perfbench" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def answer(argv: list[str]) -> dict:
    rc, text = corpus.run_cli(main, argv)
    _, line = corpus.run_cli(main, argv + ["--json"])
    return {"argv": argv, "rc": rc, "machine": corpus.machine_block(text),
            "json": line.strip()}


def write_inputs(files: dict[str, str], where: Path) -> None:
    (where / INPUTS).mkdir(exist_ok=True)
    for path, text in files.items():
        (where / path).write_text(text)


def test_generated_answers_are_unchanged(tmp_path, monkeypatch):
    stored = json.loads(STORED.read_text())
    write_inputs(stored["files"], tmp_path)
    monkeypatch.chdir(tmp_path)  # the stored argv name input files relatively
    assert len(stored["answers"]) >= 100
    bad = [" ".join(entry["argv"]) for entry in stored["answers"]
           if answer(entry["argv"]) != entry]
    assert bad == []


if __name__ == "__main__":
    import os
    import sys
    import tempfile
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    localize = workloads.gen_localize(7, 1, INPUTS)
    classify = workloads.gen_classify(7, 1, INPUTS, [])
    files = {**localize.files, **classify.files}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(files, Path(tmp))
        os.chdir(tmp)
        answers = [answer(q.argv) for q in localize.queries + classify.queries]
    STORED.write_text(json.dumps({"files": files, "answers": answers}, indent=1) + "\n")
    print(f"froze {len(answers)} generated answers in {STORED}")
