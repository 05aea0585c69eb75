"""Frozen corpus answers: the machine block of every corpus file under every
subcommand that applies to it, compared byte for byte on each ``classify``
run (default output must not change).

    python3 perfbench/corpus.py          # rewrite corpus_golden.json

Run it from the repository root, only when an output change is intended.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = "src/qwalg/corpus"
GOLDEN = Path(__file__).with_name("corpus_golden.json")
SINGLE = (["check"], ["reduce"], ["invariants"], ["torus", "simple"],
          ["torus", "center"], ["qweyl", "localize"], ["qweyl", "invariants"],
          ["embed", "torus"], ["embed", "mixed"])
PAIRS = ((["equiv"], "s22q", "s22q2", []),
         (["equiv"], "mixed_weyl_F", "mixed_weyl_Fprime", []),
         (["equiv"], "weyl_a11", "weyl_triangle", []),
         (["equiv"], "quantum_plane", "torus_d2", []),
         (["torus", "iso"], "torus_q2", "torus_d2", ["--param", "q"]),
         (["torus", "iso"], "quantum_plane", "torus_q2", ["--param", "q"]),
         (["qweyl", "equiv"], "qweyl_a2", "qweyl_a2", []))
# Subcommands of the classify workload; their corpus answers are also timed.
CLASSIFY_COMMANDS = ("check", "reduce", "invariants", "equiv")


def run_cli(main, argv) -> tuple[int | str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an answer the oracle rejects
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def machine_block(stdout: str) -> str:
    lines = stdout.split("\n")
    return "\n".join(lines[lines.index("---") + 1:]) if "---" in lines else ""


def candidates() -> list[list[str]]:
    files = sorted(p.stem for p in Path(CORPUS).glob("*.qwa"))
    out = [cmd + [f"{CORPUS}/{f}.qwa"] for f in files for cmd in SINGLE]
    out += [cmd + [f"{CORPUS}/{a}.qwa", f"{CORPUS}/{b}.qwa"] + extra
            for cmd, a, b, extra in PAIRS]
    return out


def capture(main) -> list[dict]:
    """Every candidate that yields a verdict (exit 0 or 1), with its default
    machine block and its --json line."""
    entries = []
    for argv in candidates():
        rc, text = run_cli(main, argv)
        if rc not in (0, 1):
            continue
        _, line = run_cli(main, argv + ["--json"])
        entries.append({"argv": argv, "rc": rc, "machine": machine_block(text),
                        "json": line.strip()})
    return entries


def load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def compare(main, entries) -> list[str]:
    """Reasons for every entry whose default machine block or exit code moved."""
    bad = []
    for entry in entries:
        rc, text = run_cli(main, entry["argv"])
        if rc != entry["rc"] or machine_block(text) != entry["machine"]:
            bad.append(" ".join(entry["argv"]) + ": machine block differs")
    return bad


if __name__ == "__main__":
    sys.path.insert(0, "src")
    from qwalg.cli import main as cli_main
    golden = capture(cli_main)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"froze {len(golden)} corpus answers in {GOLDEN}")
