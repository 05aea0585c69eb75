"""Tiny-size smoke check of the benchmark itself.

    python3 perfbench/smoke.py

For every workload, on the first few queries only: an untraced and a traced
run must emit every metric BENCHMARK.json names, with its unit, and a
deliberately wrong expected answer must be counted as one failed query
instead of crashing the run.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import run

QUERIES = 6


def shrink(wl) -> None:
    wl.rounds = [wl.rounds[0][:QUERIES]]


def corrupt(wl) -> None:
    """Append a copy of the first query whose expected answer is wrong (a
    copy, so that it is never picked as a warm-up or cold-CLI query)."""
    shrink(wl)
    q = replace(wl.rounds[0][0], expect=dict(wl.rounds[0][0].expect))
    wl.rounds[0].append(q)
    if q.kind == "golden":
        q.expect["json"] += " "
    elif q.kind == "check":
        q.expect["admissible"] = not q.expect["admissible"]
    elif "verdict" in q.expect:
        q.expect["verdict"] = "wrong"
    elif "lam" in q.expect:
        q.expect["lam"] = [[(0, (0,) * len(q.expect["lam"][0][0][1]))] * len(row)
                           for row in q.expect["lam"]]
    else:
        q.expect["n"] += 1


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    run.MIN_CYCLES = run.COLD_QUERIES = 1
    run.SETUP_PROBES = run.COLD_REPEATS = 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in sorted(run.PLANS):
        run.PLANS[name] = run.Plan(run.PLANS[name].pool_rounds, 1)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with redirect_stdout(io.StringIO()):
                res = run.run(name, 1, 0.0, trace, prepare=shrink)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want or res["failed"] or not res["correct"]:
                problems.append(f"{name} {key}: metrics {sorted(set(want) ^ set(got))} "
                                f"missing or extra, failed={res['failed']}")
        with redirect_stdout(io.StringIO()):
            res = run.run(name, 1, 0.0, False, prepare=corrupt)
        if res["failed"] != 1 or res["correct"]:
            problems.append(f"{name}: wrong expected answer counted as "
                            f"{res['failed']} failures")
        print(f"{name}: metrics emitted; injected wrong answer counted as "
              f"{res['failed']} failed of {res['attempted']}")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
