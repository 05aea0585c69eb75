"""qwalg benchmark: one closed-loop client issuing CLI queries in process.

    python3 perfbench/run.py --workload localize|classify|torus --seed N \
        --seconds S --trace 0|1

Run from the repository root (the script changes there itself).  Each query
is one ``qwalg.cli.main([..., "--json"])`` call on generated ``.qwa`` text,
issued only after the previous one returned, so parse, compute and output
are all timed.  Answers are checked by stdlib oracles after the timed loop.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench-work"     # generated inputs, removed when the run ends
OUT = ".perfbench-out"       # span dumps of traced runs
MIN_CYCLES = 2               # every query runs at least this often per run
SETUP_PROBES = 6             # fresh interpreters timed for setup_s
COLD_QUERIES = 4             # subsample size for cli_cold_ms_p50
COLD_REPEATS = 4             # subprocess runs per subsample query
HARD_CAP_S = 120.0           # a timed loop never runs longer than this
# Timings are reported at a nominal machine speed: the one at which the fixed
# job of reference_s() takes REF_NOMINAL_S (about its median on the 2-vCPU
# Xeon VM the baseline was measured on).  That VM's speed drifts by up to 2x
# over seconds to minutes.  The job runs between queries every REF_EVERY_S
# and between subprocess runs, and the timings are rescaled by it.
REF_NOMINAL_S = 1.5e-3
REF_EVERY_S = 0.1
# Only part of a subprocess's time scales with the interpreter's speed
# (process creation and file reads do not): there, cold CLI calls took time
# proportional to the square root of the reference time, so subprocess
# timings are rescaled by the square root of the speed ratio.
SUBPROCESS_SCALING = 0.5


@dataclass(frozen=True)
class Plan:
    pool_rounds: int     # rounds generated; the timed loop cycles through them
    trace_rounds: int    # rounds run untraced, then traced, with --trace 1


# Pools hold at least 100 distinct queries; with MIN_CYCLES passes, p90 has at
# least 20 samples beyond it.
PLANS = {"localize": Plan(2, 1), "classify": Plan(4, 4), "torus": Plan(3, 20)}


def generate(name: str, seed: int, workdir: str):
    import workloads
    rounds = PLANS[name].pool_rounds
    if name == "localize":
        return workloads.gen_localize(seed, rounds, workdir)
    if name == "torus":
        return workloads.gen_torus(seed, rounds, workdir)
    import corpus
    timed = [(e["argv"], {"rc": e["rc"], "json": e["json"]}) for e in corpus.load()
             if e["argv"][0] in corpus.CLASSIFY_COMMANDS]
    return workloads.gen_classify(seed, rounds, workdir, timed)


def warmup_queries(wl) -> list:
    """The cheapest query of every scalar group, in pool order."""
    best: dict = {}
    for q in wl.queries:
        if q.group not in best or q.cost < best[q.group].cost:
            best[q.group] = q
    return list(best.values())


def setup(name: str, seed: int):
    """Import qwalg, write the inputs and run one untimed query per scalar
    group (filling the coefficient-ring cache).  Returns the workload and
    its directory."""
    from qwalg import cli
    import corpus
    workdir = f"{WORK}/{name}-{seed}-{os.getpid()}"
    wl = generate(name, seed, workdir)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    for path, text in wl.files.items():
        Path(path).write_text(text, encoding="utf-8")
    for q in warmup_queries(wl):
        corpus.run_cli(cli.main, q.argv + ["--json"])
    return wl, workdir


def reference_s() -> float:
    """Seconds a fixed pure-Python job takes right now (median of three)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        d: dict = {}
        for i in range(4000):
            k = (i % 61, i % 7)
            d[k] = d.get(k, 0) + i * i
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Reference-job samples over time.  ``nominal`` rescales a wall-clock
    interval to the machine speed at which the reference job takes
    REF_NOMINAL_S, interpolating the samples at the interval's midpoint."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t = perf_counter()
        self.samples.append((t, reference_s()))

    def due(self) -> bool:
        return perf_counter() - self.samples[-1][0] >= REF_EVERY_S

    def nominal(self, start: float, seconds: float) -> float:
        mid = start + seconds / 2
        later = next((k for k, (t, _) in enumerate(self.samples) if t >= mid),
                     len(self.samples) - 1)
        (t0, r0), (t1, r1) = self.samples[max(later - 1, 0)], self.samples[later]
        ref = r1 if t1 == t0 else r0 + (r1 - r0) * min(max((mid - t0) / (t1 - t0), 0), 1)
        return seconds * REF_NOMINAL_S / ref


def loop(wl, *, seconds: float | None = None, rounds: int | None = None,
         recorder=None, between=None) -> tuple[list, float, int]:
    """Closed loop over whole rounds, cycling through the pool: a fixed
    number of rounds, or whole pool cycles until ``seconds`` have passed and
    at least MIN_CYCLES cycles have run.  Between queries, ``between`` runs
    its next subprocess when due, and the reference job runs every
    REF_EVERY_S.  Returns (query, exit code, stdout, nominal seconds) per
    query, the raw wall time of the loop and the rounds run."""
    from qwalg import cli
    import corpus
    timed = []
    pool = len(wl.rounds)
    speed = Speed()
    speed.sample()
    t0 = perf_counter()
    i = 0
    while True:
        for q in wl.rounds[i % pool]:
            if between is not None and between.due():
                between.run_next()
            if speed.due():
                speed.sample()
            if recorder is not None:
                recorder.query = len(timed)
            start = perf_counter()
            rc, out = corpus.run_cli(cli.main, q.argv + ["--json"])
            timed.append((q, rc, out, start, perf_counter() - start))
        i += 1
        elapsed = perf_counter() - t0
        if rounds is not None:
            if i >= rounds:
                break
        elif elapsed >= seconds and i % pool == 0 and i >= MIN_CYCLES * pool:
            break
        if elapsed > HARD_CAP_S:
            break
    speed.sample()
    results = [(q, rc, out, speed.nominal(start, dt)) for q, rc, out, start, dt in timed]
    return results, perf_counter() - t0, i


def verify(results) -> list[str]:
    """One reason per failed query; identical repeated answers are judged once."""
    import oracles
    bad, verdicts = [], {}
    for q, rc, out, _ in results:
        key = (id(q), rc, out)
        if key not in verdicts:
            verdicts[key] = oracles.check(q, rc, out)
        if verdicts[key] is not None:
            bad.append(f"{' '.join(q.argv)}: {verdicts[key]}")
    return bad


def probe_setup_s(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to it being ready for the
    first timed query (raw wall time)."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--setup-probe"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(lines[1]) - t0


def at_nominal_speed(times: list[float], refs: list[float]) -> float:
    """Median subprocess time rescaled by the median reference sample around
    it, to the power SUBPROCESS_SCALING."""
    ratio = REF_NOMINAL_S / statistics.median(refs)
    return statistics.median(times) * ratio ** SUBPROCESS_SCALING


class Subprocesses:
    """The subprocess timings of a run: set-up probes and cold CLI calls.
    They run one at a time between queries of the timed loop, spread evenly
    over it (query timings exclude them), so that they sample the machine
    over the whole run as the queries do; a reference sample follows each."""

    def __init__(self, name: str, seed: int, wl, seconds: float):
        self.name, self.seed = name, seed
        cold = warmup_queries(wl)[:COLD_QUERIES] * COLD_REPEATS
        every = -(-len(cold) // SETUP_PROBES)
        # None stands for a set-up probe, placed before every few cold calls.
        self.pending = [x for k, q in enumerate(cold)
                        for x in ((None, q) if k % every == 0 else (q,))]
        self.interval = seconds / (len(self.pending) + 1)
        self.last = perf_counter()
        self.setup_times: list[float] = []
        self.cold_times: list[float] = []
        self.refs = [reference_s()]
        self.bad: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", self.env.get("PYTHONPATH")]))

    def due(self) -> bool:
        return bool(self.pending) and perf_counter() - self.last >= self.interval

    def run_next(self) -> None:
        import oracles
        q = self.pending.pop(0)
        if q is None:
            self.setup_times.append(probe_setup_s(self.name, self.seed))
        else:
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "qwalg.cli", *q.argv, "--json"],
                                  capture_output=True, text=True, env=self.env,
                                  timeout=120, cwd=ROOT)
            self.cold_times.append(perf_counter() - start)
            reason = oracles.check(q, proc.returncode, proc.stdout)
            if reason is not None:
                self.bad.append(f"cold {' '.join(q.argv)}: {reason}")
        self.refs.append(reference_s())
        self.last = perf_counter()

    def finish(self) -> None:
        while self.pending:
            self.run_next()


def end_to_end(name: str, seed: int, seconds: float, wl):
    from qwalg import cli
    import corpus
    subs = Subprocesses(name, seed, wl, seconds)
    results, wall, rounds = loop(wl, seconds=seconds, between=subs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    subs.finish()
    bad = verify(results) + subs.bad
    attempted = len(results) + len(subs.cold_times)
    if name == "classify":
        golden = corpus.load()
        bad += corpus.compare(cli.main, golden)
        attempted += len(golden)
    lat_ms = [r[3] * 1000 for r in results]
    print(f"timed loop: {len(results)} queries ({rounds // len(wl.rounds)} cycles of "
          f"{sum(map(len, wl.rounds))}) in {wall:.2f} s wall, {sum(lat_ms) / 1000:.2f} s "
          f"nominal; p90 from {len(lat_ms)} samples; setup median of "
          f"{len(subs.setup_times)}; cold CLI median of {len(subs.cold_times)}")
    metrics = {
        "queries_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "query_ms_p50": statistics.median(lat_ms),
        "query_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": at_nominal_speed(subs.setup_times, subs.refs),
        "peak_rss_mb": rss_mb,
        "cli_cold_ms_p50": at_nominal_speed(subs.cold_times, subs.refs) * 1000,
    }
    return metrics, attempted, bad


def per_layer(name: str, seed: int, wl):
    from spans import Recorder
    rounds = PLANS[name].trace_rounds
    plain, wall_plain, _ = loop(wl, rounds=rounds)
    from qwalg.cyclo import CoeffRing
    rec = Recorder()
    rec.install()
    try:
        traced, wall_traced, _ = loop(wl, rounds=rounds, recorder=rec)
        # The warm-up built the rings, so the traced queries hit the cache:
        # build each ring once more, uncached, to time its set-up.
        for group in list(CoeffRing._cache):
            CoeffRing._init(object.__new__(CoeffRing), group)
    finally:
        rec.uninstall()
    bad = verify(plain) + verify(traced)
    metrics = rec.layer_metrics()
    by_cls: dict[str, list[float]] = {}
    for q, _, _, dt in plain:
        if q.kind == "localize":
            n_cls, phi_cls = q.cls.split(".")
            by_cls.setdefault(n_cls, []).append(dt * 1000)
            by_cls.setdefault(phi_cls, []).append(dt * 1000)
    for key in ("n2", "n3", "n4", "n5", "phi1", "phi_gt1"):
        metrics[f"qweyl.localize_ms.{key}"] = statistics.median(by_cls.get(key, [0.0]))
    nominal_plain, nominal_traced = (sum(r[3] for r in rs) for rs in (plain, traced))
    metrics["trace.overhead_frac"] = nominal_traced / nominal_plain - 1
    dump = ROOT / OUT / f"trace-{name}-seed{seed}.json"
    rec.dump(dump, {"workload": name, "seed": seed, "rounds": rounds,
                    "queries": len(traced), "untraced_wall_s": wall_plain,
                    "traced_wall_s": wall_traced})
    print(f"traced run: {rounds} rounds ({len(traced)} queries) untraced "
          f"{wall_plain:.2f} s, traced {wall_traced:.2f} s; spans in {dump.relative_to(ROOT)}")
    if name == "torus":
        coeff = sum(metrics[f"cyclo.{k}_calls"] for k in ("mul", "add", "inv"))
        rewrite = sum(metrics[f"rewrite.{k}_calls"]
                      for k in ("certify", "extend", "normal_form"))
        print(f"torus: {coeff} Coeff calls and {rewrite} rewrite calls "
              f"({'zero, as predicted' if coeff == rewrite == 0 else 'EXPECTED ZERO'})")
    return metrics, len(plain) + len(traced), bad


def run(name: str, seed: int, seconds: float, trace: bool, prepare=None) -> dict:
    """One benchmark run; ``prepare`` may edit the generated workload first."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl, workdir = setup(name, seed)
    try:
        if prepare is not None:
            prepare(wl)
        print(f"inputs: workload={name} seed={seed} queries={len(wl.queries)} "
              f"files={len(wl.files)} sha256={wl.digest(workdir)}")
        if trace:
            metrics, attempted, bad = per_layer(name, seed, wl)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, attempted, bad = end_to_end(name, seed, seconds, wl)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in bad[:10]:
        print(f"FAILED {reason}")
    for key in units:
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    print(f"  failed_frac = {len(bad) / attempted:.6g} ({len(bad)} of {attempted})")
    return {"correct": not bad, "attempted": attempted, "failed": len(bad),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready <time>' and exit (times setup_s)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # One CPU for this process and its subprocesses, so that the reference
    # job and the work it rescales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "qwalg" / "cli.py").is_file():
        print(f"error: no qwalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _, workdir = setup(args.workload, args.seed)
        print(f"ready {time.time()!r}", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
