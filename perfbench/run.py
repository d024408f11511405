"""ffdyn benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload classify-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30      # every workload, one table
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run imports ffdyn from ``src/`` next to this directory and sets the
workload up several times, each from a fresh import. It then runs whole
decks of jobs for a third of ``--seconds`` and runs the same decks twice
more (enumerate-verify: half, and once more); a job's time is the median
of its executions, each normalised to the machine's pace (pace.py). Every execution is limited in time; the first is checked
after its timed span. The last stdout line is one JSON object: correct,
attempted, failed and the metrics that BENCHMARK.json names (end-to-end
with ``--trace 0``, per-layer with ``--trace 1``). See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ["errors", "ffield", "intfactor", "polyring", "groupalg", "dynamics",
           "complexity", "seqgen", "verify", "cli"]
SETUP_REPEATS = 3
SETUP_LIMIT_S = 120.0


def fresh_import():
    """Import ffdyn from scratch: drop every loaded ffdyn module first, so each
    set-up pays the import and starts with empty library caches."""
    for name in [m for m in sys.modules if m == "ffdyn" or m.startswith("ffdyn.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ffdyn")
    if Path(pkg.__file__).resolve().parent != SRC / "ffdyn":
        raise RuntimeError(f"imported ffdyn from {pkg.__file__}, not from {SRC}")
    ff = types.SimpleNamespace()
    for name in MODULES:
        setattr(ff, name, importlib.import_module(f"ffdyn.{name}"))
    ff.modules = [pkg] + [getattr(ff, name) for name in MODULES]
    return ff


def timed_setup(wl, size, clock):
    """(ffdyn modules, set-up state, normalised seconds) of one set-up."""
    def setup():
        ff = fresh_import()
        return ff, wl.setup(ff, size)

    out, status, reason, _, ns = clock.time(setup, SETUP_LIMIT_S)
    if status != "ok":
        raise RuntimeError(f"set-up of {wl.name} failed: {reason}")
    return out[0], out[1], ns / 1e9


def deck_rng(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{deck}")


class Record:
    """One distinct job: the times of its executions and its outcome."""

    __slots__ = ("label", "times_ns", "walls_ns", "status", "reason", "canon")

    def __init__(self, label, ns, wall_ns, status, reason, canon):
        self.label, self.times_ns, self.walls_ns = label, [ns], [wall_ns]
        self.status, self.reason, self.canon = status, reason, canon

    @property
    def ns(self) -> float:
        """The job's time: the median of its normalised execution times."""
        return statistics.median(self.times_ns)

    @property
    def wall_ns(self) -> float:
        return statistics.median(self.walls_ns)


class Tally:
    """The distinct jobs of one phase, keyed by (deck, position)."""

    def __init__(self):
        self.records: dict[tuple[int, int], Record] = {}
        self.first_deck = hashlib.sha256()
        self.first_mix = hashlib.sha256()
        self.decks = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        return sum(r.status == status for r in self.records.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.count("ok")

    def failures(self) -> list[str]:
        return [f"{r.label}: {r.status}: {r.reason}"
                for r in self.records.values() if r.status != "ok"]

    def jobs_per_s(self, wall: bool = False) -> float:
        busy = sum(r.wall_ns if wall else r.ns for r in self.records.values()) / 1e9
        return self.count("ok") / busy if busy else 0.0


def run_job(job, key, limit_s: float, clock, tracer, tally: Tally):
    """Time one execution of a job. The first execution is checked, untimed;
    a repeat must give the same canonical output."""
    rec = tally.records.get(key)
    if rec is not None and rec.status != "ok":
        return  # a failed job is recorded once and not repeated
    if tracer:
        tracer.begin_job(job.label)
    out, status, reason, wall, ns = clock.time(job.run, limit_s)
    if tracer:
        tracer.end_job()
    canon = job.canon(out) if status == "ok" else ""
    if rec is None:
        if status == "ok":
            wrong, check_status, err, _, _ = clock.time(lambda: job.check(out), limit_s)
            if check_status != "ok":
                status, reason = "wrong", f"check {check_status}: {err}"
            elif wrong:
                status, reason = "wrong", wrong
        tally.records[key] = Record(job.label, ns, wall, status, reason, canon)
        if key[0] == 0:
            tally.first_deck.update(f"{job.label}\t{canon}\n".encode())
            tally.first_mix.update(f"{job.label}\t{job.inputs}\n".encode())
        return
    rec.times_ns.append(ns)
    rec.walls_ns.append(wall)
    if status == "ok" and canon != rec.canon:
        status, reason = "wrong", "a repeat gave a different output"
    if status != "ok":
        rec.status, rec.reason = status, f"on a repeat: {reason}"


class Runner:
    """Runs decks of one workload; every deck of a fresh-per-deck workload
    starts from its own set-up."""

    def __init__(self, wl, seed, size, clock, tracer=None):
        self.wl, self.seed, self.size, self.clock, self.tracer = wl, seed, size, clock, tracer
        self.setups: list[float] = []
        self.ff = self.state = None

    def setup(self):
        if self.tracer:
            self.tracer.uninstall()
        self.ff = self.state = None
        gc.collect()  # drop the previous import now, so memory does not track the deck count
        self.ff, self.state, dt = timed_setup(self.wl, self.size, self.clock)
        self.setups.append(dt)
        if self.tracer:
            self.tracer.install(self.ff)

    def deck(self, i: int, tally: Tally):
        if self.wl.fresh_per_deck or self.ff is None:
            self.setup()
        jobs = self.wl.deck(self.ff, self.state, deck_rng(self.wl.name, self.seed, i), self.size)
        for pos, job in enumerate(jobs):
            run_job(job, (i, pos), self.wl.job_limit_s, self.clock, self.tracer, tally)

    def close(self):
        if self.tracer:
            self.tracer.uninstall()


def measure(wl, seed, size, seconds, clock) -> tuple[Tally, list[float]]:
    """End-to-end run. Set up SETUP_REPEATS times, then run whole decks while
    the next one fits in seconds / wl.repeats, then run those decks
    wl.repeats - 1 more times. The executions of a job lie seconds apart,
    and its time is their median."""
    runner = Runner(wl, seed, size, clock)
    for _ in range(SETUP_REPEATS if not wl.fresh_per_deck else SETUP_REPEATS - 1):
        runner.setup()
    tally = Tally()
    budget = seconds / wl.repeats
    start, last, decks = time.perf_counter(), 0.0, 0
    while decks == 0 or time.perf_counter() - start + last <= budget:
        t_deck = time.perf_counter()
        runner.deck(decks, tally)
        last = time.perf_counter() - t_deck
        decks += 1
    for _ in range(wl.repeats - 1):
        for i in range(decks):
            runner.deck(i, tally)
    tally.decks = decks
    return tally, runner.setups


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    """name -> (value, unit, samples); times are at the reference pace."""
    ms = [r.ns / 1e6 for r in tally.records.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "jobs_per_s": (tally.jobs_per_s(), "1/s", tally.count("ok")),
        "job_ms_p50": (quantile(ms, 0.50), "ms", len(ms)),
        "job_ms_p90": (quantile(ms, 0.90), "ms", len(ms)),
        "failed_ratio": (tally.failed / tally.attempted, "ratio", tally.attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def wall_clock(tally: Tally) -> dict:
    """The same job figures in plain wall time, for reading alongside."""
    ms = [r.wall_ns / 1e6 for r in tally.records.values()]
    return {"jobs_per_s": (tally.jobs_per_s(wall=True), "1/s"),
            "job_ms_p50": (quantile(ms, 0.50), "ms"),
            "job_ms_p90": (quantile(ms, 0.90), "ms")}


def trace_phases(wl, seed, size, seconds, clock):
    """Untraced, span and counting phases over the same decks, each deck from
    the same kind of set-up; returns (per-layer metrics, tallies, recorder)."""
    import tracing

    decks = max(1, round(seconds / 3 / wl.nominal_deck_s))
    recorder, counter = tracing.SpanRecorder(), tracing.CallCounter()
    tallies = {}
    for phase, tracer in (("plain", None), ("spans", recorder), ("counts", counter)):
        runner = Runner(wl, seed, size, clock, tracer)
        tally = Tally()
        try:
            for i in range(decks):
                runner.deck(i, tally)
        finally:
            runner.close()
        tally.decks = decks
        tallies[phase] = tally
    metrics = {}
    metrics.update(counter.layer_metrics())
    metrics.update(recorder.layer_metrics())
    metrics["trace_overhead"] = (
        tallies["spans"].jobs_per_s() / tallies["plain"].jobs_per_s(), "ratio")
    metrics["trace.spans"] = (recorder.span_count(), "count")
    return metrics, list(tallies.values()), recorder


def provenance(args, tally: Tally, started: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "ffdyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": commit, "src_digest": h.hexdigest()[:16], "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "started_at": started, "decks": tally.decks,
            "job_mix_digest": tally.first_mix.hexdigest()[:16],
            "output_digest": tally.first_deck.hexdigest()[:16]}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(args) -> int:
    import pace
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    spec = benchmark_spec()
    started = time.time()
    clock = pace.Clock()
    clock.install()
    if wl.uses_numpy:
        import numpy  # noqa: F401  -- a one-time import, kept out of set-up and jobs
    lines = [f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} size={args.size}"]
    if args.trace:
        layer, tallies, recorder = trace_phases(wl, args.seed, args.size, args.seconds, clock)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: layer[name][:2] for name in names}
        for name, (value, unit) in sorted(layer.items()):
            lines.append(f"{name:44s} {value:>16.6g} {unit}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.json.gz"
        recorder.write(spans_path)
        lines.append(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        tally, setups = measure(wl, args.seed, args.size, args.seconds, clock)
        tallies = [tally]
        e2e = end_to_end(tally, setups)
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: e2e[name][:2] for name in names}
        for name, (value, unit, samples) in e2e.items():
            lines.append(f"{name:14s} {value:>14.6g} {unit:6s} samples={samples}")
        for name, (value, unit) in wall_clock(tally).items():
            lines.append(f"# wall-clock {name:14s} {value:>14.6g} {unit}")
    lines.append(f"# reference loop median {statistics.median(clock.paces) / 1e6:.4f} ms "
                 f"(normalised times assume {pace.REF_NS / 1e6:g} ms)")
    prov = provenance(args, tallies[0], started)
    failures = [f for t in tallies for f in t.failures()]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    lines.append(f"# jobs attempted={attempted} failed={failed} decks={tallies[0].decks}")
    lines.extend(f"# FAILED {f}" for f in failures[:20])
    lines.append("# provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": all(t.count("wrong") == t.count("error") == 0 for t in tallies),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result,
                                 "failures": failures}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; one table."""
    import workloads

    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        rows.append((name, result))
    print()
    print(f"{'workload':18s} {'metric':14s} {'value':>14s} unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:14s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:18s} {'failed_ratio':14s} {result['failed'] / result['attempted']:>14.6g} "
              f"ratio  ({result['failed']}/{result['attempted']} jobs)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload, print one table")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="compare two result files written with --out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every algebra, for the harness smoke test")
    parser.add_argument("--out", help="append the result with its provenance to this JSONL file")
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], benchmark_spec())
    if not (SRC / "ffdyn" / "__init__.py").is_file():
        print(f"error: no ffdyn sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
