"""Smoke test of the benchmark harness on tiny sizes.

Run it by path, so that the repository's own test run does not collect it:

    python3 -m pytest -q perfbench/tests/smoke_check.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if not trace:
            assert got["value"] > 0


def test_same_seed_same_outputs():
    digests = []
    for _ in range(2):
        proc = _bench("--workload", "structure-cold", "--seed", "5", "--seconds", "1",
                      "--size", "tiny")
        prov = next(line for line in proc.stdout.splitlines() if line.startswith("# provenance"))
        prov = json.loads(prov.split(" ", 2)[2])
        digests.append((prov["job_mix_digest"], prov["output_digest"]))
    assert digests[0] == digests[1]


def test_all_prints_one_table():
    proc = _bench("--all", "--seed", "2", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("\n\n")[-1]
    for w in workloads.WORKLOADS:
        for metric in [m["name"] for m in SPEC["end_to_end"]] + ["failed_ratio"]:
            assert any(line.split()[:2] == [w, metric] for line in table.splitlines())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify-warm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _job(run_fn, check=lambda out: ""):
    return workloads.Job("toy", "toy job", "", run_fn, repr, check)


@pytest.fixture
def clock():
    old = {sig: signal.getsignal(sig) for sig in (signal.SIGALRM, signal.SIGVTALRM)}
    c = pace.Clock()
    c.install()
    yield c
    for sig, handler in old.items():
        signal.signal(sig, handler)


def test_timeout_is_a_failed_job_with_its_reason(clock):
    tally = run.Tally()
    run.run_job(_job(lambda: time.sleep(5)), (0, 0), 0.1, clock, None, tally)
    run.run_job(_job(lambda: 1), (0, 1), 0.1, clock, None, tally)
    assert tally.attempted == 2 and tally.failed == 1
    rec = tally.records[0, 0]
    assert rec.status == "timeout" and "exceeded" in rec.reason
    assert 0.1 <= rec.wall_ns / 1e9 < 1.0


def test_normalised_time_follows_the_reference_pace(clock):
    _, status, _, wall, norm = clock.time(lambda: sum(range(200_000)), 1)
    assert status == "ok"
    assert norm == pytest.approx(wall * pace.REF_NS / clock.paces[-1], rel=1e-6)
    # a call that runs for several ticks is sampled during its run too
    _, _, _, wall, _ = clock.time(lambda: [i * i for i in range(3_000_000)], 5)
    assert wall > 3 * pace.TICK_S * 1e9 and len(clock._samples) > 3


def test_wrong_outputs_and_errors_count_as_failed(clock):
    tally = run.Tally()
    run.run_job(_job(lambda: 1, check=lambda out: "bad"), (0, 0), 1, clock, None, tally)
    run.run_job(_job(lambda: 1 / 0), (0, 1), 1, clock, None, tally)
    assert [r.status for r in tally.records.values()] == ["wrong", "error"]
    # a repeat of a failed job is not run again
    run.run_job(_job(lambda: time.sleep(5)), (0, 0), 1, clock, None, tally)
    assert tally.records[0, 0].status == "wrong"


def test_repeats_give_the_median_time_and_catch_changed_outputs(clock):
    tally = run.Tally()
    for seconds in (0.05, 0.0, 0.1):
        run.run_job(_job(lambda: time.sleep(seconds)), (0, 0), 1, clock, None, tally)
    assert 0.05e9 <= tally.records[0, 0].wall_ns < 0.09e9
    run.run_job(_job(lambda: 2), (0, 1), 1, clock, None, tally)
    run.run_job(_job(lambda: 3), (0, 1), 1, clock, None, tally)
    assert tally.records[0, 1].status == "wrong"


def test_span_self_time_excludes_children():
    rec = tracing.SpanRecorder()
    inner = rec._wrap("groupalg.crt_split", lambda: time.sleep(0.05))

    def outer_fn():
        time.sleep(0.05)
        inner()
        return 7

    outer = rec._wrap("dynamics.max_period", outer_fn)
    assert outer() == 7  # outside a job: no span
    assert rec.span_count() == 0
    rec.begin_job("toy")
    outer()
    rec.end_job()
    m = rec.layer_metrics()
    assert m["dynamics.max_period.calls"][0] == 1
    assert m["groupalg.crt_split.calls"][0] == 1
    busy, own = m["dynamics.max_period.busy_s"][0], m["dynamics.max_period.self_s"][0]
    assert 0.1 <= busy < 0.2 and 0.05 <= own < 0.09
    assert abs(m["groupalg.crt_split.self_s"][0] - m["groupalg.crt_split.busy_s"][0]) < 1e-9


def test_compare_verdicts():
    base = [100 + i % 3 for i in range(10)]
    alt = [i % 2 == 0 for i in range(10)]
    assert compare.verdict(base, [v - 20 for v in base], "lower", 0.1, alt)[0] == "improved"
    assert compare.verdict(base, [v + 30 for v in base], "lower", 0.1, alt)[0] == "worse"
    assert compare.verdict(base, [v + 1 for v in base], "lower", 0.1, alt)[0] == "no worse"
    assert compare.verdict(base, [v + 20 for v in base], "higher", 0.1, alt)[0] == "improved"
    assert compare.verdict(base[:5], base[:5], "lower", 0.1, alt[:5])[0] == "unresolved"
    assert compare.verdict(base, [v - 20 for v in base], "lower", 0.1, [True] * 10)[0] \
        == "unresolved"
    noisy = [100, 140, 70, 130, 90, 60, 150, 100, 80, 120]
    assert compare.verdict(noisy, noisy, "lower", 0.1, alt)[0] == "unresolved"
    assert compare.verdict(base, [v - 20 for v in base], "lower", 0.1, alt, True)[0] \
        == "unresolved"
