"""Compare the result sets of two commits, one row per (metric, workload).

Both files are JSONL written by ``run.py --out``. Runs pair up by workload and
seed; every end-to-end metric of BENCHMARK.json gets a verdict:

* improved  -- at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), its median is better, and the medians differ by
  more than the parent's interquartile range;
* worse     -- the change's median is worse than the parent's by more than
  the metric's bound;
* no worse  -- neither of the above;
* unresolved -- fewer than 10 pairs, pairs that do not alternate which side
  ran first, more failed jobs on the change, or a run-to-run spread wider than
  the bound (unless every change run beats every parent run).
"""

from __future__ import annotations

import json
import statistics

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} for untraced runs; a later run of the same
    seed replaces an earlier one."""
    out: dict[str, dict[int, dict]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec["provenance"]
            if prov["trace"] == 0:
                out.setdefault(prov["workload"], {})[prov["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            change_first: list[bool], extra_failures: bool = False) -> tuple[str, str]:
    """(verdict, reason) for paired samples of one metric on one workload."""
    n = len(parent)
    if n < MIN_PAIRS:
        return "unresolved", f"{n} pairs, need {MIN_PAIRS}"
    firsts = sum(change_first)
    if min(firsts, n - firsts) < n // 2 - 1:
        return "unresolved", f"change ran first in {firsts} of {n} pairs; alternate them"
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - pmed)
    if wins >= WIN_SHARE * n and gain > pq3 - pq1:
        if extra_failures:
            return "unresolved", "faster, but more jobs failed than on the parent"
        return "improved", f"won {wins}/{n}, median moved {gain / pmed:+.1%}"
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", f"spread {spread:.1%} exceeds the bound {bound:.0%}"
    if -gain / pmed > bound:
        return "worse", f"median worse by {-gain / pmed:.1%} (bound {bound:.0%})"
    return "no worse", f"median moved {gain / pmed:+.1%} (bound {bound:.0%})"


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':18s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} pairs  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        change_first = [c["provenance"]["started_at"] < p["provenance"]["started_at"]
                        for p, c in pairs]
        if not pairs:
            print(f"{workload:18s} no runs of the same seed on both sides")
            continue
        p_failed = sum(p["result"]["failed"] for p, _ in pairs)
        c_failed = sum(c["result"]["failed"] for _, c in pairs)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            v, why = verdict(pv, cv, m["better"], m["bound"], change_first, c_failed > p_failed)
            print(f"{workload:18s} {name:12s} {_fmt(pv):>34s} {_fmt(cv):>34s} "
                  f"{len(pairs):5d}  {v}: {why}")
        differ = [s for s, (p, c) in zip(seeds, pairs)
                  if p["provenance"]["output_digest"] != c["provenance"]["output_digest"]]
        if differ:
            print(f"{workload:18s} outputs of the first deck differ for seeds {differ}")
        if c_failed != p_failed:
            print(f"{workload:18s} failed jobs: parent {p_failed}, change {c_failed}")
    return 0


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
