"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPT <id> <name>: PASS|FAIL` (visible with -s or on
failure). Criterion C2's 0.9-threshold clause is checked in its exact form:
for q = 2 the quota exceeds 9/10 at every prime 100 <= n <= 2000 except the
Mersenne primes, and the only one in that range is n = 127, where the quota
is (127/128)^18 ~ 0.868 (see the README, "C2 threshold law").
"""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

from conftest import all_seqs
from ffdyn import FieldSpec
from ffdyn.complexity import d_complicated_gcd, d_complicated_oracle, is_delta1, is_delta2
from ffdyn.dynamics import (build_graph, cycle_spectrum, orbit_brute,
                            orbit_from_valuations, orbit_table, state_of_index)
from ffdyn.groupalg import CyclicSeq, delta_operator, seq_valuations
from ffdyn.verify import (arnold_delta2_suite, quota_trend_suite,
                          thm1_census_suite, thm2_suite, thm3_suite)


def _report(cid, name, ok):
    print(f"ACCEPT {cid} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _grid(state_bound, q_values=(2, 3, 4, 5, 7, 8, 9)):
    for q in q_values:
        spec = FieldSpec.of_order(q)
        n = 1
        while q**n <= state_bound:
            yield spec, n
            n += 1


def test_c1_quota_identity():
    report = thm1_census_suite()
    ok = report["ok"] and all(row["ok"] for row in report["rows"])
    assert _report("C1", "quota-census-identity", ok), report["rows"]
    # integer equality, zero tolerance, on every grid point that fits
    assert len(report["rows"]) == 14


def test_c2_quota_trend_bound():
    """Every row's bound holds, and each row's boundOk equals the bound
    (1 - q^-d)^((n-1)/d) >= (n/(n+1))^(n-1) on full-size rationals."""
    report = quota_trend_suite()
    bound_ok = all(row["boundOk"] for row in report["rows"])
    assert _report("C2", "quota-trend-bound", bound_ok)
    for row in report["rows"]:
        n, q, d = row["n"], row["q"], row["d"]
        exact = Fraction(q**d - 1, q**d) ** ((n - 1) // d) >= Fraction(n, n + 1) ** (n - 1)
        assert row["boundOk"] is exact, row


def _is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _order_of_2(n):
    """ord_n(2) by a plain loop over powers of 2 mod n (n odd)."""
    d, r = 1, 2 % n
    while r != 1:
        d, r = d + 1, r * 2 % n
    return d


def test_c2_quota_threshold_above_0_9():
    """Clause: for q = 2, quota > 9/10 at every prime 100 <= n <= 2000 except
    the Mersenne primes n = 2^d - 1, where quota = (1 - 2^-d)^((n-1)/d).

    Proof, with d = ord_n(2) and k = (n-1)/d:
    - d = ord_n(2) means n divides 2^d - 1.
    - If n != 2^d - 1, the cofactor (2^d - 1)/n is odd and >= 3, so
      2^d >= 3n + 1, and n >= 100 gives d >= 9.
    - By Bernoulli, quota >= 1 - k/2^d >= 1 - (n-1)/(d(3n+1)) > 1 - 1/27 > 9/10.
    The only Mersenne prime in 100..2000 is 127 (d = 7, quota = (127/128)^18).
    """
    lo, hi = 100, 2000
    report = quota_trend_suite()
    rows = [row for row in report["rows"] if row["q"] == 2 and lo <= row["n"] <= hi]
    primes = [n for n in range(lo, hi + 1) if _is_prime(n)]
    bad = []
    if [row["n"] for row in rows] != primes:
        bad.append(("threshold-range-primes", [row["n"] for row in rows]))
    for row in rows:
        n = row["n"]
        d = _order_of_2(n)
        k, rem = divmod(n - 1, d)
        assert rem == 0
        above = (2**d - 1) ** k * 10 > 9 * 2 ** (d * k)
        if row["d"] != d:
            bad.append((n, "d", row["d"], d))
        if row.get("above0.9") is not above:
            bad.append((n, "above0.9", row.get("above0.9"), above))
    mersenne = [2**d - 1 for d in range(2, hi.bit_length() + 1)
                if lo <= 2**d - 1 <= hi and _is_prime(2**d - 1)]
    assert mersenne == [127]
    failing = [row for row in rows if row.get("above0.9") is False]
    if [row["n"] for row in failing] != mersenne:
        bad.append(("failing-primes", [row["n"] for row in failing]))
    if [row.get("quota") for row in failing] != [str(Fraction(127, 128) ** 18)]:
        bad.append(("failing-quota", [row.get("quota") for row in failing]))
    ok = _report("C2", "quota-threshold-0.9", not bad)
    assert ok, (
        f"{bad[:10]}; expected quota > 9/10 at every prime in {lo}..{hi} "
        f"except the Mersenne primes {mersenne}; "
        "see the README section \"C2 threshold law\".")


def test_c3_lemma1_vs_oracle():
    mismatches = []
    for q, n in [(2, 3), (2, 5), (3, 2), (3, 4), (5, 2)]:
        spec = FieldSpec.of_order(q)
        for f in all_seqs(spec, n):
            shortcut = d_complicated_gcd(f)
            oracle = d_complicated_oracle(f)
            if shortcut != oracle:
                direction = "gcd-false-oracle-true" if oracle else "gcd-true-oracle-false"
                mismatches.append((q, n, f.value_encs, direction))
    ok = _report("C3", "lemma1-gcd-vs-exhaustive-oracle", not mismatches)
    assert ok, mismatches


def test_c4_legendre_criterion():
    report = thm2_suite()
    bad = [row for row in report["rows"] if not row["ok"]]
    ok = _report("C4", "legendre-sequence-criterion", report["ok"] and not bad)
    assert ok, bad
    binary_rows = [r for r in report["rows"] if r["q"] == 2]
    assert max(r["n"] for r in binary_rows) == 199
    for r in binary_rows:
        assert r["isDComplicated"] == (r["n"] % 8 in (3, 5))


def test_c5_multiplicative_functions():
    report = thm3_suite()
    bad = [row for row in report["rows"] if not row["ok"]]
    ok = _report("C5", "multiplicative-functions-d-complicated", report["ok"])
    assert ok, bad
    for row in report["rows"]:
        assert row["familySize"] == row["expectedSize"]


def test_c6_dynamics_oracle_equivalence():
    bad = []
    for spec, n in _grid(2**16):
        D = delta_operator(spec, n)
        pre, per = orbit_table(D)
        for idx in range(spec.q**n):
            f = CyclicSeq(spec, state_of_index(spec, n, idx))
            got = orbit_from_valuations(D, seq_valuations(f))
            if got != (pre[idx], per[idx]):
                bad.append((spec.q, n, f.value_encs, got, (pre[idx], per[idx])))
        # the per-orbit walk (orbit_brute) must agree too; deterministic sample
        step = max(1, spec.q**n // 64)
        for idx in range(0, spec.q**n, step):
            f = CyclicSeq(spec, state_of_index(spec, n, idx))
            s = orbit_brute(D, f)
            if (s.preperiod, s.period) != (pre[idx], per[idx]):
                bad.append((spec.q, n, f.value_encs, "brent-disagrees"))
    for spec, n in _grid(2**12):
        D = delta_operator(spec, n)
        summary, _succ = build_graph(D)
        if summary.cycle_spectrum != cycle_spectrum(D):
            bad.append((spec.q, n, "spectrum-mismatch"))
    ok = _report("C6", "orbit-algebraic-vs-brute-exhaustive", not bad)
    assert ok, bad[:10]


def test_c7_structural_graph_claims():
    rows = []
    ok = True
    for spec, n in _grid(2**12):
        D = delta_operator(spec, n)
        summary, succ = build_graph(D)
        out_degree_ok = len(succ) == spec.q**n
        case_ok = summary.all_trees_isomorphic and out_degree_ok
        rows.append((spec.q, n, "PASS" if case_ok else "FAIL"))
        ok = ok and case_ok
    for q, n, status in rows:
        print(f"  C7 q={q} n={n}: {status}")
    assert _report("C7", "attractor-trees-isomorphic", ok), rows


def test_c8_delta1_iff_delta2_when_p_coprime():
    bad = []
    for spec, n in _grid(2**12):
        if n % spec.p == 0:
            continue
        for f in all_seqs(spec, n):
            if is_delta1(f) != is_delta2(f):
                bad.append((spec.q, n, f.value_encs))
    ok = _report("C8", "delta1-equivalent-delta2", not bad)
    assert ok, bad[:10]


def test_c9_arnold_log_delta2_sweep():
    report = arnold_delta2_suite()
    statuses = {row["n"]: row["status"] for row in report["rows"]}
    failures = [n for n, s in statuses.items() if s == "FAIL"]
    skips = [n for n, s in statuses.items() if s == "SKIP"]
    for n, s in sorted(statuses.items()):
        print(f"  C9 n={n}: {s}")
    ok = _report("C9", "arnold-log-delta2-sweep", not failures)
    if skips:
        print(f"  C9 skipped (resource caps): {skips}")
    assert ok, failures


def _run_cli(*argv) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "ffdyn.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout


# sha256 of each suite's JSON report; a change to any row must update these
VERIFY_SHA256 = {
    "thm1": "2074eea81c63cade628e8c2db5d5eafd1189e1c2e458825756f3867532cdc21a",
    "thm2": "9be4ed4363af4309b2ed13a29f93d98d00242a3c6c8829a76c12d11b868ce452",
    "thm3": "4a78155353326295a788eec290705931921f14c0f08d7c9e1e38060ecee32a81",
    "arnold-delta2": "c4060b2af52956cb58e0d4a3a9a598685ce689e282b5007f93e73a97a015f33c",
    "quota-trend": "f11d3da3a57d1faad022369b2c04f9b935dc2974a7ae5e33bc886dba1cb0725a",
}


def test_c10_cli_determinism():
    commands = [("verify", suite) for suite in VERIFY_SHA256] + [
        ("gen", "--q", "5", "--n", "8", "--gen", "random", "--seed", "99"),
        ("spectrum", "--q", "2", "--n", "7"),
    ]
    ok = True
    for argv in commands:
        code1, out1 = _run_cli(*argv)
        code2, out2 = _run_cli(*argv)
        same = code1 == code2 and out1 == out2 and out1
        if argv[0] == "verify":
            same = same and hashlib.sha256(out1).hexdigest() == VERIFY_SHA256[argv[1]]
        print(f"  C10 {' '.join(argv)}: {'identical' if same else 'DIFFERS'}")
        ok = ok and bool(same)
        json.loads(out1)  # every report must re-parse
    assert _report("C10", "cli-byte-determinism", ok)
