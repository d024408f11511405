"""Named verification sweeps behind the CLI `verify` command and the
acceptance tests. Each suite takes no arguments: it holds its own grid and
its own checks, and returns {"suite": ..., "rows": [...], "ok": bool} with
deterministic row ordering.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexity import census, d_complicated_gcd, eigen_product, quota
from .dynamics import STATE_CAP, max_period, orbit_algebraic
from .errors import ResourceLimitError
from .ffield import FieldSpec
from .groupalg import delta_operator
from .intfactor import is_prime
from .seqgen import arnold_log_seq, legendre_seq, multiplicative_family


def _primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime(n)]


def thm1_census_suite() -> dict:
    """Exhaustive census equals the quota formula, exactly, on the whole grid."""
    rows = []
    for q in (2, 3, 4, 5):
        spec = FieldSpec.of_order(q)
        for n in (3, 5, 7, 11, 13):
            if n == spec.p or q**n > STATE_CAP:
                continue
            try:
                rep = census(spec, n)
                rows.append({
                    "n": n, "q": q, "d": rep.d,
                    "quotaFormula": str(rep.quota_formula),
                    "censusCount": rep.census_count,
                    "stateCount": rep.state_count,
                    "ok": rep.census_quota == rep.quota_formula,
                })
            except RuntimeError as exc:  # census mismatch is a hard failure
                rows.append({"n": n, "q": q, "error": str(exc), "ok": False})
    return {"suite": "thm1", "rows": rows, "ok": all(r["ok"] for r in rows)}


def _bound_holds(A: int, n: int, d: int) -> bool:
    """Whether (1 - 1/A)^k >= (n/(n+1))^(d*k), for any k >= 1 (the answer
    does not depend on k), with integers A >= 2 and n, d >= 1.

    Both sides are positive, so taking k-th roots gives the equivalent
    (A - 1)/A >= (n/(n+1))^d, that is (A - 1)(n + 1)^d >= A n^d.
    Bernoulli's inequality (1 + 1/n)^d >= 1 + d/n gives
    (n/(n+1))^d <= n/(n+d), and (A - 1)/A >= n/(n+d) is A d >= n + d; so
    A d >= n + d settles the bound as true on small integers, and otherwise
    the exact d-th-root comparison decides it.
    """
    return A * d >= n + d or (A - 1) * (n + 1) ** d >= A * n**d


def quota_trend_suite() -> dict:
    """Exact quota bounds across primes n <= 2000, q = 2 and 3.

    Checks (1 - q^-d)^((n-1)/d) >= (1 - 1/(n+1))^(n-1) for every prime, and
    quota > 9/10 for q = 2 at 100 <= n <= 2000. The bound is decided on
    d-th roots by `_bound_holds(q^d, n, d)`, exactly and with no rational of
    about n*log2(n) bits; as n divides q^d - 1 here, q^d >= n + 1 and its
    Bernoulli filter settles every row. The 9/10 test reads the exact
    `Fraction` quota.
    """
    rows = []
    primes = _primes_upto(2000)
    for q in (2, 3):
        spec = FieldSpec.of_order(q)
        for n in primes:
            if n == spec.p:
                continue
            rep = quota(spec, n)
            bound_ok = _bound_holds(q**rep.d, n, rep.d)
            row = {"n": n, "q": q, "d": rep.d, "boundOk": bound_ok}
            row_ok = bound_ok
            if q == 2 and n >= 100:
                row["above0.9"] = rep.quota_formula > Fraction(9, 10)
                row_ok = row_ok and row["above0.9"]
            row["ok"] = row_ok
            if not row_ok:
                row["quota"] = str(rep.quota_formula)
            rows.append(row)
    return {"suite": "quota-trend", "rows": rows, "ok": all(r["ok"] for r in rows)}


def thm2_suite() -> dict:
    """Legendre-sequence criterion at odd primes n != p (n < 200 for q = 2,
    n < 50 otherwise): the D-complicated verdict against the closed-form
    eigenvalue product round(n/4)^((n-1)/2), the divisor condition on
    round(n/4), and for q = 2 the mod-8 corollary."""
    rows = []
    primes = _primes_upto(200)
    for q in (2, 3, 5, 7):
        spec = FieldSpec.of_order(q)
        for n in primes:
            if n > (200 if q == 2 else 50):
                break
            if n == 2 or n == spec.p:
                continue
            f = legendre_seq(spec, n)
            d_comp = d_complicated_gcd(f)
            prod = eigen_product(f)
            base = (n + 2) // 4  # the integer closest to n/4 for odd n
            closed = spec.pow_enc(base % spec.p, (n - 1) // 2)
            checks = {
                "closedFormMatches": prod.enc == closed,
                "nonvanishingMatchesVerdict": bool(prod.enc) == d_comp,
                "divisorConditionMatches": (base % spec.p != 0) == d_comp,
            }
            if q == 2:
                checks["mod8Matches"] = (n % 8 in (3, 5)) == d_comp
            rows.append({
                "n": n, "q": q,
                "isDComplicated": d_comp,
                "eigenProduct": prod.enc,
                "closedForm": closed,
                **checks,
                "ok": all(checks.values()),
            })
    return {"suite": "thm2", "rows": rows, "ok": all(r["ok"] for r in rows)}


def thm3_suite() -> dict:
    """Every multiplicative function of prime length n != p, n <= 31, is
    D-complicated, and the family has exactly gcd(n-1, q-1) members."""
    rows = []
    primes = _primes_upto(31)
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = FieldSpec.of_order(q)
        for n in primes:
            if n == spec.p:
                continue
            family = multiplicative_family(spec, n)
            expected = math.gcd(n - 1, q - 1)
            all_dc = all(d_complicated_gcd(f) for f in family)
            rows.append({
                "n": n, "q": q,
                "familySize": len(family),
                "expectedSize": expected,
                "allDComplicated": all_dc,
                "ok": len(family) == expected and all_dc,
            })
    return {"suite": "thm3", "rows": rows, "ok": all(r["ok"] for r in rows)}


def arnold_delta2_suite() -> dict:
    """The q = 2 logarithmic sequence reaches a maximal-period cycle for
    every n < 64 with n + 1 prime. Resource caps produce SKIP, not failure."""
    spec = FieldSpec.of_order(2)
    rows = []
    ok = True
    for n in range(1, 64):
        if not is_prime(n + 1):
            continue
        row = {"n": n, "q": 2}
        try:
            f = arnold_log_seq(spec, n)
            D = delta_operator(spec, n)
            s = orbit_algebraic(D, f)
            mp = max_period(D)
            row.update({
                "period": s.period, "maxPeriod": mp,
                "preperiod": s.preperiod,
                "status": "PASS" if s.period == mp else "FAIL",
            })
            ok = ok and s.period == mp
        except ResourceLimitError as exc:
            row.update({"status": "SKIP", "reason": str(exc)})
        rows.append(row)
    return {"suite": "arnold-delta2", "rows": rows, "ok": ok}


SUITES = {
    "thm1": thm1_census_suite,
    "thm2": thm2_suite,
    "thm3": thm3_suite,
    "arnold-delta2": arnold_delta2_suite,
    "quota-trend": quota_trend_suite,
}
