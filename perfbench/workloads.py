"""The three benchmark workloads: set-up, seeded decks of jobs, and checks.

A deck is the unit of work. Every deck of a workload has the same job
composition; the seed and the deck index choose the job order and the
generated inputs. A run executes whole decks, so two runs with different
seeds measure the same mix of work on different inputs.

Each job is a library call (or an in-process ``ffdyn.cli.main``). Its output
is checked after the timed call, by an independent route or invariant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Job:
    kind: str                        # short job type, e.g. "classify"
    label: str                       # kind plus the algebra, e.g. "classify q=2 n=255"
    inputs: str                      # digest of the generated inputs
    run: Callable[[], Any]           # the timed call
    canon: Callable[[Any], str]      # output as a canonical string (cheap)
    check: Callable[[Any], str]      # '' when the output is right, else the reason


@dataclass
class Workload:
    name: str
    setup: Callable[[Any, str], Any]                 # (ffdyn modules, size) -> set-up state
    deck: Callable[[Any, Any, Any, str], list[Job]]  # (ffdyn modules, state, rng, size) -> jobs
    job_limit_s: float            # per-job time limit
    nominal_deck_s: float         # typical deck wall time at full size
    fresh_per_deck: bool = False  # redo set-up (a fresh import) before every deck
    repeats: int = 3              # executions of every job in an end-to-end run
    uses_numpy: bool = False


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _random_values(rng, q: int, n: int) -> list[int]:
    return [rng.randrange(q) for _ in range(n)]


def _mult_order(q: int, n: int) -> int:
    """Order of q modulo n by direct iteration (harness-side reference)."""
    k, x = 1, q % n
    while x != 1:
        x = x * q % n
        k += 1
    return k


def _attractor_states(ff, D) -> int:
    """q^(attractor dimension): the states on cycles of x -> Dx.

    The nilpotent part of D is gcd(D^n mod t^n - 1, t^n - 1), because every
    multiplicity of a factor of t^n - 1 is at most n.
    """
    spec, n = D.spec, D.n
    modulus = ff.polyring.t_pow_minus_one(spec, n)
    nil = ff.polyring.gcd(ff.polyring.powmod(D.op_poly, n, modulus), modulus)
    return spec.q ** (n - nil.degree)


def _verdict_canon(v) -> str:
    return f"{v.is_delta1:d}{v.is_delta2:d}{v.is_d_complicated:d} {v.witness}"


def _orbit_canon(s) -> str:
    return f"{s.preperiod} {s.period} {_digest(s.attractor_entry.value_encs)}"


def _check_spectrum(ff, D, spectrum: dict, max_period: int) -> str:
    """Reason the spectrum is wrong, or '' when it passes both invariants."""
    on_cycles = sum(length * count for length, count in spectrum.items())
    if on_cycles != _attractor_states(ff, D):
        return f"sum L*count(L) = {on_cycles} != q^(attractor dim)"
    lcm = math.lcm(*spectrum) if spectrum else 1
    if lcm != max_period:
        return f"lcm of cycle lengths {lcm} != max_period {max_period}"
    return ""


# ---------------------------------------------------------------------------
# classify-warm: the per-state path on a fixed handful of algebras


# (q, n, jobs per deck). p does not divide n in the first four; in the last
# two it does, so t^n - 1 has repeated factors. The weights put the median in
# the middle of the GF(4) n=63 jobs and the 90th percentile inside the
# GF(2) n=255 jobs.
CLASSIFY_ALGEBRAS = {
    "full": [(2, 255, 3), (3, 80, 2), (4, 63, 3), (9, 40, 2), (2, 96, 1), (3, 81, 1)],
    "tiny": [(2, 15, 3), (3, 8, 2), (4, 7, 3), (9, 4, 2), (2, 12, 1), (3, 9, 1)],
}


def _classify_setup(ff, size):
    algebras = []
    for q, n, weight in CLASSIFY_ALGEBRAS[size]:
        spec = ff.ffield.FieldSpec.of_order(q)
        D = ff.groupalg.delta_operator(spec, n)
        ff.dynamics.max_period(D)  # fills the crt_split and orbit-analyzer caches
        algebras.append((spec, n, weight, D))
    return algebras


def _classify_job(ff, spec, n, f) -> Job:
    def run():
        return ff.complexity.classify(f)

    def check(v):
        if v.method != "lemma1-gcd":
            return f"method {v.method}"
        gcd_verdict = ff.complexity.d_complicated_gcd(f)
        if v.is_d_complicated != gcd_verdict:
            return f"classify says {v.is_d_complicated}, gcd says {gcd_verdict}"
        if v.is_delta1 and not v.is_delta2:
            return "delta1 without delta2"
        return ""

    return Job("classify", f"classify q={spec.q} n={n}", _digest(f.value_encs),
               run, _verdict_canon, check)


def _orbit_job(ff, spec, n, D, f) -> Job:
    def run():
        return ff.dynamics.orbit_algebraic(D, f), ff.dynamics.max_period(D)

    def canon(out):
        s, mp = out
        return f"{_orbit_canon(s)} {mp}"

    def check(out):
        s, mp = out
        b = ff.dynamics.orbit_brute(D, f)
        if _orbit_canon(b) != _orbit_canon(s):
            return f"brute force gives {_orbit_canon(b)}"
        if mp % s.period:
            return f"period {s.period} does not divide max_period {mp}"
        return ""

    return Job("orbit", f"orbit q={spec.q} n={n}", _digest(f.value_encs), run, canon, check)


def _classify_deck(ff, algebras, rng, size):
    jobs = []
    for spec, n, weight, D in algebras:
        for _ in range(weight):
            f = ff.groupalg.CyclicSeq(spec, _random_values(rng, spec.q, n))
            if n % spec.p:
                jobs.append(_classify_job(ff, spec, n, f))
            else:
                jobs.append(_orbit_job(ff, spec, n, D, f))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# structure-cold: factorization and unit orders, a new (q, n) for every job.
# The operator is Delta and the seed sets only the job order: an operator
# drawn from the seed changes the number of unit-order reductions, which
# moved a job's cost by up to 2.5x and the 90th percentile by 20 % between
# seeds. The light small-n jobs keep the heaviest (q, n) (q=2 n=41; q=3
# n=29, 31, 34, 37, 38) under a tenth of the deck.


STRUCTURE_GRID = {
    "full": [(2, n) for n in range(10, 53)] + [(3, n) for n in range(5, 39)],
    "tiny": [(2, n) for n in range(4, 13)] + [(3, n) for n in range(4, 10)],
}


def _structure_setup(ff, size):
    return {q: ff.ffield.FieldSpec.of_order(q) for q in (2, 3)}


def _structure_job(ff, spec, n, D, legendre) -> Job:
    p = spec.p

    def run():
        mp = ff.dynamics.max_period(D)
        spectrum = ff.dynamics.cycle_spectrum(D)
        verdict = ff.complexity.classify(legendre) if legendre is not None else None
        return mp, spectrum, verdict

    def canon(out):
        mp, spectrum, verdict = out
        return f"{mp} {sorted(spectrum.items())} {verdict and _verdict_canon(verdict)}"

    def check(out):
        mp, spectrum, verdict = out
        reason = _check_spectrum(ff, D, spectrum, mp)
        if reason or verdict is None:
            return reason
        # thm2: D-complicated iff round(n/4) is not divisible by p;
        # for q = 2 that is n mod 8 in {3, 5}
        expected = ((n + 2) // 4) % p != 0
        if spec.q == 2 and expected != (n % 8 in (3, 5)):
            return "criterion forms disagree"
        if verdict.is_d_complicated != expected:
            return f"Legendre verdict {verdict.is_d_complicated}, criterion {expected}"
        return ""

    label = f"structure q={spec.q} n={n}"
    return Job("structure", label, "", run, canon, check)


def _structure_deck(ff, specs, rng, size):
    grid = list(STRUCTURE_GRID[size])
    rng.shuffle(grid)
    jobs = []
    for q, n in grid:
        spec = specs[q]
        D = ff.groupalg.delta_operator(spec, n)
        legendre = None
        if n > 2 and n != spec.p and ff.intfactor.is_prime(n):
            legendre = ff.seqgen.legendre_seq(spec, n)
        jobs.append(_structure_job(ff, spec, n, D, legendre))
    return jobs


# ---------------------------------------------------------------------------
# enumerate-verify: exhaustive routes, the census and the verify suites


ENUM_CENSUS = {  # prime n; GF(9) runs the pure-Python counting path
    "full": [(2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (2, 17), (2, 19),
             (3, 2), (3, 5), (3, 7), (3, 11), (3, 13), (4, 3), (4, 5), (4, 7),
             (5, 2), (5, 3), (5, 7), (9, 2), (9, 5)],
    "tiny": [(2, 5), (3, 5), (4, 3), (5, 3), (9, 2)],
}
ENUM_GRAPH = {
    "full": [(2, 8), (2, 10), (2, 12), (3, 5), (3, 6), (4, 5), (5, 4), (9, 3), (9, 4), (9, 5)],
    "tiny": [(2, 4), (3, 3), (9, 2)],
}
# (q, n, sampled states per deck). The counts place the median inside the
# GF(3) n=11 orbits and the 90th percentile inside the GF(2) n=23 orbits
# (period 2047), the slowest cluster below the eight heaviest fixed jobs, so
# neither quantile falls between two unlike jobs.
ENUM_BRUTE = {
    "full": [(2, 20, 8), (2, 21, 8), (4, 9, 20), (3, 11, 24), (9, 5, 12), (2, 23, 12)],
    "tiny": [(2, 6, 2), (3, 4, 2), (9, 3, 2)],
}
ENUM_ORACLE = {  # p divides n, so classify enumerates every operator
    "full": [(2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (9, 3)],
    "tiny": [(2, 4), (3, 3)],
}
ENUM_SUITES = {
    "full": ["thm1", "thm2", "thm3", "arnold-delta2", "quota-trend"],
    "tiny": ["thm3", "quota-trend"],
}
# quota-trend exits 1: its q = 2 threshold clause is false at n = 127
SUITE_EXIT = {"quota-trend": 1}
SUITE_FAILING_ROWS = {"quota-trend": [(2, 127)]}


def _enum_setup(ff, size):
    specs = {}
    for q in (2, 3, 4, 5, 9):
        spec = ff.ffield.FieldSpec.of_order(q)
        spec.mul_enc(1, 1)
        spec.inv_enc(1)  # builds the small-field tables
        specs[q] = spec
    deltas = {(q, n): ff.groupalg.delta_operator(specs[q], n)
              for q, n in ENUM_GRAPH[size] + [(q, n) for q, n, _ in ENUM_BRUTE[size]]
              + ENUM_ORACLE[size]}
    return specs, deltas


def _census_job(ff, spec, n) -> Job:
    q = spec.q

    def run():
        return ff.complexity.census(spec, n)

    def canon(rep):
        return f"{rep.census_count} {rep.d}"

    def check(rep):
        d = _mult_order(q, n)
        expected = q * (q**d - 1) ** ((n - 1) // d)  # q^n (1 - q^-d)^((n-1)/d)
        if (rep.d, rep.state_count) != (d, q**n):
            return f"d={rep.d} states={rep.state_count}"
        if rep.census_count != expected:
            return f"count {rep.census_count} != {expected}"
        if rep.census_quota != rep.quota_formula:
            return "census quota differs from the formula"
        return ""

    return Job("census", f"census q={q} n={n}", "", run, canon, check)


def _graph_job(ff, D) -> Job:
    spec, n = D.spec, D.n

    def run():
        return ff.dynamics.build_graph(D)[0]

    def canon(g):
        return (f"{sorted(g.cycle_spectrum.items())} {g.tree_depth} "
                f"{g.tree_shape_hash} {g.attractor_size}")

    def check(g):
        if g.state_count != spec.q**n:
            return f"state count {g.state_count}"
        algebraic = ff.dynamics.cycle_spectrum(D)
        if g.cycle_spectrum != algebraic:
            return f"graph spectrum differs from the algebraic {algebraic}"
        if g.attractor_size != sum(L * c for L, c in g.cycle_spectrum.items()):
            return "attractor size differs from the spectrum"
        return _check_spectrum(ff, D, g.cycle_spectrum, ff.dynamics.max_period(D))

    return Job("graph", f"graph q={spec.q} n={n}", "", run, canon, check)


def _brute_job(ff, D, f) -> Job:
    def run():
        return ff.dynamics.orbit_brute(D, f)

    def check(b):
        a = ff.dynamics.orbit_algebraic(D, f)
        if _orbit_canon(a) != _orbit_canon(b):
            return f"algebraic route gives {_orbit_canon(a)}"
        return ""

    return Job("brute", f"brute q={D.spec.q} n={D.n}", _digest(f.value_encs),
               run, _orbit_canon, check)


def _oracle_job(ff, D, f) -> Job:
    spec, n = D.spec, D.n
    dyn = ff.dynamics

    def run():
        return ff.complexity.classify(f)

    def check(v):
        if v.method != "brute-force-oracle":
            return f"method {v.method}"
        b = dyn.orbit_brute(D, f)
        d2 = b.period == dyn.max_period(D)
        d1 = d2 and b.preperiod >= dyn.max_preperiod(D) - 1
        if (v.is_delta1, v.is_delta2) != (d1, d2):
            return f"brute force gives delta1={d1} delta2={d2}"
        if v.is_d_complicated and not d1:
            return "D-complicated but not delta1"
        if not v.is_d_complicated:
            # the witness operator must fail the condition by the algebraic route
            W = ff.groupalg.DiffOperator(spec, n, v.witness)
            s = dyn.orbit_algebraic(W, f)
            if s.period == dyn.max_period(W) and s.preperiod >= dyn.max_preperiod(W) - 1:
                return f"witness {v.witness} does not fail"
        return ""

    return Job("oracle", f"oracle q={spec.q} n={n}", _digest(f.value_encs),
               run, _verdict_canon, check)


def _verify_job(ff, suite) -> Job:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = ff.cli.main(["verify", suite])
        return rc, out.getvalue()

    def canon(out):
        rc, text = out
        return f"{rc} {hashlib.sha256(text.encode()).hexdigest()[:16]}"

    def check(out):
        rc, text = out
        want = SUITE_EXIT.get(suite, 0)
        if rc != want:
            return f"exit {rc}, expected {want}"
        report = json.loads(text)
        if report.get("schema") != "ffdyn-report/1" or report.get("ok") != (rc == 0):
            return "report schema or ok flag wrong"
        failing = [(r.get("q"), r.get("n")) for r in report["rows"] if not r.get("ok", True)]
        if failing != SUITE_FAILING_ROWS.get(suite, []):
            return f"failing rows {failing[:5]}"
        return ""

    return Job("verify", f"verify {suite}", "", run, canon, check)


def _enum_deck(ff, setup, rng, size):
    specs, deltas = setup
    jobs = [_census_job(ff, specs[q], n) for q, n in ENUM_CENSUS[size]]
    jobs += [_graph_job(ff, deltas[q, n]) for q, n in ENUM_GRAPH[size]]
    for q, n, count in ENUM_BRUTE[size]:
        for _ in range(count):
            f = ff.groupalg.CyclicSeq(specs[q], _random_values(rng, q, n))
            jobs.append(_brute_job(ff, deltas[q, n], f))
    for q, n in ENUM_ORACLE[size]:
        f = ff.groupalg.CyclicSeq(specs[q], _random_values(rng, q, n))
        jobs.append(_oracle_job(ff, deltas[q, n], f))
    jobs += [_verify_job(ff, s) for s in ENUM_SUITES[size]]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="classify-warm",
            setup=_classify_setup, deck=_classify_deck,
            job_limit_s=10.0, nominal_deck_s=0.45),
        Workload(
            name="structure-cold",
            setup=_structure_setup, deck=_structure_deck,
            job_limit_s=30.0, nominal_deck_s=3.0, fresh_per_deck=True),
        Workload(
            name="enumerate-verify",
            setup=_enum_setup, deck=_enum_deck,
            # one deck is ~13 s, most of it the GF(9) n=5 census; a third
            # execution would make this run twice as long as the others
            job_limit_s=60.0, nominal_deck_s=13.0, fresh_per_deck=True, uses_numpy=True,
            repeats=2),
    )
}
