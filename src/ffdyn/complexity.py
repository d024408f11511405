"""Complexity classifiers for cyclic sequences.

A sequence is maximally complex for an operator D when its orbit lands on a
cycle of the largest possible period with a preperiod within one of the
largest possible; it is D-complicated when that holds for every admissible
operator at once. For lengths coprime to the characteristic the latter
reduces to a gcd test against (t^n - 1)/(t - 1); the exhaustive operator
enumeration is kept as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .dynamics import STATE_CAP, max_period, max_preperiod, orbit_brute, orbit_from_valuations
from .errors import DomainError, ResourceLimitError
from .ffield import FieldElem, FieldSpec
from .groupalg import (CyclicSeq, DiffOperator, crt_split, delta_operator, linear_images,
                       seq_to_poly, seq_valuations, valuation_map)
from .intfactor import is_prime, order
from .polyring import Poly, geometric_sum, resultant, t_pow_minus_one
from .polyring import gcd as gcd_poly

OP_CAP = 2**16  # default cap on the operators the brute-force oracle enumerates


@dataclass(frozen=True)
class ProjectionEntry:
    factor: Poly
    multiplicity: int
    nonzero: bool
    is_sum_component: bool  # the (t - 1) factor carrying sum(f(i))


@dataclass(frozen=True)
class ProjectionProfile:
    entries: tuple[ProjectionEntry, ...]


@dataclass(frozen=True)
class ComplexityVerdict:
    is_delta1: bool
    is_delta2: bool
    is_d_complicated: bool
    method: str  # "lemma1-gcd" | "brute-force-oracle"
    witness: Poly | None  # failing factor (gcd) or failing operator (oracle)


@dataclass(frozen=True)
class QuotaReport:
    n: int
    q: int
    d: int
    quota_formula: Fraction
    state_count: int
    census_count: int | None = None
    census_quota: Fraction | None = None


def projection_profile(f: CyclicSeq) -> ProjectionProfile:
    """Which irreducible factors of t^n - 1 divide the sequence polynomial."""
    return ProjectionProfile(tuple(
        ProjectionEntry(c.pi, c.e, v == 0, c.m == 1)
        for c, v in zip(crt_split(f.spec, f.n), seq_valuations(f))))


def d_complicated_gcd(f: CyclicSeq) -> bool:
    """The Chinese-remainder shortcut: coprimality with (t^n - 1)/(t - 1).

    Valid only when the characteristic does not divide n; cheap even for
    large n (no factorization, no orbit analysis).
    """
    spec = f.spec
    if f.n % spec.p == 0:
        raise DomainError(
            "the gcd criterion needs n coprime to the characteristic")
    ft = seq_to_poly(f)
    return gcd_poly(ft, geometric_sum(spec, f.n)).degree == 0


def operator_family(spec: FieldSpec, n: int):
    """Every differential operator on length n: the nonzero multiples of
    (t - 1) among residues mod t^n - 1, exactly q^(n-1) - 1 of them."""
    t_minus_1 = t_pow_minus_one(spec, 1)
    for coeffs in itertools.product(range(spec.q), repeat=n - 1):
        if not any(coeffs):
            continue
        yield DiffOperator(spec, n, t_minus_1 * Poly(spec, coeffs))


def d_complicated_oracle(f: CyclicSeq, op_cap: int = OP_CAP,
                         state_cap: int = STATE_CAP) -> bool:
    """Ground truth by enumeration: maximal period and near-maximal preperiod
    under every differential operator."""
    return _oracle_with_witness(f, op_cap, state_cap)[0]


def _maximality(D: DiffOperator, preperiod: int, period: int) -> tuple[bool, bool]:
    """(the period is the largest under D, the preperiod is within one of
    the largest); Delta2 is the first, Delta1 both."""
    return period == max_period(D), preperiod >= max_preperiod(D) - 1


def _oracle_with_witness(f: CyclicSeq, op_cap: int, state_cap: int):
    spec, n = f.spec, f.n
    if spec.q ** (n - 1) - 1 > op_cap:
        raise ResourceLimitError(
            f"{spec.q}^{n - 1} - 1 operators exceed the cap {op_cap}")
    if spec.q**n > state_cap:
        raise ResourceLimitError(
            f"state space {spec.q}^{n} exceeds the cap {state_cap}")
    for D in operator_family(spec, n):
        s = orbit_brute(D, f, max_steps=state_cap)
        if not all(_maximality(D, s.preperiod, s.period)):
            return False, D.op_poly
    return True, None


def _delta_verdict(f: CyclicSeq, vals: tuple[int, ...]) -> tuple[bool, bool]:
    """(is_delta1, is_delta2) from the sequence's component valuations."""
    D = delta_operator(f.spec, f.n)
    d2, near = _maximality(D, *orbit_from_valuations(D, vals))
    return d2 and near, d2


def classify(f: CyclicSeq, op_cap: int = OP_CAP,
             state_cap: int = STATE_CAP) -> ComplexityVerdict:
    """Full verdict: difference-map complexity plus D-complexity.

    Lengths coprime to the characteristic use the Lemma-1 criterion: f~
    vanishes on no component other than t - 1; otherwise the brute-force
    oracle runs (subject to the caps).
    """
    spec, n = f.spec, f.n
    vals = seq_valuations(f)
    d1, d2 = _delta_verdict(f, vals)
    if n % spec.p != 0:
        witness = next((c.pi for c, v in zip(crt_split(spec, n), vals) if v and c.m > 1), None)
        return ComplexityVerdict(d1, d2, witness is None, "lemma1-gcd", witness)
    dc, witness = _oracle_with_witness(f, op_cap, state_cap)
    return ComplexityVerdict(d1, d2, dc, "brute-force-oracle", witness)


def is_delta2(f: CyclicSeq) -> bool:
    """Orbit period under the difference map equals the maximal period."""
    return _delta_verdict(f, seq_valuations(f))[1]


def is_delta1(f: CyclicSeq) -> bool:
    """is_delta2 plus preperiod within one of the maximum."""
    return _delta_verdict(f, seq_valuations(f))[0]


# ---------------------------------------------------------------------------
# Quota and census (prime n, n != p)


def _check_quota_n(spec: FieldSpec, n: int) -> None:
    if not is_prime(n):
        raise DomainError(f"quota needs prime n, got {n}")
    if n == spec.p:
        raise DomainError("quota is undefined for n equal to the characteristic")


def quota(spec: FieldSpec, n: int) -> QuotaReport:
    """Exact fraction of D-complicated sequences: (1 - q^-d)^((n-1)/d)."""
    q = spec.q
    _check_quota_n(spec, n)
    d = order(q % n, n - 1, lambda x, k: pow(x, k, n), 1)
    formula = Fraction(q**d - 1, q**d) ** ((n - 1) // d)
    return QuotaReport(n=n, q=q, d=d, quota_formula=formula, state_count=q**n)


def _census_count(spec: FieldSpec, n: int) -> int:
    """Count the states whose projection onto every factor of t^n - 1 other
    than t - 1 is nonzero.

    f -> f mod pi is GF(p)-linear. Base-p digit j*e + s of a state index is
    digit s of the coefficient of t^j (q = p^e), and column j*e + s of the
    valuation map holds p^s t^j mod every pi, as its first digit block on
    pi, so linear_images gives every state's residues as digit planes.
    """
    import numpy as np
    basis, firsts = valuation_map(spec, n).digit_rows()
    spans = [first for c, first in zip(crt_split(spec, n), firsts) if c.m > 1]
    total = 0
    for planes in linear_images(spec.p, basis):
        ok = np.ones(planes.shape[1], dtype=bool)
        for span in spans:
            ok &= planes[span].any(axis=0)
        total += int(np.count_nonzero(ok))
    return total


def census(spec: FieldSpec, n: int, cap: int = STATE_CAP) -> QuotaReport:
    """Exhaustively count D-complicated sequences and check the quota formula.

    Raises RuntimeError if the exhaustive count ever disagrees with the
    formula (it cannot, short of an implementation bug).
    """
    _check_quota_n(spec, n)
    # the cap comes before the formula, whose power has about n log2(q) bits; q^n >= 2^n
    if n >= cap.bit_length() or spec.q**n > cap:
        raise ResourceLimitError(f"census over {spec.q}^{n} states exceeds cap {cap}")
    rep = quota(spec, n)
    count = _census_count(spec, n)
    expected = rep.quota_formula * rep.state_count
    if count != expected:
        raise RuntimeError(
            f"census mismatch for n={n}, q={spec.q}: counted {count}, formula gives {expected}")
    return replace(rep, census_count=count,
                   census_quota=Fraction(count, rep.state_count))


# ---------------------------------------------------------------------------
# Eigenvalue product


def eigen_product(f: CyclicSeq) -> FieldElem:
    """Product of the n-1 nontrivial circulant eigenvalues, computed as a
    resultant over GF(q) without constructing the splitting field."""
    if f.n < 2:
        raise DomainError("eigen_product needs n >= 2")
    ft = seq_to_poly(f)
    if ft.is_zero:
        return f.spec.zero
    return resultant(geometric_sum(f.spec, f.n), ft)
