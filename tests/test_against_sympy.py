"""Differential tests against sympy for prime fields at medium sizes."""

import pytest

sympy = pytest.importorskip("sympy")

import random  # noqa: E402
from functools import reduce  # noqa: E402

from sympy.polys.domains import ZZ  # noqa: E402
from sympy.ntheory.primetest import \
    is_strong_lucas_prp as is_strong_lucas_prp_sympy  # noqa: E402
from sympy.polys.galoistools import gf_gcd, gf_mul, gf_rem  # noqa: E402

from ffdyn import FieldSpec  # noqa: E402
from ffdyn.dynamics import orbit_algebraic, orbit_brute  # noqa: E402
from ffdyn.groupalg import CyclicSeq, build_operator  # noqa: E402
from ffdyn.intfactor import is_prime, is_strong_lucas_prp, order  # noqa: E402
from ffdyn.polyring import Poly, crt_split, gcd, is_irreducible, t_pow_minus_one  # noqa: E402

T = sympy.Symbol("t")
LENGTHS = [1, 2, 6, 15, 31, 63, 64, 81, 105, 127, 210, 243, 255, 300]


def sympy_factors(p, n):
    """{(monic factor low-to-high, multiplicity)} of t^n - 1 over GF(p)."""
    _unit, factors = sympy.Poly(T**n - 1, T, modulus=p).factor_list()
    out = set()
    for f, mult in factors:
        c = [int(x) % p for x in reversed(f.all_coeffs())]
        inv = pow(c[-1], p - 2, p)
        out.add((tuple(x * inv % p for x in c), mult))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_crt_split_matches_sympy(p):
    spec = FieldSpec(p)
    for n in LENGTHS:
        ours = {(c.pi.coeff_encs, c.e) for c in crt_split(spec, n)}
        assert ours == sympy_factors(p, n), n


@pytest.mark.parametrize("p,lengths", [(2, (341, 600)), (3, (513, 600)),
                                       (5, (455, 600)), (7, (455, 728))])
def test_crt_split_matches_sympy_in_the_hundreds(p, lengths):
    """Composite n in the hundreds, p | n included (600, 513, 728)."""
    spec = FieldSpec(p)
    for n in lengths:
        ours = {(c.pi.coeff_encs, c.e) for c in crt_split(spec, n)}
        assert ours == sympy_factors(p, n), n


@pytest.mark.parametrize("p", [3, 5])
def test_gcd_of_degree_600_matches_sympy(p):
    """gcd(c * u, c * v) for random c of degree 600 and u, v of degree 400:
    a remainder sequence on forms of degree 1000, against sympy's gf_gcd."""
    rng = random.Random(p)
    c, u, v = ([rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)]
               for k in (600, 400, 400))
    a, b = (gf_mul(c[::-1], x[::-1], p, ZZ) for x in (u, v))
    want = [int(x) % p for x in reversed(gf_gcd(a, b, p, ZZ))]
    spec = FieldSpec(p)
    assert list(gcd(Poly(spec, a[::-1]), Poly(spec, b[::-1])).coeff_encs) == want
    assert len(want) > 600


# psi_k (OEIS A014233): the least strong pseudoprime to the first k prime
# bases; psi_13 passes all of is_prime's bases and fails its Lucas stage
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981]
# OEIS A217255: strong Lucas pseudoprimes with Selfridge's parameters
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                             40309, 58519, 75077, 97439, 100127, 113573, 115639, 130139]


def _primes_near_powers_of_ten(low: int, high: int, count: int) -> list[int]:
    out = []
    for k in range(low, high + 1):
        x = 10**k
        for _ in range(count):
            x = sympy.nextprime(x)
            out.append(x)
    return out


def test_is_prime_matches_sympy():
    """The psi_k, products of two primes near 10^12 and primes near 10^24
    to 10^30, with their odd neighbours."""
    rng = random.Random(12)
    cases = list(PSI)
    for _ in range(20):
        a = sympy.nextprime(10**12 + rng.randrange(10**11))
        b = sympy.nextprime(10**12 + rng.randrange(10**11))
        cases += [a, b, a * b, a * b + 2]
    for x in _primes_near_powers_of_ten(24, 30, 3):
        cases += [x, x + 2, x * sympy.nextprime(x)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_below_1e5():
    assert [n for n in range(10**5) if is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_matches_sympy_around_each_psi():
    # below, at and above the bound where Miller-Rabin stops after base k
    for psi in PSI:
        for n in (psi - 2, psi, psi + 2):
            assert is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_matches_sympy():
    """The Lucas stage alone: it passes the strong Lucas pseudoprimes and the
    primes, and fails psi_13 and odd composites near 10^25 to 10^30."""
    rng = random.Random(13)
    composites = [n for n in (rng.randrange(10**25, 10**30) | 1 for _ in range(60))
                  if not sympy.isprime(n)]
    primes = _primes_near_powers_of_ten(25, 30, 2)
    for n in PSI[-1:] + STRONG_LUCAS_PSEUDOPRIMES + primes + composites:
        assert is_strong_lucas_prp(n) == is_strong_lucas_prp_sympy(n), n
    assert all(map(is_strong_lucas_prp, STRONG_LUCAS_PSEUDOPRIMES + primes))
    assert not any(map(is_strong_lucas_prp, PSI[-1:] + composites))
    assert not any(map(sympy.isprime, STRONG_LUCAS_PSEUDOPRIMES))


def test_order_matches_sympy():
    for n in [m for m in range(3, 2000) if is_prime(m)][::7]:
        for base in (2, 3, 5, 7, 10):
            if base % n:
                got = order(base % n, n - 1, lambda x, k: pow(x, k, n), 1)
                assert got == sympy.n_order(base, n), (base, n)


# -- extension fields above the 512-element table limit ------------------------
# These answer through base-p digits, not through tables: FieldSpec's element
# ops compute on them, and the polynomial kernel lays them out in slots.

GF1024 = FieldSpec.of_order(2**10)
GF2187 = FieldSpec.of_order(3**7)


def _to_gf(enc, spec):
    """Encoding -> sympy dense coefficients over GF(p), high-to-low."""
    digits = []
    while enc:
        enc, d = divmod(enc, spec.p)
        digits.append(d)
    return digits[::-1]


@pytest.mark.parametrize("spec", [GF1024, GF2187])
def test_large_extension_mul_matches_sympy(spec):
    rng = random.Random(spec.q)
    modulus = list(reversed(spec.modulus))
    for _ in range(200):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        want = gf_rem(gf_mul(_to_gf(a, spec), _to_gf(b, spec), spec.p, ZZ), modulus, spec.p, ZZ)
        assert _to_gf(spec.mul_enc(a, b), spec) == [int(c) for c in want], (a, b)


@pytest.mark.parametrize("spec, lengths", [(GF1024, (3, 5, 7, 11)), (GF2187, (2, 4, 5))])
def test_large_extension_crt_split_reconstructs(spec, lengths):
    for n in lengths:
        factors = crt_split(spec, n)
        assert reduce(lambda acc, c: acc * c.pi**c.e, factors, Poly.one(spec)) \
            == t_pow_minus_one(spec, n), n
        assert all(is_irreducible(c.pi) for c in factors), n


@pytest.mark.parametrize("spec", [GF1024, GF2187])
def test_large_extension_orbits_agree_at_n2(spec):
    # over GF(2187) the live component t + 1 has periods up to 2186, so the
    # brute walk is long and the sample small
    rng = random.Random(spec.q + 2)
    for coeffs in ([1], [rng.randrange(1, spec.q), 1]):
        D = build_operator(spec, 2, coeffs)
        f = CyclicSeq(spec, [rng.randrange(spec.q) for _ in range(2)])
        assert orbit_algebraic(D, f) == orbit_brute(D, f), (coeffs, f.value_encs)
