import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import F2, F3, F4, F5, F7, F8, F9
from ffdyn import DomainError, FieldSpec, Poly, factorize, groupalg, polyring, resultant
from ffdyn.errors import ResourceLimitError
from ffdyn.groupalg import crt_split
from ffdyn.intfactor import divisors, order
from ffdyn.polyring import (NEG_INF, _order_prime_power, cyclotomic_factors, gcd,
                            geometric_sum, is_irreducible, powmod, t_pow_minus_one)


def rand_poly(spec, max_deg, rng, nonzero=False):
    while True:
        p = Poly(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(max_deg + 2))])
        if not (nonzero and p.is_zero):
            return p


# -- representation ---------------------------------------------------------


def test_canonical_form_strips_trailing_zeros():
    """Trailing zeros vanish in the kernel's form: a padded polynomial is the
    same polynomial, and an all-zero one is zero, over each kernel family."""
    for q in (2, 3, 4, 9, 256, 65537):
        spec = FieldSpec.of_order(q)
        rng = random.Random(q)
        for k in range(6):
            c = tuple(rng.randrange(q) for _ in range(k)) + (rng.randrange(1, q),)
            p, padded = Poly(spec, c), Poly(spec, c + (0, 0))
            assert padded == p and hash(padded) == hash(p)
            assert padded.coeff_encs == p.coeff_encs == c
            assert padded.degree == p.degree == k
        for k in range(4):
            zero = Poly(spec, (0,) * k)
            assert zero == Poly.zero(spec) and hash(zero) == hash(Poly.zero(spec))
            assert zero.coeff_encs == () and zero.degree == NEG_INF and zero.is_zero


def test_zero_degree_marker_is_not_an_integer():
    z = Poly.zero(F3)
    assert z.degree == NEG_INF
    assert not isinstance(z.degree, int)
    assert z.degree < 0


def test_text_round_trip():
    p = Poly.from_text(F3, "1,0,2")
    assert str(p) == "1,0,2"
    assert p(F3.one).enc == 0  # 1 + 2 = 0 mod 3


def test_evaluation_reads_its_argument_as_an_element_of_the_field():
    p = Poly(F4, (1, 2, 3))
    for x in range(4):
        horner = F4.element(3) * F4.element(x) * F4.element(x) + F4.element(2) * x + 1
        assert p(x) == p(F4.element(x)) == p(np.int64(x)) == horner
    assert p((0, 1)) == p(2)  # a digit sequence, as FieldSpec.element reads it
    for bad in (FieldSpec.of_order(3).element(2), 7, -1, "x"):
        with pytest.raises(DomainError):
            p(bad)
    with pytest.raises(DomainError):
        Poly(F2, (1, 1))(1.7)


# -- division ----------------------------------------------------------------


def test_divrem_char2_example():
    q, r = divmod(Poly(F2, [1, 0, 0, 1]), Poly(F2, [1, 1]))
    assert q == Poly(F2, [1, 1, 1])
    assert r.is_zero


def test_divrem_f3_example():
    # t^2 = (t+1)(t-1) + 1
    q, r = divmod(Poly(F3, [0, 0, 1]), Poly(F3, [2, 1]))
    assert q == Poly(F3, [1, 1])
    assert r == Poly(F3, [1])


def test_divrem_self():
    for spec in (F2, F3, F4):
        a = Poly(spec, [1, 0, 1, 1])
        q, r = divmod(a, a)
        assert q == Poly.one(spec) and r.is_zero


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(F2, [1]), Poly.zero(F2))


def test_mod_and_floordiv_go_through_divmod(monkeypatch):
    # the benchmark's traced __divmod__ span must see every division
    calls = []
    inner = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(1) or inner(a, b))
    x, m = Poly(F3, [1, 2, 0, 1]), Poly(F3, [1, 1])
    assert (x // m, x % m) == inner(x, m)
    assert len(calls) == 2


def test_divrem_reconstruction_random():
    rng = random.Random(42)
    for spec in (F2, F3, F5, F4, F9):
        for _ in range(60):
            a = rand_poly(spec, 8, rng)
            b = rand_poly(spec, 5, rng, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


# -- gcd -----------------------------------------------------------------------


def test_gcd_legendre_n5_coprimality():
    assert gcd(Poly(F2, [0, 0, 1, 1]), geometric_sum(F2, 5)) == Poly.one(F2)


def test_gcd_with_zero_is_monic_normalization():
    a = Poly(F3, [2, 2])
    assert gcd(a, Poly.zero(F3)) == Poly(F3, [1, 1])
    with pytest.raises(DomainError):
        gcd(Poly.zero(F3), Poly.zero(F3))


def test_gcd_perfect_square_char2():
    sq = Poly(F2, [1, 1, 1]) * Poly(F2, [1, 1, 1])
    assert sq == Poly(F2, [1, 0, 1, 0, 1])
    assert gcd(Poly(F2, [1, 1, 1]), sq) == Poly(F2, [1, 1, 1])


def test_gcd_symmetry_and_idempotence():
    rng = random.Random(3)
    for spec in (F2, F3, F4):
        for _ in range(40):
            a = rand_poly(spec, 6, rng, nonzero=True)
            b = rand_poly(spec, 6, rng)
            assert gcd(a, b) == gcd(b, a)
            assert gcd(a, a) == a.monic()


def test_monic_scales_by_the_inverse_leading_coefficient():
    rng = random.Random(5)
    for spec in (F2, F3, F4, F7, F9, FieldSpec.of_order(1024)):
        for _ in range(20):
            a = rand_poly(spec, 6, rng, nonzero=True)
            assert a.monic() == a * a.lc().inverse()
            assert a.monic().lc() == 1
    with pytest.raises(DomainError):
        Poly.zero(F3).monic()


# -- powmod ---------------------------------------------------------------------


def test_powmod_order_three_example():
    assert powmod(Poly(F2, [1, 1]), 3, Poly(F2, [1, 1, 1])) == Poly.one(F2)


def test_powmod_zero_exponent():
    m = Poly(F3, [1, 1, 1])
    assert powmod(Poly(F3, [2, 1]), 0, m) == Poly.one(F3)


def test_powmod_t_to_the_n_mod_cyclic():
    m = t_pow_minus_one(F3, 5)
    assert powmod(Poly.x(F3), 5, m) == Poly.one(F3)


def test_powmod_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        powmod(Poly(F2, [1]), 2, Poly.zero(F2))


# -- factorization ----------------------------------------------------------------


def test_factor_cyclic_sum_n5():
    fac = factorize(geometric_sum(F2, 5))
    assert len(fac.factors) == 1
    poly, mult = fac.factors[0]
    assert poly.degree == 4 and mult == 1


def test_factor_cyclic_sum_n7():
    fac = factorize(geometric_sum(F2, 7))
    assert {str(p) for p, _ in fac.factors} == {"1,1,0,1", "1,0,1,1"}
    assert all(m == 1 for _, m in fac.factors)


def test_factor_t6_minus_1_char2():
    fac = factorize(t_pow_minus_one(F2, 6))
    assert dict((str(p), m) for p, m in fac.factors) == {"1,1": 2, "1,1,1": 2}


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factorize(Poly.zero(F2))


def test_factor_determinism():
    """factorize draws from a PRNG seeded with 0, so repeated runs agree."""
    for f in (t_pow_minus_one(F3, 8) * Poly(F3, [2]), t_pow_minus_one(F4, 15),
              rand_poly(F5, 40, random.Random(3), nonzero=True)):
        assert factorize(f) == factorize(f)


def _independent_irreducible(f):
    # t^(q^k) == t mod f must hold at k = deg f and fail for smaller k >= 1
    spec = f.spec
    t = Poly.x(spec)
    d = f.degree
    for k in range(1, d + 1):
        holds = powmod(t, spec.q**k, f) == t % f
        if k < d and d % k == 0 and holds:
            return False
        if k == d and not holds:
            return False
    return True


def test_factor_reconstruction_and_irreducibility_random():
    rng = random.Random(5)
    for spec in (F2, F3, F4, F5, F8, F9):
        inputs = [(rand_poly(spec, 7, rng, nonzero=True), None) for _ in range(12)]
        # forced multiplicities p, p + 1 and 2p on a random g of degree >= 1
        for mult in (spec.p, spec.p + 1, 2 * spec.p):
            g = rand_poly(spec, 3, rng)
            while g.degree < 1:
                g = rand_poly(spec, 3, rng)
            inputs.append((g**mult * rand_poly(spec, 4, rng, nonzero=True), (g, mult)))
        for f, forced in inputs:
            fac = factorize(f)
            assert fac.expand() == f
            seen = set()
            for p, mult in fac.factors:
                assert mult >= 1
                assert p.lc().enc == 1
                assert p not in seen
                seen.add(p)
                assert _independent_irreducible(p)
                assert is_irreducible(p)
            if forced:
                g, mult = forced
                found = dict(fac.factors)
                for p, e in factorize(g).factors:
                    assert found[p] >= e * mult


def test_squarefree_decomposition_char_p_powers():
    # (t+1)^3 * (t^2+t+1) over GF(2) mixes p-th powers with plain factors
    f = Poly(F2, [1, 1]) ** 3 * Poly(F2, [1, 1, 1])
    assert factorize(f).factors == ((Poly(F2, [1, 1]), 3), (Poly(F2, [1, 1, 1]), 1))


CRT_FIELDS = [F2, F3, F4, F5, F7, F8, F9] + [
    FieldSpec.of_order(q) for q in (16, 25, 27, 32, 49, 64, 81)]


@pytest.mark.parametrize("spec", CRT_FIELDS, ids=lambda s: f"q{s.q}")
def test_crt_split_p_power_shortcut_matches_factorize(spec):
    """crt_split splits only t^r - 1 for n = p^k * r, into its cyclotomic
    factors, and gives each multiplicity p^k; factorize of t^n - 1 itself
    (Cantor-Zassenhaus on uniform residues, which shares only _split's
    rounds, whose gcds return divisors) must give the same pairs in the
    same order at every n <= 60: prime, composite and divisible by p."""
    for n in range(1, 61):
        pairs = tuple((c.pi, c.e) for c in crt_split(spec, n))
        assert factorize(t_pow_minus_one(spec, n)).factors == pairs, n


@pytest.mark.parametrize("spec", CRT_FIELDS, ids=lambda s: f"q{s.q}")
def test_crt_split_records_carry_m_and_degree(spec):
    """Each record of t^n - 1, n = p^k * r <= 60: m | r and e = p^k;
    d = ord_m(q) = deg pi, and pi divides Phi_m; each m | r has phi(m)/d
    records; exactly one record has m = 1, and its pi is t - 1. Phi_m and
    ord_m(q) come from their definitions, not from polyring."""
    p, q = spec.p, spec.q
    phis = {}  # Phi_m: t^m - 1 divided by the Phi_k of m's proper divisors
    for n in range(1, 61):
        r, pk = n, 1
        while r % p == 0:
            r, pk = r // p, pk * p
        comps = crt_split(spec, n)
        for m in divisors(r):
            if m not in phis:
                phis[m] = t_pow_minus_one(spec, m)
                for k in divisors(m)[:-1]:
                    phis[m] = phis[m] // phis[k]
            d = next(k for k in range(1, m + 1) if (q**k - 1) % m == 0)
            mine = [c for c in comps if c.m == m]
            assert len(mine) == sum(math.gcd(i, m) == 1 for i in range(m)) // d, (n, m)
            for c in mine:
                assert c.e == pk and c.d == d == c.pi.degree, (n, c)
                assert (phis[m] % c.pi).is_zero, (n, c)
        assert all(r % c.m == 0 for c in comps), n
        assert [c.pi for c in comps if c.m == 1] == [t_pow_minus_one(spec, 1)], n


def test_crt_split_never_factorizes(monkeypatch):
    """crt_split neither calls factorize nor draws Cantor-Zassenhaus
    residues: every split it runs is in the fixed subalgebra, k = 1."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("crt_split called factorize")

    split, ks = polyring._split, []

    def fixed_only(spec, f, d, k, rounds, what):
        ks.append(k)
        return split(spec, f, d, k, rounds, what)

    monkeypatch.setattr(polyring, "factorize", refuse)
    monkeypatch.setattr(groupalg, "factorize", refuse, raising=False)
    monkeypatch.setattr(polyring, "_split", fixed_only)
    crt_split.cache_clear()
    for spec in (F2, F3, F4, F9):
        for n in (1, 15, 21, 45, 63, 90):
            assert crt_split(spec, n)
    assert ks and set(ks) == {1}


@pytest.mark.parametrize("q, n", [(7, 6), (9, 8), (25, 24)])
def test_cyclotomic_factors_of_degree_one(q, n):
    """q = 1 mod n: t^n - 1 is the product of t - r over the n roots r^n = 1."""
    spec = FieldSpec.of_order(q)
    roots = [r for r in range(1, q) if spec.pow_enc(r, n) == 1]
    assert len(roots) == n
    assert [pi for pi, _m in cyclotomic_factors(spec, n)] == sorted(
        (Poly(spec, (spec.neg_enc(r), 1)) for r in roots), key=lambda f: f.coeff_encs)


@pytest.mark.parametrize("q, n", [(4, 5), (9, 10)])
def test_cyclotomic_factors_conjugate_over_the_prime_field(q, n):
    """Phi_5 is irreducible over GF(p) but splits over GF(p^2) into two
    quadratics that c -> c^p on coefficients swaps."""
    spec = FieldSpec.of_order(q)
    factors = [pi for pi, _m in cyclotomic_factors(spec, n)]
    assert factors == [pi for pi, _e in factorize(t_pow_minus_one(spec, n)).factors]
    quadratics = [f for f in factors if f.degree == 2]
    assert len(quadratics) == (2 if n == 5 else 4)
    for f in quadratics:
        conj = Poly(spec, [spec.pow_enc(c, spec.p) for c in f.coeff_encs])
        assert conj != f and conj in quadratics and is_irreducible(f)


def test_cyclotomic_factors_with_hundreds_of_factors():
    """GF(2), n = 4095 = 3^2 5 7 13: each Phi_m gives phi(m)/d irreducibles
    of degree d = ord_m(2), and their product is t^n - 1."""
    n = 4095
    pairs = cyclotomic_factors(F2, n)
    factors = [f for f, _m in pairs]
    assert len(factors) > 300
    product = Poly.one(F2)
    for f in factors:
        product = product * f
    assert product == t_pow_minus_one(F2, n)
    assert all(is_irreducible(f) for f in factors)
    phis = {}
    for m in divisors(n):
        phi = t_pow_minus_one(F2, m)
        for k in phis:
            if m % k == 0:
                phi = phi // phis[k]
        phis[m] = phi
        d = order(2 % m, phi.degree, lambda x, j: pow(x, j, m), 1 % m)
        mine = [f for f, k in pairs if k == m]
        assert len(mine) == phi.degree // d, m
        assert all(f.degree == d and (phi % f).is_zero for f in mine), m


def test_splitting_stops_at_the_round_cap(monkeypatch):
    """Draws that never separate two factors exhaust the stream and raise,
    naming Phi_m and the field; so does factorize, naming the field."""
    class Zeros:
        def randrange(self, _q):
            return 0

    monkeypatch.setattr(polyring, "random", SimpleNamespace(Random=lambda _seed: Zeros()))
    with pytest.raises(ResourceLimitError, match=r"Phi_5 over GF\(4\)"):
        cyclotomic_factors(F4, 5)
    with pytest.raises(ResourceLimitError, match=r"GF\(3\)"):
        factorize(Poly(F3, (2, 0, 1)))


def test_cyclotomic_factors_need_n_coprime_to_p():
    assert cyclotomic_factors(F3, 8) == [(c.pi, c.m) for c in crt_split(F3, 8)]
    for spec, n in ((F3, 6), (F4, 2), (F2, 0)):
        with pytest.raises(DomainError):
            cyclotomic_factors(spec, n)


def test_is_irreducible_examples():
    assert is_irreducible(Poly(F2, [1, 1, 1]))
    assert not is_irreducible(Poly(F2, [1, 0, 1]))
    assert is_irreducible(Poly(F3, [1, 0, 1]))
    assert not is_irreducible(Poly.one(F3))


# -- resultants --------------------------------------------------------------------


def _sylvester_resultant(a, b):
    """Direct Sylvester-matrix determinant by Gaussian elimination."""
    spec = a.spec
    m, n = a.degree, b.degree
    if m == 0 and n == 0:
        return spec.one
    size = m + n
    rows = []
    ac = list(reversed(a.coeff_encs))
    bc = list(reversed(b.coeff_encs))
    for i in range(n):
        rows.append([0] * i + ac + [0] * (size - i - len(ac)))
    for i in range(m):
        rows.append([0] * i + bc + [0] * (size - i - len(bc)))
    det = spec.one
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return spec.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * spec.element(rows[col][col])
        inv = spec.inv_enc(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = spec.mul_enc(rows[r][col], inv)
                for c in range(col, size):
                    rows[r][c] = spec.sub_enc(
                        rows[r][c], spec.mul_enc(factor, rows[col][c]))
    return det


def test_resultant_linear_example():
    assert resultant(Poly(F3, [2, 1]), Poly(F3, [1, 1])).enc == 2


def test_resultant_legendre_n5_example():
    assert resultant(geometric_sum(F2, 5), Poly(F2, [0, 0, 1, 1])).enc == 1


def test_resultant_against_constant_one():
    for spec in (F2, F3, F4):
        a = Poly(spec, [1, 1, 0, 1])
        assert resultant(a, Poly.one(spec)).enc == 1


def test_resultant_zero_inputs_rejected():
    with pytest.raises(DomainError):
        resultant(Poly.zero(F2), Poly(F2, [1]))


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(17)
    for spec in (F2, F3, F5, F4):
        for _ in range(60):
            a = rand_poly(spec, 6, rng, nonzero=True)
            b = rand_poly(spec, 6, rng, nonzero=True)
            assert resultant(a, b) == _sylvester_resultant(a, b)


def test_resultant_multiplicativity():
    rng = random.Random(23)
    for spec in (F2, F3, F9):
        for _ in range(40):
            a = rand_poly(spec, 4, rng, nonzero=True)
            b = rand_poly(spec, 4, rng, nonzero=True)
            c = rand_poly(spec, 4, rng, nonzero=True)
            assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


# -- multiplicative orders ------------------------------------------------------------


def test_mult_order_int_examples():
    assert order(2, 5 - 1, lambda x, k: pow(x, k, 5), 1) == 4
    assert order(2, 7 - 1, lambda x, k: pow(x, k, 7), 1) == 3
    assert order(3, 13 - 1, lambda x, k: pow(x, k, 13), 1) == 3


def _order(a, pi, e=1):
    """Order of a unit a mod pi^e: the last entry of _order_prime_power's
    orders."""
    v, orders = _order_prime_power(a, pi, e)
    assert v == 0
    return orders[-1]


def test_mult_order_mod_examples():
    m = Poly(F2, [1, 1, 1])
    assert _order(Poly(F2, [1, 1]), m) == 3
    assert _order(Poly.x(F2), m) == 3
    assert _order(Poly.one(F2), m) == 1
    assert _order(Poly.one(F3), Poly(F3, [1, 0, 1])) == 1


def test_mult_order_mod_divides_group_order():
    rng = random.Random(31)
    for spec, m in [(F2, Poly(F2, [1, 1, 0, 1])), (F3, Poly(F3, [1, 0, 1])),
                    (F4, Poly(F4, [2, 1]))]:
        group = spec.q**m.degree - 1
        for _ in range(20):
            a = rand_poly(spec, m.degree - 1, rng, nonzero=True)
            k = _order(a, m)
            assert group % k == 0
            assert powmod(a, k, m) == Poly.one(spec)


def _valuation_by_division(a, pi, e):
    """min(v_pi(a), e), dividing a by pi while pi divides it."""
    v = 0
    while v < e and (a % pi).is_zero:
        a, v = a // pi, v + 1
    return v


# p | n, so every component pi^e of t^n - 1 has e > 1; pi has degree up to 4
NON_UNIT_CASES = [(F2, 12), (F2, 28), (F2, 64), (F3, 15), (F3, 18), (F4, 20), (F5, 50), (F9, 6)]


@pytest.mark.parametrize("spec, n", NON_UNIT_CASES,
                         ids=[f"q{spec.q}-n{n}" for spec, n in NON_UNIT_CASES])
def test_order_prime_power_gives_a_non_unit_its_valuation(spec, n):
    """A non-unit a has no order mod pi^e: _order_prime_power gives
    (min(v_pi(a), e), None), for a = 0 and for pi^j * g, j = 1..e + 1."""
    rng = random.Random(n * spec.q)
    for c in crt_split(spec, n):
        assert c.e > 1
        assert _order_prime_power(Poly.zero(spec), c.pi, c.e) == (c.e, None)
        for j in range(1, c.e + 2):
            a = c.pi**j * rand_poly(spec, 6, rng, nonzero=True)
            assert _order_prime_power(a, c.pi, c.e) == \
                (_valuation_by_division(a, c.pi, c.e), None)


def test_mult_order_mod_prime_power_modulus():
    # unit group of GF(2)[t]/(t+1)^2 has order 2
    assert _order(Poly.x(F2), Poly(F2, [1, 1]), 2) == 2


def test_mult_order_mod_effort_cap_propagates(monkeypatch):
    import ffdyn.intfactor as intfactor

    def tiny_factor(n):
        raise ResourceLimitError("forced")

    monkeypatch.setattr(intfactor, "factor_int", tiny_factor)
    with pytest.raises(ResourceLimitError):
        _order(Poly(F2, [1, 1]), Poly(F2, [1, 1, 1]))


def _orders_by_iteration(a, pi, e):
    """Orders of a mod pi^m for m = 0..e, from the powers a, a^2, ... mod
    pi^e: the order mod pi^m is the first k with a^k == 1 mod pi^m."""
    spec = a.spec
    one = Poly.one(spec)
    mods = [pi**m for m in range(e + 1)]
    orders = [1] + [None] * e
    x, k = a % mods[e], 1
    while None in orders:
        for m in range(1, e + 1):
            if orders[m] is None and x % mods[m] == one:
                orders[m] = k
        x, k = (x * a) % mods[e], k + 1
    return orders


@pytest.mark.parametrize("spec, pi, e", [
    (F2, (1, 1), 8), (F2, (1, 1, 1), 4), (F3, (1, 1), 9), (F3, (1, 0, 1), 3),
    (F4, (1, 1), 4)], ids=["q2-lin-e8", "q2-quad-e4", "q3-lin-e9", "q3-quad-e3", "q4-lin-e4"])
def test_order_lifting_matches_iteration(spec, pi, e):
    """The orders mod pi^m for m = 1..e (several lifts by p) against the
    first return to 1 of the powers of a random unit."""
    pi = Poly(spec, pi)
    rng = random.Random(e * spec.q + pi.degree)
    units = 0
    while units < 6:
        a = Poly(spec, [rng.randrange(spec.q) for _ in range(e * pi.degree)])
        if (a % pi).is_zero:
            continue
        units += 1
        assert _order_prime_power(a, pi, e) == (0, _orders_by_iteration(a, pi, e))


# small components pi^e, e = 1..3, up to 729 residues
SMALL_COMPONENTS = [(spec, pi, e) for spec, pi in [
    (F2, (1, 1)), (F2, (1, 1, 1)), (F3, (1, 1)), (F3, (1, 0, 1)), (F4, (1, 1)),
    (F4, (2, 1, 1)), (F9, (1, 1))] for e in (1, 2, 3) if spec.q ** (e * (len(pi) - 1)) <= 729]


@pytest.mark.parametrize("spec, pi, e", SMALL_COMPONENTS,
                         ids=[f"q{spec.q}-deg{len(pi) - 1}-e{e}" for spec, pi, e in SMALL_COMPONENTS])
def test_order_of_every_unit_matches_multiplication(spec, pi, e):
    """Every unit mod pi^e against the first returns to 1 of its powers."""
    pi = Poly(spec, pi)
    assert is_irreducible(pi)
    for c in itertools.product(range(spec.q), repeat=e * pi.degree):
        a = Poly(spec, c)
        if not (a % pi).is_zero:
            assert _order_prime_power(a, pi, e) == (0, _orders_by_iteration(a, pi, e)), a


# the degree-28 component of t^29 - 1 over GF(3) packs its residues mod pi,
# and so does pi^3 for pi = t^2 + 1
DEG28 = next(c.pi.coeff_encs for c in crt_split(F3, 29) if c.d == 28)


@pytest.mark.parametrize("spec, pi, e", [
    (F2, (1, 1, 1), 3), (F3, (2, 1), 1), (F3, (1, 0, 1), 3), (F9, (1, 1), 2), (F3, DEG28, 1),
    (F3, DEG28, 2)], ids=["q2-e3", "q3-e1", "q3-e3", "q9-e2", "q3-deg28-e1", "q3-deg28-e2"])
def test_order_prime_power_runs_on_kernel_forms(spec, pi, e, monkeypatch):
    """No public powmod and no Poly division inside: the probes and the
    lift run on the kernel's forms."""
    rng = random.Random(e)
    pi = Poly(spec, pi)
    units = [a for a in (rand_poly(spec, 6, rng) for _ in range(6)) if not (a % pi).is_zero]
    expected = [_order_prime_power(a, pi, e) for a in units]

    def refuse(*args):
        raise AssertionError("Poly-level call inside _order_prime_power")

    monkeypatch.setattr(polyring, "powmod", refuse)
    monkeypatch.setattr(Poly, "__divmod__", refuse)
    assert [_order_prime_power(a, pi, e) for a in units] == expected
