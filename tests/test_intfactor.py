import math

import pytest

from ffdyn import intfactor
from ffdyn.errors import DomainError, ResourceLimitError
from ffdyn.intfactor import (_MR_BASES, _PSI, divisors, factor_int, is_prime,
                              is_strong_lucas_prp, order, power, prime_power)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**67 - 1)  # Mersenne's famous composite
    assert is_prime(2**89 - 1)


# psi_12, the least strong pseudoprime to every prime base up to 37
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_psi_12():
    assert not is_prime(PSI_12)
    assert factor_int(PSI_12) == {399165290221: 1, 798330580441: 1}


# psi_13, the least strong pseudoprime to every prime base up to 41, all of
# is_prime's Miller-Rabin bases: the strong Lucas stage rejects it
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi_13():
    assert not is_prime(PSI_13)
    assert factor_int(PSI_13) == {1287836182261: 1, 2575672364521: 1}


def strong_prp(n, a):
    """One Miller-Rabin round: whether the odd n > 2 is a strong probable
    prime to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def sieve(limit):
    """flags[m] is whether m < limit is prime."""
    flags = [False, False] + [True] * (limit - 2)
    for m in range(2, math.isqrt(limit - 1) + 1):
        if flags[m]:
            flags[m * m::m] = [False] * len(range(m * m, limit, m))
    return flags


def test_is_prime_rejects_every_base_2_strong_pseudoprime_below_1e5():
    flags = sieve(10**5)
    spsp = [n for n in range(3, 10**5, 2) if strong_prp(n, 2) and not flags[n]]
    assert spsp[:5] == [2047, 3277, 4033, 4681, 8321]  # OEIS A001262
    assert len(spsp) == 16
    assert not any(map(is_prime, spsp))


def test_psi_table_entries_pass_exactly_their_bases():
    """psi_k passes the first k bases and, where psi_(k+1) > psi_k, fails
    base k + 1 (else psi_(k+1) <= psi_k)."""
    assert len(_PSI) == len(_MR_BASES) and list(_PSI) == sorted(_PSI)
    for k, psi in enumerate(_PSI, 1):
        assert all(strong_prp(psi, a) for a in _MR_BASES[:k]), k
        if k < len(_PSI) and _PSI[k] > psi:
            assert not strong_prp(psi, _MR_BASES[k]), k


def test_strong_lucas_rejects_squares():
    # no Selfridge parameter exists for a square; a prime's square is the
    # case that a search for one would loop on
    p = 2**61 - 1
    assert not is_strong_lucas_prp(p * p)
    assert is_strong_lucas_prp(p)


def test_factor_known_values():
    assert factor_int(1) == {}
    assert factor_int(2**28 - 1) == {3: 1, 5: 1, 29: 1, 43: 1, 113: 1, 127: 1}
    assert factor_int(2**11 - 1) == {23: 1, 89: 1}
    assert factor_int(720) == {2: 4, 3: 2, 5: 1}


def test_factor_reconstructs():
    for n in (97, 1024, 3**13 - 1, 5**7 - 1, 999_999_937):
        fac = factor_int(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_uses_rho_beyond_trial_bound():
    # both factors above the trial bound
    p, q = 1_000_003, 1_000_033
    assert factor_int(p * q) == {p: 1, q: 1}


def test_factor_effort_cap(monkeypatch):
    monkeypatch.setattr(intfactor, "TRIAL_BOUND", 1000)
    monkeypatch.setattr(intfactor, "RHO_ITER_BUDGET", 50)
    hard = (2**89 - 1) * (2**107 - 1)
    for _ in range(2):  # a failure is not cached
        with pytest.raises(ResourceLimitError):
            factor_int(hard)


def test_factor_cache_hands_out_fresh_dicts():
    first = factor_int(720)
    first[2] = 99
    first[7] = 1
    assert factor_int(720) == {2: 4, 3: 2, 5: 1}


def test_factor_cache_keys_on_the_number(monkeypatch):
    """A budget of one rho iteration gives up on this cofactor and caches
    nothing; the default budget then splits it, and the cache answers for n
    alone."""
    n = 1_000_003 * 1_000_033
    intfactor._factor.cache_clear()
    monkeypatch.setattr(intfactor, "RHO_ITER_BUDGET", 1)
    with pytest.raises(ResourceLimitError):
        factor_int(n)
    monkeypatch.undo()
    assert factor_int(n) == {1_000_003: 1, 1_000_033: 1}
    monkeypatch.setattr(intfactor, "RHO_ITER_BUDGET", 1)
    assert factor_int(n) == {1_000_003: 1, 1_000_033: 1}


def test_prime_power_agrees_with_factoring():
    for n in range(-3, 3000):
        fac = factor_int(n) if n >= 2 else {}
        assert prime_power(n) == (next(iter(fac.items())) if len(fac) == 1 else None), n
    m61, m89 = 2**61 - 1, 2**89 - 1
    for n, want in ((m61**2, (m61, 2)), (m61 * m89, None), (3**500, (3, 500)),
                    (m89**3 * 2, None), ((2**127 - 1)**2, (2**127 - 1, 2))):
        assert prime_power(n) == want


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def mod_power(m):
    return lambda x, k: pow(x, k, m)


def order_by_iteration(x, m):
    k, y = 1, x % m
    while y != 1 % m:
        k, y = k + 1, y * x % m
    return k


def test_order_is_least_divisor_passing_the_test():
    """Every unit mod every m <= 300, and mod 1000, with n = phi(m)."""
    for m in [*range(1, 301), 1000]:
        units = [x for x in range(m) if math.gcd(x, m) == 1]
        for x in units:
            assert order(x, len(units), mod_power(m), 1 % m) == order_by_iteration(x, m), (x, m)


def test_order_of_one_and_with_n_one():
    assert order(1, 1, mod_power(7), 1) == 1
    assert order(1, 2**5 * 3**4 * 7, mod_power(11), 1) == 1
    with pytest.raises(DomainError):
        order(3, 1, mod_power(7), 1)


def test_order_with_prime_power_n():
    # (Z/17)^* has order 2^4; the squares mod 163 have order 3^4
    for x in range(1, 17):
        assert order(x, 16, mod_power(17), 1) == order_by_iteration(x, 17)
    for b in range(1, 163):
        x = b * b % 163
        assert order(x, 81, mod_power(163), 1) == order_by_iteration(x, 163)


def test_order_rejects_x_to_the_n_not_one():
    # 3 has order 6 mod 7: neither 4 nor 10 nor the prime power 9 is a multiple
    for n in (4, 9, 10):
        with pytest.raises(DomainError):
            order(3, n, mod_power(7), 1)


def counted():
    """Integer multiplication that records its factors."""
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b
    return mul, calls


def test_power_with_zero_exponent():
    mul, calls = counted()
    assert power(mul, 3, 0, 1) == 1
    assert power(mul, 3, 0, 1, acc=5) == 5
    assert calls == []


def test_power_never_multiplies_by_one():
    """k's bit length - 1 squarings and one product per further set bit;
    with acc, one product per set bit, each by a power of x."""
    for k in range(1, 300):
        mul, calls = counted()
        assert power(mul, 5, k, 1) == 5**k
        assert len(calls) == k.bit_length() - 1 + k.bit_count() - 1, k
        assert all(1 not in pair for pair in calls)
        mul, calls = counted()
        assert power(mul, 5, k, 1, acc=3) == 3 * 5**k
        assert len(calls) == k.bit_length() - 1 + k.bit_count(), k
        assert all(1 not in pair for pair in calls)


def test_power_matches_builtin_pow():
    for m in (2, 97, 2**61 - 1, 10**30 + 57):
        for x in (0, 1 % m, 2 % m, m - 1, 12345 % m):
            for k in (1, 2, 3, 64, 65, 10**20 + 3):
                assert power(lambda a, b: a * b % m, x, k, 1 % m) == pow(x, k, m)
    with pytest.raises(DomainError):
        power(lambda a, b: a * b, 2, -1, 1)
