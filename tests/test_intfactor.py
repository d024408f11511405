import math

import pytest

from ffdyn.errors import ResourceLimitError
from ffdyn.intfactor import divisors, factor_int, is_prime, order


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**67 - 1)  # Mersenne's famous composite
    assert is_prime(2**89 - 1)


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


def test_factor_effort_cap():
    hard = (2**89 - 1) * (2**107 - 1)
    with pytest.raises(ResourceLimitError):
        factor_int(hard, trial_bound=1000, rho_budget=50)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_order_is_least_divisor_passing_the_test():
    for m in (2, 9, 13, 25, 97, 1000):
        for base in range(1, m):
            if math.gcd(base, m) != 1:
                continue
            phi = sum(1 for x in range(1, m + 1) if math.gcd(x, m) == 1)
            first = next(k for k in range(1, phi + 1) if pow(base, k, m) == 1)
            assert order(phi, lambda k: pow(base, k, m) == 1) == first, (base, m)
