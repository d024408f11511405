"""Integer primality and capped factorization (trial division + Brent rho).

Factoring effort is bounded so that order computations either succeed or
fail loudly with :class:`ResourceLimitError`; they never guess.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, ResourceLimitError

TRIAL_BOUND = 10**6
RHO_ITER_BUDGET = 2_000_000

# Miller-Rabin witnesses and, beside them, psi_k (OEIS A014233; Jaeschke
# 1993, Sorenson and Webster 2017): the least odd composite that passes the
# first k bases, so passing them decides every n below psi_k. psi_13 is the
# least composite that passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)


def is_prime(n: int) -> bool:
    """Trial division by _MR_BASES, which decides n < 43^2 (a composite
    with no prime factor up to 41 is at least 43^2), then strong-probable-
    prime tests to the bases in turn, stopping at the first psi_k above n.
    From psi_13 on, a strong Lucas test follows (so the whole is a
    Baillie-PSW test, with no known counterexample)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return is_strong_lucas_prp(n)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with p prime and p^e == n, or None: is_prime tests each exact
    integer k-th root of n, found by Newton's iteration on integers from
    2^ceil(bits / k), above the root, down to floor(n^(1/k)); no factoring."""
    for k in range(1, n.bit_length() if n > 1 else 0):
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n and is_prime(r):
            return r, k
    return None


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.

    With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 for
    some r < s. x^k = U_k x - Q U_(k-1) in Z/n[x]/(x^2 - x + Q), so U_k is
    the x-coefficient of x^k and V_k its trace.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return n == abs(D)
    Q = (1 - D) // 4

    def mul(u, v):
        # (a + bx)(c + ex) with x^2 = x - Q
        (a, b), (c, e) = u, v
        be = b * e
        return (a * c - Q * be) % n, (a * e + b * c + be) % n

    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    a, b = power(mul, (0, 1), d, (1, 0))
    if b == 0:
        return True
    for _ in range(s):
        if (2 * a + b) % n == 0:  # the trace, V
            return True
        a, b = mul((a, b), (a, b))
    return False


def _brent_rho(n: int, budget: int) -> int | None:
    """One deterministic Brent-rho pass; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
    iters = 0
    for c in range(1, 64):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                iters += min(m, r - k)
                if iters > budget:
                    return None
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def factor_int(n: int) -> dict[int, int]:
    """Full prime factorization {prime: exponent} of n >= 1, a fresh dict
    on every call (the factorizations are cached, bounded, per n).

    Raises ResourceLimitError when a cofactor survives both trial division
    to TRIAL_BOUND and RHO_ITER_BUDGET rho iterations; no failure is cached.
    """
    if n < 1:
        raise ValueError("factor_int needs n >= 1")
    return dict(_factor(n))


@lru_cache(maxsize=1024)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _brent_rho(m, RHO_ITER_BUDGET)
        if f is None or f in (1, m):
            raise ResourceLimitError(
                f"factoring effort exceeded on cofactor {m}")
        stack.append(f)
        stack.append(m // f)
    return tuple(out.items())


def power(mul, x, k: int, one, acc=None):
    """acc * x^k under the product mul, or x^k when acc is None (one at
    k = 0), by square-and-multiply from the right: x runs through x^(2^i)
    and acc takes x^(2^i) for each set bit i of k, so no product has one as
    a factor and acc is only ever multiplied by powers of x."""
    if k < 0:
        raise DomainError("negative exponent")
    while k:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if acc is None else acc


def order(x, n: int, power, one) -> int:
    """The order of x, a group element with x^n == one, where power(y, k)
    is y^k: the least k dividing n with power(x, k) == one. DomainError
    when x^n != one.

    A product tree over the prime powers l^e of n (Sutherland, Order
    computations in generic groups, 2007): each half of the list raises y
    to the other half's product, so one level of the tree costs about one
    powering by n, and a leaf finds the l-part of the order by powering by
    l at most e times. Every leaf's y has y^(l^e) = x^n, so a leaf that
    does not reach one proves x^n != one.
    """
    def tree(y, prime_powers):
        if len(prime_powers) == 1:
            (ell, e), = prime_powers
            k = 1
            while y != one:
                if not e:
                    raise DomainError(f"the element's order does not divide {n}")
                y, k, e = power(y, ell), k * ell, e - 1
            return k
        half = len(prime_powers) // 2
        low, high = prime_powers[:half], prime_powers[half:]
        return (tree(power(y, math.prod(ell**e for ell, e in high)), low)
                * tree(power(y, math.prod(ell**e for ell, e in low)), high))

    if n == 1:
        if x != one:
            raise DomainError("the element's order does not divide 1")
        return 1
    return tree(x, list(factor_int(n).items()))


def divisors(n: int) -> list[int]:
    """Sorted list of all divisors of n (fully factors n first)."""
    out = [1]
    for p, e in factor_int(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
