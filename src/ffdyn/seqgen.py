"""Generators for the distinguished sequences: quadratic-residue indicators,
multiplicative characters, and the regular/random references."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DomainError
from .ffield import FieldSpec
from .groupalg import CyclicSeq
from .intfactor import is_prime, order


def legendre_symbol(i: int, n: int) -> int:
    """Standard Legendre symbol (i/n) in {-1, 0, +1} via Euler's criterion."""
    if n < 3 or not is_prime(n):
        raise DomainError(f"{n} is not an odd prime")
    r = pow(i % n, (n - 1) // 2, n)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def arnold_log_seq(spec: FieldSpec, n: int) -> CyclicSeq:
    """Indicator of quadratic nonresidues mod r = n + 1 (r prime), i = 1..n.

    Every i in 1..n is nonzero mod r, so each position is 0 (residue) or
    1 (nonresidue).
    """
    r = n + 1
    if not is_prime(r):
        raise DomainError(f"n + 1 = {r} must be prime")
    if r == 2:
        return CyclicSeq(spec, (0,))
    # Euler's criterion, as in legendre_symbol, without re-testing r per i
    half = (r - 1) // 2
    return CyclicSeq(spec, [0 if pow(i, half, r) == 1 else 1 for i in range(1, n + 1)])


def legendre_seq(spec: FieldSpec, n: int) -> CyclicSeq:
    """Nonresidue indicator mod n itself for i = 1..n-1, with the last value 0."""
    if n < 3 or not is_prime(n):
        raise DomainError(f"{n} is not an odd prime")
    return CyclicSeq(spec, arnold_log_seq(spec, n - 1).value_encs + (0,))


def primitive_root_mod(n: int) -> int:
    """Smallest primitive root modulo the prime n."""
    if not is_prime(n):
        raise DomainError(f"{n} is not prime")
    return next(g for g in range(1, n)
                if order(g, n - 1, lambda x, k: pow(x, k, n), 1) == n - 1)


def multiplicative_generator(spec: FieldSpec):
    """Smallest-encoding generator of the multiplicative group of GF(q)."""
    q = spec.q
    return spec.element(next(a for a in range(1, q)
                             if order(a, q - 1, spec.pow_enc, 1) == q - 1))


def multiplicative_family(spec: FieldSpec, n: int) -> list[CyclicSeq]:
    """All multiplicative functions on 1..n-1 (prime n), padded with 0 at n.

    Each is determined by the image a of a primitive root g mod n, where a
    ranges over the solutions of a^(n-1) = 1 in GF(q)^*; there are exactly
    gcd(n-1, q-1) of them. Ordered by the encoding of a.
    """
    if not is_prime(n):
        raise DomainError(f"{n} is not prime")
    q = spec.q
    g = primitive_root_mod(n)
    m = math.gcd(n - 1, q - 1)
    step = spec.pow_enc(multiplicative_generator(spec).enc, (q - 1) // m)
    out = []
    for a in sorted(spec.pow_enc(step, k) for k in range(m)):
        vals = [0] * n
        idx = 1
        val = 1
        for _ in range(n - 1):
            vals[idx - 1] = val
            idx = idx * g % n
            val = spec.mul_enc(val, a)
        out.append(CyclicSeq(spec, vals))
    return out


def ones_seq(spec: FieldSpec, n: int) -> CyclicSeq:
    return CyclicSeq(spec, (1,) * n)


def alternating_seq(spec: FieldSpec, n: int) -> CyclicSeq:
    """(1, 0, 1, 0, ...); only closed for even n."""
    if n % 2 != 0:
        raise DomainError("alternating sequence needs even n")
    return CyclicSeq(spec, tuple(1 - (i % 2) for i in range(n)))


def regular_seqs(spec: FieldSpec, n: int) -> list[CyclicSeq]:
    """The named regular sequences: all-ones, and alternating when n is even."""
    out = [ones_seq(spec, n)]
    if n % 2 == 0:
        out.append(alternating_seq(spec, n))
    return out


def random_seq(spec: FieldSpec, n: int, seed: int) -> CyclicSeq:
    """Uniform sequence from a seeded PRNG; identical seed, identical output."""
    rng = random.Random(seed)
    return CyclicSeq(spec, tuple(rng.randrange(spec.q) for _ in range(n)))


KINDS = ("legendre", "arnold", "mult", "const", "alt", "random")


@dataclass(frozen=True)
class GeneratorSpec:
    """A named sequence source; `build` returns one or more sequences."""

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown generator {self.kind!r}; pick from {KINDS}")

    def build(self, spec: FieldSpec, n: int) -> list[CyclicSeq]:
        if self.kind == "legendre":
            return [legendre_seq(spec, n)]
        if self.kind == "arnold":
            return [arnold_log_seq(spec, n)]
        if self.kind == "mult":
            return multiplicative_family(spec, n)
        if self.kind == "const":
            return [ones_seq(spec, n)]
        if self.kind == "alt":
            return [alternating_seq(spec, n)]
        if self.seed is None:
            raise DomainError("random generation requires a seed")
        return [random_seq(spec, n, self.seed)]
