"""Univariate polynomial arithmetic over GF(q).

Dense representation: a tuple of coefficient encodings, low degree first,
no trailing zeros. Provides division, gcd, modular powering, complete
factorization (squarefree / distinct-degree / Cantor-Zassenhaus), resultants
and multiplicative-order computations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DomainError
from .ffield import FieldElem, FieldSpec
from .intfactor import factor_int, is_prime

NEG_INF = float("-inf")  # degree of the zero polynomial


class Poly:
    """Polynomial over a FieldSpec; immutable, canonical (no trailing zeros)."""

    __slots__ = ("spec", "_c")

    def __init__(self, spec: FieldSpec, coeffs=()):
        encs = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                if c.spec != spec:
                    raise DomainError("coefficient from a different field")
                encs.append(c.enc)
            else:
                c = int(c)
                if not 0 <= c < spec.q:
                    raise DomainError(f"coefficient encoding {c} outside [0, {spec.q})")
                encs.append(c)
        while encs and encs[-1] == 0:
            encs.pop()
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_c", tuple(encs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec)

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, 1))

    @classmethod
    def monomial(cls, spec: FieldSpec, k: int, coeff: int = 1) -> "Poly":
        return cls(spec, (0,) * k + (coeff,))

    @classmethod
    def from_text(cls, spec: FieldSpec, text: str) -> "Poly":
        """Comma-separated coefficient encodings, low degree first."""
        return cls(spec, (int(c) for c in text.split(",")))

    # -- data -------------------------------------------------------------

    @property
    def coeff_encs(self) -> tuple[int, ...]:
        return self._c

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(FieldElem(self.spec, c) for c in self._c)

    @property
    def degree(self):
        """Degree as an int; NEG_INF for the zero polynomial."""
        return len(self._c) - 1 if self._c else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._c

    def lc(self) -> FieldElem:
        if not self._c:
            raise DomainError("zero polynomial has no leading coefficient")
        return FieldElem(self.spec, self._c[-1])

    def monic(self) -> "Poly":
        if not self._c:
            raise DomainError("cannot normalize the zero polynomial")
        if self._c[-1] == 1:
            return self
        inv = self.spec.inv_enc(self._c[-1])
        return Poly(self.spec, (self.spec.mul_enc(c, inv) for c in self._c))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.spec != other.spec:
            raise DomainError("polynomials over different fields cannot mix")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        add = self.spec.add_enc
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.spec, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        neg = self.spec.neg_enc
        return Poly(self.spec, (neg(c) for c in self._c))

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise DomainError("scalar from a different field")
            mul = self.spec.mul_enc
            return Poly(self.spec, (mul(c, other.enc) for c in self._c))
        self._check(other)
        a, b = self._c, other._c
        if not a or not b:
            return Poly.zero(self.spec)
        mul, add = self.spec.mul_enc, self.spec.add_enc
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly(self.spec, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElem):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise DomainError("negative polynomial powers are undefined")
        result = Poly.one(self.spec)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        rem = list(self._c)
        db = len(other._c) - 1
        inv_lb = spec.inv_enc(other._c[-1])
        quot = [0] * max(0, len(rem) - db)
        mul, sub = spec.mul_enc, spec.sub_enc
        while len(rem) - 1 >= db and rem:
            c = mul(rem[-1], inv_lb)
            k = len(rem) - 1 - db
            quot[k] = c
            for j in range(db + 1):
                rem[k + j] = sub(rem[k + j], mul(c, other._c[j]))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(spec, quot), Poly(spec, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x) -> FieldElem:
        """Evaluate by Horner's rule."""
        enc = x.enc if isinstance(x, FieldElem) else int(x)
        spec = self.spec
        acc = 0
        for c in reversed(self._c):
            acc = spec.add_enc(spec.mul_enc(acc, enc), c)
        return FieldElem(spec, acc)

    def derivative(self) -> "Poly":
        spec = self.spec
        out = []
        for i, c in enumerate(self._c[1:], start=1):
            scalar = i % spec.p
            out.append(spec.mul_enc(c, spec.from_int(scalar).enc))
        return Poly(spec, out)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.spec == other.spec and self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self._c))

    def __str__(self):
        return ",".join(str(c) for c in self._c) if self._c else "0"

    def __repr__(self):
        return f"Poly(GF({self.spec.q}), [{self}])"


def geometric_sum(spec: FieldSpec, n: int) -> Poly:
    """1 + t + ... + t^(n-1)."""
    return Poly(spec, (1,) * n)


def t_pow_minus_one(spec: FieldSpec, n: int) -> Poly:
    """t^n - 1."""
    coeffs = [spec.neg_enc(1)] + [0] * (n - 1) + [1]
    return Poly(spec, coeffs)


# ---------------------------------------------------------------------------
# Division, gcd, powering


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; DomainError when both inputs are zero."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    spec = a.spec
    r0, r1 = a, b
    u0, u1 = Poly.one(spec), Poly.zero(spec)
    v0, v1 = Poly.zero(spec), Poly.one(spec)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead = r0.lc().inverse()
    return r0 * lead, u0 * lead, v0 * lead


def powmod(base: Poly, k: int, m: Poly) -> Poly:
    """base^k mod m by square-and-multiply; k >= 0."""
    if m.is_zero:
        raise ZeroDivisionError("zero modulus")
    if k < 0:
        raise DomainError("negative exponent")
    result = Poly.one(base.spec) % m
    base = base % m
    while k:
        if k & 1:
            result = (result * base) % m
        base = (base * base) % m
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# Factorization


@dataclass(frozen=True)
class Factorization:
    unit: FieldElem
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.one(self.unit.spec) * self.unit
        for f, m in self.factors:
            out = out * f**m
        return out


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: t^(q^k) == t mod f exactly at k = deg f."""
    d = f.degree
    if f.is_zero or d < 1:
        return False
    if d == 1:
        return True
    spec = f.spec
    t = Poly.x(spec)
    if powmod(t, spec.q**d, f) != t % f:
        return False
    for r in factor_int(d):
        h = powmod(t, spec.q ** (d // r), f)
        if gcd(h - t, f).degree != 0:
            return False
    return True


def _pth_root(f: Poly) -> Poly:
    """Inverse of the Frobenius on a polynomial of the form g(t^p)."""
    spec = f.spec
    p = spec.p
    root_exp = spec.q // p  # a -> a^(q/p) is the p-th root in GF(q)
    out = []
    for i, c in enumerate(f.coeff_encs):
        if i % p == 0:
            out.append(spec.pow_enc(c, root_exp))
        elif c != 0:
            raise DomainError("polynomial is not a p-th power")
    return Poly(spec, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic input; returns [(squarefree part, multiplicity)] with distinct parts."""
    spec = f.spec
    p = spec.p
    if f.degree < 1:
        return []
    out: dict[int, Poly] = {}

    def merge(m: int, g: Poly):
        if g.degree < 1:
            return
        out[m] = out[m] * g if m in out else g

    fp = f.derivative()
    if fp.is_zero:
        for g, m in squarefree_decomposition(_pth_root(f)):
            merge(m * p, g)
        return [(g, m) for m, g in sorted(out.items())]
    c = gcd(f, fp)
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        merge(i, w // y)
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for g, m in squarefree_decomposition(_pth_root(c)):
            merge(m * p, g)
    return [(g, m) for m, g in sorted(out.items())]


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic squarefree f into (product of irreducibles of degree d, d)."""
    spec = f.spec
    t = Poly.x(spec)
    out = []
    h = t
    v = f
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, spec.q, v)
        g = gcd(h - t, v)
        if g.degree > 0:
            out.append((g, d))
            v = v // g
            if v.degree > 0:
                h = h % v
    if v.degree > 0:
        out.append((v, v.degree))
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    spec = f.spec
    if f.degree == d:
        return [f]
    q = spec.q
    while True:
        a = Poly(spec, [rng.randrange(q) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = gcd(a, f) if not a.is_zero else f
        if 0 < g.degree < f.degree:
            pass  # lucky split via a common factor
        elif spec.p == 2:
            # char 2: additive trace map of a over GF(2)
            m = round(math.log2(q))
            tr = a % f
            cur = a % f
            for _ in range(m * d - 1):
                cur = (cur * cur) % f
                tr = tr + cur
            if tr.is_zero:
                continue
            g = gcd(tr, f)
        else:
            b = powmod(a, (q**d - 1) // 2, f)
            g = gcd(b - Poly.one(spec), f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g.monic(), d, rng) + \
                _equal_degree_split((f // g).monic(), d, rng)


def factorize(f: Poly, seed: int = 0) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicities.

    Deterministic: the equal-degree stage draws from a PRNG seeded with
    `seed`, so repeated runs split identically.
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    unit = f.lc()
    rng = random.Random(seed)
    found: dict[Poly, int] = {}
    if f.degree >= 1:
        for part, mult in squarefree_decomposition(f.monic()):
            for prod, d in _distinct_degree(part):
                for irr in _equal_degree_split(prod.monic(), d, rng):
                    found[irr] = found.get(irr, 0) + mult
    factors = tuple(sorted(found.items(),
                           key=lambda kv: (kv[0].degree, kv[0].coeff_encs)))
    return Factorization(unit=unit, factors=factors)


# ---------------------------------------------------------------------------
# Resultants


def resultant(a: Poly, b: Poly) -> FieldElem:
    """Sylvester-determinant resultant: lc(a)^deg(b) * prod b(root of a).

    Computed by the Euclidean recurrence; zero exactly when the inputs share
    a nonconstant factor.
    """
    if a.is_zero or b.is_zero:
        raise DomainError("resultant of the zero polynomial is undefined")
    spec = a.spec
    a._check(b)
    acc = spec.one
    sign = spec.one
    A, B = a, b
    while True:
        if A.degree == 0:
            return sign * acc * A.lc() ** B.degree
        if B.degree == 0:
            return sign * acc * B.lc() ** A.degree
        if A.degree < B.degree:
            if (A.degree * B.degree) % 2 == 1:
                sign = -sign
            A, B = B, A
            continue
        R = A % B
        if R.is_zero:
            return spec.zero
        if (A.degree * B.degree) % 2 == 1:
            sign = -sign
        acc = acc * B.lc() ** (A.degree - R.degree)
        A, B = B, R


# ---------------------------------------------------------------------------
# Multiplicative orders


def mult_order_int(base: int, n: int) -> int:
    """Order of base in (Z/n)^* for prime n."""
    if not is_prime(n):
        raise DomainError(f"{n} is not prime")
    if base % n == 0:
        raise DomainError(f"{base} is divisible by {n}")
    order = n - 1
    for ell in factor_int(n - 1):
        while order % ell == 0 and pow(base, order // ell, n) == 1:
            order //= ell
    return order


def _order_prime_power(a: Poly, pi: Poly, e: int) -> int:
    """Order of a in the unit group of GF(q)[t]/pi^e (pi irreducible)."""
    spec = a.spec
    d = pi.degree
    p = spec.p
    # group exponent: (q^d - 1) * p^ceil(log_p e)
    pk, k = 1, 0
    while pk < e:
        pk *= p
        k += 1
    bound_fac = dict(factor_int(spec.q**d - 1))
    if k:
        bound_fac[p] = bound_fac.get(p, 0) + k
    modulus = pi**e
    one = Poly.one(spec) % modulus
    order = (spec.q**d - 1) * pk
    for ell in bound_fac:
        while order % ell == 0 and powmod(a, order // ell, modulus) == one:
            order //= ell
    return order


def mult_order_mod(a: Poly, m: Poly) -> int:
    """Smallest k >= 1 with a^k == 1 mod m; a must be a unit mod m.

    Works for any nonconstant m (the modulus is factored internally); the
    integer factorizations of the component group orders are effort-capped
    and raise ResourceLimitError when exceeded.
    """
    if m.is_zero or m.degree < 1:
        raise DomainError("modulus must be nonconstant")
    if gcd(a % m, m).degree != 0:
        raise DomainError("element is not a unit modulo m")
    order = 1
    for pi, e in factorize(m).factors:
        order = math.lcm(order, _order_prime_power(a, pi, e))
    return order
