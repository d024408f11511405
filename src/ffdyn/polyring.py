"""Univariate polynomial arithmetic over GF(q).

A Poly holds one int, its field kernel's form of the polynomial, so ring
operations pass it straight to the kernel. Provides division, gcd, modular
powering, the components of t^n - 1 from its cyclotomic structure (one
Component record per irreducible factor; each Phi_m split once per process,
inside its Frobenius-fixed subalgebra), the residues of one input mod
every component from one descent of their subproduct tree, complete
factorization of any polynomial (one distinct-degree pass that peels
multiplicities, then Cantor-Zassenhaus on uniform residues; both splits
run the one round loop, _split), resultants and the unit orders on the
components pi^e of a modulus.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import tee
from math import isqrt

from .errors import DomainError, ResourceLimitError
from .ffield import (FieldElem, FieldSpec, digit_planes, digits, pack_slots, parse_ints,
                     read_slots, reduce_slots, slot_bits, undigits)
from .intfactor import divisors, factor_int, order, power

NEG_INF = float("-inf")  # degree of the zero polynomial


# ---------------------------------------------------------------------------
# Arithmetic kernels: one backend per field family, chosen in kernel(). Each
# computes on one packed int form of a polynomial, canonical and 0 exactly
# at zero, which a Poly holds: pack takes coefficients to it where a Poly is
# built from them and unpack reads them back (Poly.coeff_encs). On the form:
# add, neg, mul, divmod, rem, gcd (monic), degree and lead; cyclic_ring(n),
# the residue ring mod t^n - 1 (a _Modulus). GF(2) packs bits; every other
# field runs on the one slot layout (_ListKernel.layout).


def _euclid(kern, a, b):
    """A gcd, not monic, of forms a and b of a kernel."""
    while b:
        a, b = b, kern.rem(a, b)
    return a


class _GF2Kernel:
    """GF(2)[t] packed into a Python int: bit i is the coefficient of t^i."""

    one = 1
    pack = staticmethod(lambda c: undigits(c, 2))
    unpack = staticmethod(lambda x: digits(x, 2, x.bit_length()))
    degree = staticmethod(lambda x: x.bit_length() - 1)
    lead = staticmethod(lambda x: 1)
    add = staticmethod(operator.xor)
    neg = staticmethod(operator.pos)

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a == b:
            # squaring spreads bit i to bit 2i: read the binary digits in base 4
            return int(bin(a)[2:], 4)
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        while a:
            low = a & -a
            out ^= b << (low.bit_length() - 1)
            a ^= low
        return out

    @staticmethod
    def rem(a: int, b: int) -> int:
        db = b.bit_length()
        while (la := a.bit_length()) >= db:
            a ^= b << (la - db)
        return a

    @staticmethod
    def divmod(a: int, b: int) -> tuple[int, int]:
        """Quotient bits go in a bytearray: or-ing into an int copies it at each step."""
        db = b.bit_length()
        quot = bytearray(max(a.bit_length() - db + 1, 0))
        while (la := a.bit_length()) >= db:
            a ^= b << (la - db)
            quot[la - db] = 1
        return undigits(quot, 2), a

    gcd = _euclid

    def cyclic_ring(self, n: int) -> "_Modulus":
        """Residues mod t^n - 1 as packed ints of degree < n; a product has
        degree <= 2n - 2, so one fold reduces it."""
        mul, mask = self.mul, (1 << n) - 1

        def cyclic(a: int, x: int) -> int:
            x = mul(a, x)
            return (x & mask) ^ (x >> n)

        return _Modulus(1, cyclic, self.pack, lambda x: digits(x, 2, n))


class _ListKernel:
    """GF(q)[t] for every field but GF(2): a polynomial is one int, its form,
    on the slot layout of two terms, every slot below p, so 0 is zero and
    the bit length gives the degree. form(count) rounds count up to a power
    of two, so a remainder sequence from count coefficients down makes at
    most log2(count) + 1 layouts, not one per step.

    A division step reads the top block of x and reduces it to c (% p over
    GF(p), reduce of one block otherwise), then adds c * (-y / lc(y))
    there, one product term per coefficient, which leaves the top a
    multiple of p. A slot starts below p, within one term, so interval =
    (the terms w holds) - 1 steps never carry (two terms make it >= 1): the
    steps run in chunks of at most interval, each then masked and reduced
    once. A step costs O(chunk + dy) blocks and a chunk O(deg x), so a
    chunk is also at most dy + sqrt((deg x + 1) * block bits) steps.
    """

    one = 1

    def __init__(self, spec: FieldSpec):
        p, e = spec.p, spec.e
        self.spec, self.p, self.e = spec, p, e
        # r_m = s^(e+m) mod the modulus (s encodes as p); term: one term's slot bound
        self.r = r = [digits(spec.pow_enc(p, e + m), p, e) for m in range(e - 1)]
        self.term = (p - 1) ** 2 * max(
            i + 1 + sum((e - 1 - m) * r[m][i] for m in range(e - 1)) for i in range(e))
        self.w = w = self.layout(1, 2)[0]
        self.block, self.interval = (2 * e - 1) * w, (2**w - 1) // self.term - 1

    @lru_cache(maxsize=256)
    def layout(self, count: int, terms: int):
        """(w, reduce, pack, read), the one slot layout: count coefficients
        over GF(p^e) in one int of w-bit slots, coefficient j a block of
        b = 2e - 1 slots whose slots i < e hold its base-p digits (Kronecker
        substitution in t and the generator s; von zur Gathen and Gerhard,
        Modern Computer Algebra, 8.4), packed and read by ffield.digit_planes.
        In a product, digits i and i' meet in slot i + i' < b of their block;
        reduce(z, blocks) folds slot e + m of every block onto slots 0..e - 1
        times the digits r_m of s^(e+m) mod the field's modulus, then reduces
        the low blocks * b slots mod p by one reduce_slots.

        Slot bound: when each coefficient of z sums at most `terms` products
        of two coefficients, slot k of a block sums terms * min(k + 1, b - k)
        digit products, each at most (p - 1)^2, so slot i < e ends at most
        terms (p - 1)^2 (i + 1 + sum_m (e - 1 - m) r_m,i), which the
        all-(q - 1) operands reach; w holds it, so no slot carries. So does
        any z whose slots are each at most that product's before the fold.
        """
        p, e, r = self.p, self.e, self.r
        b = 2 * e - 1
        w = slot_bits(terms * self.term)
        slot0 = pack_slots(([(1 << w) - 1] + [0] * (b - 1)) * count, w)
        # z >> shift & slot0 is slot e + m of each block: add it times r_m, less itself
        folds = [((e + m) * w, pack_slots(r[m], w) - (1 << (e + m) * w)) for m in range(e - 1)]

        def reduce(z: int, blocks: int = count) -> int:
            for shift, fold in folds:
                z += (z >> shift & slot0) * fold
            return reduce_slots(z, blocks * b, w, p)

        return (w, reduce, *digit_planes(p, e, count, b, w))

    def form(self, count: int):
        """The layout of two terms for at least count coefficients."""
        return self.layout(1 << (count - 1).bit_length(), 2)

    @lru_cache(maxsize=1024)
    def constant(self, c: int) -> int:  # the form of a constant
        return pack_slots(digits(c, self.p, self.e), self.w)

    @lru_cache(maxsize=1024)
    def encoding(self, block: int) -> int:  # of the coefficient in a reduced block
        return undigits(read_slots(block, self.e, self.w), self.p)

    def pack(self, c) -> int:
        return self.form(len(c))[2](c)

    def unpack(self, x: int) -> tuple[int, ...]:
        k = self.degree(x) + 1
        return self.form(k)[3](x)[:k]

    def degree(self, x: int) -> int:
        return (x.bit_length() - 1) // self.block

    def lead(self, x: int) -> int:
        return self.encoding(x >> self.degree(x) * self.block)

    def _sum(self, z: int) -> int:
        """z, a sum of forms or a form times at most p - 1, slot by slot mod p."""
        return reduce_slots(z, -(-z.bit_length() // self.w), self.w, self.p)

    def add(self, a: int, b: int) -> int:
        return self._sum(a + b)

    def neg(self, a: int) -> int:
        return self._sum(a * (self.p - 1))

    def mul(self, a: int, b: int) -> int:
        """a * b: a coefficient sums at most min(len a, len b) products, so
        the form's width holds it up to interval + 1 of them; longer factors
        are repacked on the layout of that many terms."""
        if not a or not b:
            return 0
        la, lb = self.degree(a) + 1, self.degree(b) + 1
        if min(la, lb) <= self.interval + 1:
            return self.form(la + lb - 1)[1](a * b, la + lb - 1)
        _, reduce, pack, read = self.layout(la + lb - 1, min(la, lb))
        return self.pack(read(reduce(pack(self.unpack(a)) * pack(self.unpack(b)))))

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of forms a and b, not both zero."""
        g = _euclid(self, a, b)
        lead = self.lead(g)
        if lead == 1:
            return g
        return self.form(self.degree(g) + 1)[1](g * self.constant(self.spec.inv_enc(lead)))

    def rem(self, x: int, y: int) -> int:
        return self.divmod(x, y, False)[1]

    def divmod(self, x: int, y: int, quotient: bool = True) -> tuple[int, int]:
        """(x // y, or 0 when not wanted, and x mod y) of forms x and y != 0."""
        p, block = self.p, self.block
        dy = (y.bit_length() - 1) // block
        span = (x.bit_length() - 1) // block - dy + 1  # quotient coefficients
        if span <= 0:
            return 0, x
        reduce = self.form(span + dy)[1]
        top, ones, prime = dy * block, (1 << block) - 1, self.e == 1
        inv = self.spec.inv_enc(self.encoding(y >> top))
        # over GF(p) a step adds (c * m) * y for m = -1/l, else c * m * y,
        # and the quotient is scaled by 1/l at the end
        m = p - inv if prime else reduce(y * self.constant(self.spec.neg_enc(inv)), dy + 1)
        quot, k, chunk = 0, span - 1, min(self.interval, dy + isqrt((span + dy) * block))
        while k >= 0:  # a chunk: steps k down to k0, on the blocks from k0 up
            k0 = max(k - chunk + 1, 0)
            shift = k0 * block
            hi, x, part = x >> shift, x & (1 << shift) - 1, 0
            for j in range(k - k0, -1, -1):
                t = hi >> top + j * block & ones
                if prime:
                    c = t * m % p
                    if c:
                        hi += c * y << j * block
                        part += p - c << j * block
                elif c := t if j == k - k0 else reduce(t, 1):  # a chunk's first top is reduced
                    hi += c * m << j * block
                    part += c << j * block
            x += reduce(hi & (1 << top) - 1, dy) << shift
            quot += part << shift
            k = k0 - 1
        if quotient and not prime and inv != 1:
            quot = reduce(quot * self.constant(inv), span)
        return quot, x

    @lru_cache(maxsize=256)
    def cyclic_ring(self, n: int) -> "_Modulus":
        """The residues mod t^n - 1 on the layout for n coefficients: a
        product is one multiply, the t^n = 1 fold of block n + j onto block
        j, which leaves each coefficient a sum of n products, and reduce."""
        w, reduce, pack, read = self.layout(n, n)
        p, b = self.p, 2 * self.e - 1
        top, mask = n * b * w, (1 << n * b * w) - 1

        def cyclic(a: int, x: int) -> int:
            z = a * x
            return reduce((z & mask) + (z >> top))

        def prime(a: int, x: int) -> int:  # e = 1: one slot per coefficient, no s fold
            z = a * x
            return reduce_slots((z & mask) + (z >> top), n, w, p)

        return _Modulus(1, prime if b == 1 else cyclic, pack, read)


@lru_cache(maxsize=64)
def kernel(spec: FieldSpec):
    """The arithmetic backend for polynomials over spec."""
    return _GF2Kernel() if spec.q == 2 else _ListKernel(spec)


class Poly:
    """Polynomial over a FieldSpec; immutable, held as its kernel's form."""

    __slots__ = ("spec", "_f")

    def __init__(self, spec: FieldSpec, coeffs=()):
        _set_spec(self, spec)
        _set_form(self, kernel(spec).pack(spec.encodings(coeffs)))

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
        return cls(spec, parse_ints(text, "polynomial coefficients"))

    # -- data -------------------------------------------------------------

    @property
    def coeff_encs(self) -> tuple[int, ...]:
        """The coefficient encodings, low degree first, no trailing zeros."""
        return kernel(self.spec).unpack(self._f)

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(FieldElem(self.spec, c) for c in self.coeff_encs)

    @property
    def degree(self):
        """Degree as an int; NEG_INF for the zero polynomial."""
        return kernel(self.spec).degree(self._f) if self._f else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._f

    def lc(self) -> FieldElem:
        if not self._f:
            raise DomainError("zero polynomial has no leading coefficient")
        return FieldElem(self.spec, kernel(self.spec).lead(self._f))

    def monic(self) -> "Poly":
        if not self._f:
            raise DomainError("cannot normalize the zero polynomial")
        return _poly(self.spec, kernel(self.spec).gcd(self._f, 0))  # the monic gcd of self and 0

    # -- ring operations (through the field's kernel) ----------------------

    def _check(self, other: "Poly"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise DomainError("polynomials over different fields cannot mix")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return _poly(self.spec, kernel(self.spec).add(self._f, other._f))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _poly(self.spec, kernel(self.spec).neg(self._f))

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise DomainError("scalar from a different field")
            other = Poly(self.spec, (other.enc,))
        else:
            self._check(other)
        return _poly(self.spec, kernel(self.spec).mul(self._f, other._f))

    def __rmul__(self, other):
        if isinstance(other, FieldElem):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        return power(operator.mul, self, k, Poly.one(self.spec))

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if not other._f:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        quot, rem = kernel(spec).divmod(self._f, other._f)
        return _poly(spec, quot), _poly(spec, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x) -> FieldElem:
        """Evaluate by Horner's rule at an element of this field (see
        FieldSpec.element)."""
        spec = self.spec
        enc = spec.element(x).enc
        acc = 0
        for c in reversed(self.coeff_encs):
            acc = spec.add_enc(spec.mul_enc(acc, enc), c)
        return FieldElem(spec, acc)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.spec == other.spec and self._f == other._f
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self._f))

    def __str__(self):
        return ",".join(map(str, self.coeff_encs)) or "0"

    def __repr__(self):
        return f"Poly(GF({self.spec.q}), [{self}])"


_set_spec = Poly.spec.__set__
_set_form = Poly._f.__set__


def _poly(spec: FieldSpec, form: int) -> Poly:
    """Trusted constructor for kernel results, already in kernel(spec)'s form."""
    out = object.__new__(Poly)
    _set_spec(out, spec)
    _set_form(out, form)
    return out


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
    """Monic gcd; DomainError when both inputs are zero. The remainder
    sequence runs on the kernel's form (kern.gcd)."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    a._check(b)
    return _poly(a.spec, kernel(a.spec).gcd(a._f, b._f))


def powmod(base: Poly, k: int, m: Poly) -> Poly:
    """base^k mod m by square-and-multiply; k >= 0.

    Over every field but GF(2) with deg m >= 2 the products are packed
    big-int products reduced by Barrett's method (_PackedModulus).
    """
    if m.is_zero:
        raise ZeroDivisionError("zero modulus")
    if k < 0:
        raise DomainError("negative exponent")
    base._check(m)
    kern = kernel(m.spec)
    ring = _modulus(kern, m._f)
    a = ring.enter(kern.rem(base._f, m._f))
    return _poly(m.spec, ring.leave(ring.pow(a, k)))


def _modulus(kern, m):
    """The residue ring mod m, a kernel form: over every field but GF(2)
    Barrett's ring (_PackedModulus) where it is defined, from deg m = 2 on
    (its quotient shifts by deg m - 2), else the kernel's own form, which
    enter and leave keep."""
    if isinstance(kern, _ListKernel) and kern.degree(m) >= 2:
        return _PackedModulus(kern, m)
    return _Modulus(kern.rem(kern.one, m), lambda x, y: kern.rem(kern.mul(x, y), m))


class _Modulus:
    """A residue ring in a kernel's form: mul multiplies two residues and
    one is the ring's 1, so residues compare by ==; enter takes a residue
    to the ring's form and leave takes it back. A ring mod a polynomial m
    (_modulus) enters and leaves reduced canonical kernel forms; the ring
    mod t^n - 1 (a kernel's cyclic_ring) enters at most n coefficients and
    leaves exactly n."""

    def __init__(self, one, mul, enter=lambda x: x, leave=lambda x: x):
        self.one, self.mul, self.enter, self.leave = one, mul, enter, leave

    def pow(self, x, k: int):
        return power(self.mul, x, k, self.one)


class _PackedModulus(_Modulus):
    """Residues mod m over GF(p^e), deg m = d, on the layout for 2d - 1
    coefficients of d terms: a product is one big-int multiply and a reduce.

    The remainder is Barrett's: with mu = t^(2d-2) // m, computed once per
    modulus (the reversal of rev(m)^-1 mod t^(d-1)), any c of degree
    <= 2d - 2 has quotient (c // t^d) * mu // t^(d-2) exactly, so c mod m
    is c + quot * (-m mod t^d) mod t^d: two more products of d - 1 terms, the
    second plus c's slots i < e, each at most p - 1 <= (i + 1)(p - 1)^2, the
    room a d-th term leaves in slot i, so every reduce stays within the slot
    bound of d terms. None of this needs m monic. A packed residue has every
    slot below p, so equal residues are equal ints and one is 1. enter reads
    a kernel form and packs it on this layout, and leave does the reverse.
    """

    def __init__(self, kern: _ListKernel, m: int):
        p, d, b = kern.p, kern.degree(m), 2 * kern.e - 1
        w, reduce, pack, read = kern.layout(2 * d - 1, d)
        top, shift, mask = d * b * w, (d - 2) * b * w, (1 << d * b * w) - 1
        mu = pack(kern.unpack(kern.divmod(1 << (2 * d - 2) * kern.block, m)[0]))
        m_low = reduce(pack(kern.unpack(m)[:d]) * (p - 1), d)  # -(m mod t^d)

        def prime(x: int, y: int) -> int:  # e = 1: one slot per coefficient, no s fold
            c = reduce_slots(x * y, 2 * d - 1, w, p)
            quot = reduce_slots((c >> top) * mu >> shift, d - 1, w, p)
            return reduce_slots((c & mask) + (quot * m_low & mask), d, w, p)

        def mul(x: int, y: int) -> int:
            c = reduce(x * y)
            quot = reduce((c >> top) * mu >> shift, d - 1)
            return reduce((c & mask) + (quot * m_low & mask), d)

        super().__init__(1, prime if b == 1 else mul, lambda x: pack(kern.unpack(x)),
                         lambda x: kern.pack(read(x)))


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
    if d < 1:  # the zero polynomial's degree is -inf
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


# Rounds one stream of draws feeds a split before it gives up
# (ResourceLimitError). A round of _split leaves two given factors of one
# piece together with probability at most 5/9 (Q = 3; see its docstring),
# so an input of k < 2^24 factors reaches the cap with probability at most
# (k^2 / 2)(5/9)^128 < 2^47 * 2^-108 = 2^-61. A round costs a gcd at the
# degree of what it splits, plus, for Q > 3, a powering by (Q - 1)/2 or
# e k - 1 squarings mod it: Phi_8191 over GF(2) (degree 8190, 630 factors)
# took 2685 rounds in 70 ms and Phi_2000 over GF(3) (degree 800, 8 factors)
# 17 rounds in 11 ms (Python 3.11.7 on a shared 2-vCPU VM).
_SPLIT_ROUNDS = 128


def _split(spec: FieldSpec, f, d: int, k: int, rounds, what: str) -> list:
    """The one equal-degree split: the degree-d irreducible factors of f, a
    monic product of distinct ones in the kernel's form. rounds yields one
    element b per round, reduced mod f or an ancestor of f, whose values on
    the factors of f are independent and uniform in GF(Q), Q = q^k: k = d
    for a uniform residue (Cantor-Zassenhaus, factorize) and k = 1 for an
    element of the Frobenius-fixed subalgebra (_cyclotomic_piece). For odd
    Q a round splits f by gcd(f, b^((Q-1)/2) - 1), then by gcd(f, b) if
    that does not split it; for Q = 2^j by gcd(f, Tr(b)), Tr(b) = b + b^2 +
    ... + b^(2^(j-1)) with j - 1 = e k - 1 squarings mod f. So a round
    parts two given factors of one piece with probability at least
    (Q^2 - 1)/(2Q^2) >= 4/9 for odd Q (exactly one value a nonzero square)
    and exactly 1/2 for Q = 2^j (traces to GF(2) that differ). Each piece
    split off takes the rest of the one stream, so _SPLIT_ROUNDS bounds the
    rounds along every branch; ResourceLimitError, naming what is split,
    when the stream runs out.
    """
    kern, Q = kernel(spec), spec.q**k
    deg = kern.degree(f)
    if deg == d:
        return [f]
    ring = _modulus(kern, f) if Q > 3 else None
    for b in rounds:
        c = b = kern.rem(b, f)
        if Q % 2:  # b^((Q-1)/2) - 1
            if ring:
                c = ring.leave(ring.pow(ring.enter(b), Q // 2))
            c = kern.add(c, kern.neg(kern.one))
        elif ring:  # Tr(b)
            x = ring.enter(b)
            for _ in range(spec.e * k - 1):
                x = ring.mul(x, x)
                c = kern.add(c, ring.leave(x))
        g = kern.gcd(f, kern.rem(c, f))
        if Q % 2 and not 0 < kern.degree(g) < deg:
            g = kern.gcd(f, b)
        if 0 < kern.degree(g) < deg:
            left, right = tee(kern.rem(x, f) for x in rounds)
            return (_split(spec, g, d, k, left, what)
                    + _split(spec, kern.divmod(f, g)[0], d, k, right, what))
    raise ResourceLimitError(f"splitting {what} did not finish in {_SPLIT_ROUNDS} rounds")


def _sorted(kern, forms) -> list:
    """Forms in the one factor order: by degree, then by coefficients."""
    return sorted(forms, key=lambda f: (kern.degree(f), kern.unpack(f)))


# One component pi^e of t^n - 1: pi is a monic irreducible factor of Phi_m,
# of degree d = ord_m(q), and e the p-part of n; m = 1 is the sum component t - 1
Component = namedtuple("Component", "pi e m d")


@lru_cache(maxsize=256)
def crt_split(spec: FieldSpec, n: int) -> tuple[Component, ...]:
    """The components of t^n - 1, one record per irreducible factor,
    sorted by (degree, coefficients) of pi.

    For n = p^k * r with p not dividing r, t^n - 1 = (t^r - 1)^(p^k) and
    t^r - 1 is squarefree, so only t^r - 1 is split and every component has
    e = p^k. t^r - 1 is the product of the cyclotomic polynomials Phi_m
    over m | r, and Phi_m is the product of phi(m)/d irreducibles of the
    one degree d = ord_m(q) (Lidl and Niederreiter, Finite Fields,
    Thm 2.47). Phi_m and its factors do not depend on n, so each piece is
    split once per (q, m) in a process (_cyclotomic_piece) and every n that
    m divides joins it.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    e = 1
    while n % spec.p == 0:
        n //= spec.p
        e *= spec.p
    kern = kernel(spec)
    found = {f: m for m in divisors(n) for f in _cyclotomic_piece(spec, m)[1]}  # form -> m
    return tuple(Component(_poly(spec, f), e, found[f], kern.degree(f))
                 for f in _sorted(kern, found))


@lru_cache(maxsize=64)
def _residue_tree(spec: FieldSpec, n: int) -> tuple[tuple[int, ...], ...]:
    """The subproduct tree over the components of t^n - 1, as kernel forms,
    leaves first: level 0 holds pi^e for each record of crt_split(spec, n),
    in order, and each level above holds the products of its level's nodes
    taken in pairs, an odd last node carried up as it is, up to a level of
    at most two nodes. The root, t^n - 1, is never formed: a descent starts
    by reducing mod the top level's nodes (von zur Gathen and Gerhard,
    Modern Computer Algebra, 10.1)."""
    kern = kernel(spec)
    level = tuple(c.pi._f if c.e == 1 else power(kern.mul, c.pi._f, c.e, kern.one)
                  for c in crt_split(spec, n))
    levels = [level]
    while len(level) > 2:
        level = tuple(map(kern.mul, level[::2], level[1::2])) + level[len(level) & ~1:]
        levels.append(level)
    return tuple(levels)


def crt_residues(x: Poly, n: int) -> list[int]:
    """x mod pi^e for every component pi^e of t^n - 1, in crt_split order,
    as kernel forms (what _order_prime_power takes), from one descent of the
    subproduct tree: a node's residue is its parent's reduced mod the node,
    and a carried node's is its parent's. One kernel rem per node below the
    root, so O(M(n) log n) for any x, where each component alone would
    divide x itself."""
    rem, levels = kernel(x.spec).rem, _residue_tree(x.spec, n)
    out = [rem(x._f, m) for m in levels[-1]]
    for level in levels[-2::-1]:
        pairs = len(level) & ~1
        out = [rem(out[i >> 1], m) for i, m in enumerate(level[:pairs])] + out[pairs >> 1:]
    return out


def crt_valuations(x: Poly, n: int) -> tuple[int, ...]:
    """min(v_pi(x), e) on each component pi^e of t^n - 1, in crt_split
    order: one descent (crt_residues), then, for e > 1, at most e divisions
    by pi per component."""
    comps = crt_split(x.spec, n)
    if comps[0].e == 1:  # every component of one n has the one e
        return tuple([0 if r else 1 for r in crt_residues(x, n)])
    kern = kernel(x.spec)
    return tuple([_pi_adic(kern, r, c.pi._f, c.e) for r, c in zip(crt_residues(x, n), comps)])


@lru_cache(maxsize=1024)
def _cyclotomic_piece(spec: FieldSpec, m: int) -> tuple[int, tuple[int, ...]]:
    """(Phi_m, its irreducible factors in the one factor order), kernel
    forms, for m coprime to the characteristic. Phi_m is t^m - 1 divided
    exactly by the Phi_k of its proper divisors k, each a piece of its own.

    Where Phi_m has k > 1 factors, it splits inside its Frobenius-fixed
    subalgebra (Berlekamp's subalgebra; Lidl and Niederreiter, 4.1). For
    each cyclotomic coset C = {i, iq, iq^2, ...} of q in Z/m let
    eta_C = sum_{i in C} t^i. In GF(q)[t]/(t^m - 1), the group algebra of
    Z/m, (sum c_i t^i)^q = sum c_i t^(iq), so the elements fixed by
    g -> g^q are exactly those whose coefficients are constant on every
    coset: the span of the eta_C over all cosets, which are linearly
    independent. Reduction mod Phi_m is onto and commutes with g -> g^q,
    and by the CRT it maps that span onto the fixed subalgebra mod Phi_m,
    GF(q)^k: one coordinate b mod pi in GF(q) per factor pi. The unit
    cosets alone do not span it when m is composite: at m = 4, t and
    t^3 = -t mod Phi_4 are dependent. So b = sum_C a_C eta_C, each a_C
    uniform in GF(q), has independent uniform coordinates: each round draws
    one b, reduced mod Phi_m, for _split at Q = q. Each piece draws from
    its own stream, a PRNG seeded with 0, so a piece splits the same way
    whichever n asks for it first.
    """
    kern, q = kernel(spec), spec.q
    ms = divisors(m)
    phi = kern.pack((spec.neg_enc(1),) + (0,) * (m - 1) + (1,))
    for k in ms[:-1]:
        phi = kern.divmod(phi, _cyclotomic_piece(spec, k)[0])[0]
    deg = kern.degree(phi)
    d = order(q % m, deg, lambda x, j: pow(x, j, m), 1 % m)
    if deg == d:
        return phi, (phi,)
    coset, count = [-1] * m, 0  # coset[i]: the index of i's coset
    for i in range(m):
        if coset[i] < 0:
            j = i
            while coset[j] < 0:
                coset[j], j = count, j * q % m
            count += 1
    # b mod (t^m - 1)/(t^top - 1), a multiple of Phi_m, for r = ms[1] the
    # least prime dividing m: t^(m-top) = -(1 + t^top + ... + t^(m-2top))
    # there, so the top block of top = m/r coefficients folds onto the
    # r - 1 blocks below
    top, rng = m // ms[1], random.Random(0)
    draws = ([rng.randrange(q) for _ in range(count)] for _ in range(_SPLIT_ROUNDS))
    bs = ([a[c] for c in coset] for a in draws)
    found = _split(spec, phi, d, 1, (kern.rem(kern.add(
        kern.pack(b[:-top]), kern.neg(kern.pack(b[-top:] * (m // top - 1)))), phi)
        for b in bs), f"Phi_{m} over GF({q})")
    return phi, tuple(_sorted(kern, found))


def factorize(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicities.

    One distinct-degree pass over f itself. At stage d the factors of degree
    < d are gone from v, so g = gcd(t^(q^d) - t, v) is the product of the
    distinct degree-d irreducibles left in v. Round k divides v by g, which
    strips one copy of each; w = gcd(g, v) keeps those that still divide v,
    so g // w holds exactly the factors of multiplicity k, and _split
    separates them with uniform residues mod g // w (Cantor-Zassenhaus, one
    stream of _SPLIT_ROUNDS each). A factor of multiplicity k costs k
    rounds. Once deg v < 2(d + 1), v is one irreducible.

    Deterministic: the residues come from a PRNG seeded with 0, so repeated
    runs split identically.
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    spec = f.spec
    kern, q = kernel(spec), spec.q
    rng = random.Random(0)
    t = Poly.x(spec)
    found: dict[int, int] = {}  # form -> multiplicity
    v, h, d = f.monic(), t, 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, q, v)
        g, k = gcd(h - t, v), 0
        while g.degree > 0:
            k += 1
            v = v // g
            w = gcd(g, v)
            if (size := kern.degree(piece := (g // w)._f)) > 0:
                draws = (kern.pack([rng.randrange(q) for _ in range(size)])
                         for _ in range(_SPLIT_ROUNDS))
                found.update(dict.fromkeys(_split(
                    spec, piece, d, d, draws, f"degree-{d} factors over GF({q})"), k))
            g = w
        if v.degree > 0:
            h = h % v
    if v.degree > 0:
        found[v._f] = 1
    return Factorization(unit=f.lc(), factors=tuple(
        (_poly(spec, irr), found[irr]) for irr in _sorted(kern, found)))


# ---------------------------------------------------------------------------
# Resultants


def resultant(a: Poly, b: Poly) -> FieldElem:
    """Sylvester-determinant resultant: lc(a)^deg(b) * prod b(root of a).

    Computed by the Euclidean recurrence on the kernel's form and on field
    encodings, the sign folded into the product; zero exactly when the
    inputs share a nonconstant factor.
    """
    if a.is_zero or b.is_zero:
        raise DomainError("resultant of the zero polynomial is undefined")
    spec = a.spec
    a._check(b)
    kern = kernel(spec)
    acc = 1
    A, B = a._f, b._f
    while True:
        dA, dB = kern.degree(A), kern.degree(B)
        if dA == 0 or dB == 0:
            lead, k = (kern.lead(A), dB) if dA == 0 else (kern.lead(B), dA)
            return FieldElem(spec, spec.mul_enc(acc, spec.pow_enc(lead, k)))
        if dA * dB % 2 == 1:
            acc = spec.neg_enc(acc)
        if dA < dB:
            A, B = B, A
            continue
        R = kern.rem(A, B)
        if not R:
            return FieldElem(spec, 0)
        acc = spec.mul_enc(acc, spec.pow_enc(kern.lead(B), dA - kern.degree(R)))
        A, B = B, R


# ---------------------------------------------------------------------------
# Multiplicative orders


def _pi_adic(kern, x: int, pi: int, e: int) -> int:
    """min(v_pi(x), e) for kernel forms x and pi, by repeated division."""
    for v in range(e):
        x, rest = kern.divmod(x, pi)
        if rest:
            return v
    return e


def _order_prime_power(a, pi: Poly, e: int) -> tuple[int, list[int] | None]:
    """(min(v_pi(a), e), orders) for a on the component pi^e, pi irreducible,
    where a is a Poly or, as crt_residues gives it, the kernel form of a
    residue mod pi^e, so the division giving a mod pi is short (none for
    e = 1): it goes on with its quotient while pi divides. orders is None
    unless a is a unit; then orders[m] is its order mod pi^m, m = 0..e.

    Reduction mod pi maps the units mod pi^e onto GF(q^deg pi)^* with a
    p-group kernel, so the order mod pi^m is o * p^j: o is the order mod pi,
    a divisor of q^deg pi - 1 found by intfactor.order, and j is the least
    with b^(p^j) == 1 mod pi^m for b = a^o. In characteristic p,
    b^(p^j) - 1 = (b - 1)^(p^j), so j is the least with p^j * u >= m, where
    u = v_pi(b - 1) (Lidl and Niederreiter, Finite Fields, Ch. 2-3). All of
    it runs on kernel forms, each modulus set up once: o is kept per
    (field, pi, a mod pi) (_unit_order) and pi^e with its ring per
    component (_prime_power_ring), and the lift runs per call.
    """
    spec = pi.spec
    kern = kernel(spec)
    pi_k, a_k = pi._f, a._f if isinstance(a, Poly) else a
    # a form from crt_residues with e = 1 is already reduced mod pi
    quot, residue = (0, a_k) if e == 1 and a_k is a else kern.divmod(a_k, pi_k)
    if not residue:
        return 1 + _pi_adic(kern, quot, pi_k, e - 1), None
    o = _unit_order(spec, pi_k, residue)
    orders = [1, o]
    if e > 1:
        pi_e, ring = _prime_power_ring(spec, pi_k, e)
        b = ring.leave(ring.pow(ring.enter(kern.rem(a_k, pi_e)), o))
        u = _pi_adic(kern, kern.add(b, kern.neg(kern.one)), pi_k, e)  # >= 1
        for m in range(2, e + 1):
            while u < m:
                o *= spec.p
                u *= spec.p
            orders.append(o)
    return 0, orders


@lru_cache(maxsize=256)
def _prime_power_ring(spec: FieldSpec, pi: int, e: int) -> tuple[int, _Modulus]:
    """(pi^e, the residue ring mod pi^e) for a kernel form pi, one pair per
    component pi^e of some t^n - 1."""
    kern = kernel(spec)
    pi_e = power(kern.mul, pi, e, kern.one)
    return pi_e, _modulus(kern, pi_e)


@lru_cache(maxsize=4096)
def _unit_order(spec: FieldSpec, pi: int, residue: int) -> int:
    """The order of residue, a nonzero kernel form reduced mod pi, in the
    units mod pi, a divisor of q^deg pi - 1. Kept per process: for pi | Phi_m
    an operator such as Delta = t^(n-1) - 1 has one residue t^-1 - 1 mod pi
    for every n that m divides. A ResourceLimitError from factoring
    q^deg pi - 1 is raised again on the next call, not kept."""
    kern = kernel(spec)
    ring = _modulus(kern, pi)
    return order(ring.enter(residue), spec.q**kern.degree(pi) - 1, ring.pow, ring.one)
