"""Exact arithmetic in finite fields GF(p^e).

Elements are stored as a single integer encoding: the base-p digits of the
encoding are the coefficients of the representative polynomial, lowest
degree first. For prime fields the encoding is the residue itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError
from .intfactor import factor_int, is_prime

_TABLE_LIMIT = 512  # build full multiplication tables only for small fields


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return tuple(out)


def _encode(digits, p: int) -> int:
    out = 0
    for d in reversed(list(digits)):
        out = out * p + d
    return out


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial over Z/p, coefficients low-to-high."""
    # imported here because polyring imports this module
    from .polyring import Poly, is_irreducible
    return is_irreducible(Poly(FieldSpec(p), modulus))


@lru_cache(maxsize=64)
def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lowest monic irreducible of degree e over Z/p, in encoding order."""
    for low in range(p**e):
        cand = _digits(low, p, e) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise DomainError(f"no irreducible of degree {e} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p^e); prime fields carry no modulus."""

    p: int
    e: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"characteristic {self.p} is not prime")
        if self.p.bit_length() > 63:
            raise DomainError("characteristic must fit a 64-bit word")
        if self.e < 1:
            raise DomainError("extension degree must be >= 1")
        if self.e == 1:
            if self.modulus is not None:
                raise DomainError("prime fields take no modulus")
        else:
            object.__setattr__(self, "modulus", self._checked_modulus())
        # polynomial kernels and caches key on the field: hash it once
        object.__setattr__(self, "_hash", hash((self.p, self.e, self.modulus)))

    def __hash__(self):
        return self._hash

    def _checked_modulus(self) -> tuple[int, ...]:
        mod = self.modulus
        if mod is None:
            mod = _default_modulus(self.p, self.e)
        else:
            mod = tuple(int(c) % self.p for c in mod)
            if len(mod) != self.e + 1 or mod[-1] != 1:
                raise DomainError(
                    f"modulus must be monic of degree {self.e} (low-to-high)")
            if not _is_irreducible(mod, self.p):
                raise DomainError(f"modulus {mod} is reducible over GF({self.p})")
        return mod

    # -- construction --------------------------------------------------

    @classmethod
    def of_order(cls, q: int | None = None, p: int | None = None, e: int | None = None,
                 modulus=None) -> "FieldSpec":
        """GF(q) from any consistent part of q, p and e, with the given modulus
        or the deterministic default one. p and e come from q when missing;
        e is 1 when only p is given."""
        if q is not None:
            fac = factor_int(q) if q >= 2 else {}
            if len(fac) != 1:
                raise DomainError(f"{q} is not a prime power")
            (qp, qe), = fac.items()
            if p not in (None, qp) or e not in (None, qe):
                given = ", ".join(f"{k}={v}" for k, v in (("p", p), ("e", e)) if v is not None)
                raise DomainError(f"q={q} is {qp}^{qe}, which contradicts {given}")
            p, e = qp, qe
        elif p is None:
            raise DomainError("either q or p must be given")
        return cls(p, 1 if e is None else e, modulus)

    # -- basic data -----------------------------------------------------

    @cached_property
    def q(self) -> int:
        return self.p**self.e

    @property
    def spec_text(self) -> str:
        if self.e == 1:
            return f"q={self.p}"
        mod = ",".join(str(c) for c in self.modulus)
        return f"q={self.q};p={self.p};e={self.e};mod={mod}"

    def __repr__(self):
        return f"FieldSpec({self.spec_text})"

    # -- elements --------------------------------------------------------

    def element(self, value) -> "FieldElem":
        """Coerce an encoding, digit sequence, or FieldElem into this field."""
        if isinstance(value, (FieldElem, int)):
            return FieldElem(self, self._encoding(value))
        digits = [int(c) % self.p for c in value]
        if len(digits) > self.e:
            raise DomainError("too many residues for this field")
        return FieldElem(self, _encode(digits, self.p))

    def encodings(self, values) -> tuple[int, ...]:
        """Validated encodings of FieldElems of this field or of integers in
        [0, q); plain ints are range-checked in bulk."""
        try:
            encs = tuple(values)
        except TypeError:
            raise DomainError(
                f"field values must be a sequence, got {type(values).__name__}") from None
        if set(map(type, encs)) <= {int} and (not encs or 0 <= min(encs) and max(encs) < self.q):
            return encs
        return tuple(map(self._encoding, encs))

    def _encoding(self, value) -> int:
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise DomainError("element belongs to a different field")
            return value.enc
        try:
            value = operator.index(value)
        except TypeError:
            raise DomainError(
                f"field values must be integers, got {type(value).__name__}") from None
        if not 0 <= value < self.q:
            raise DomainError(f"encoding {value} outside [0, {self.q})")
        return value

    def from_int(self, k: int) -> "FieldElem":
        """Embed the integer k via the prime subfield (k mod p)."""
        return FieldElem(self, k % self.p)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self):
        return (FieldElem(self, v) for v in range(self.q))

    # -- encoded arithmetic ----------------------------------------------
    # Hot paths (orbit sweeps, censuses) run on raw encodings. Extension
    # fields up to _TABLE_LIMIT elements answer from tables built once;
    # larger ones split encodings into base-p digits.

    def add_enc(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self.q <= _TABLE_LIMIT:
            return self._add_table[a][b]
        p = self.p
        da, db = _digits(a, p, self.e), _digits(b, p, self.e)
        return _encode([(x + y) % p for x, y in zip(da, db)], p)

    def sub_enc(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self.add_enc(a, self.neg_enc(b))

    def neg_enc(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        if self.p == 2:
            return a
        if self.q <= _TABLE_LIMIT:
            return self._neg_table[a]
        p = self.p
        return _encode([-x % p for x in _digits(a, p, self.e)], p)

    def mul_enc(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if self.q <= _TABLE_LIMIT:
            return self._mul_table[a][b]
        return self._ext_mul(a, b)

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= _TABLE_LIMIT:
            return self._inv_table[a]
        return self.pow_enc(a, self.q - 2)

    def pow_enc(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow_enc(self.inv_enc(a), -k)
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul_enc(result, base)
            base = self.mul_enc(base, base)
            k >>= 1
        return result

    def _ext_mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        da, db = _digits(a, p, e), _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
                prod[i] = 0
        return _encode(prod[:e], p)

    # -- tables of small extension fields (q <= _TABLE_LIMIT) ---------------

    def op_tables(self):
        """(add, neg, mul) tables indexed by encoding, built once:
        add[a][b], neg[a], mul[a][b]. None for prime fields and for fields
        above _TABLE_LIMIT elements."""
        if self.e == 1 or self.q > _TABLE_LIMIT:
            return None
        return self._add_table, self._neg_table, self._mul_table

    @cached_property
    def _add_table(self):
        """add[a][b], digitwise mod p. With a = a0 + p*a', the low digits add
        mod p and the rest is the table of the field with one digit less."""
        p = self.p
        table = [[0]]
        for size in (p**k for k in range(1, self.e + 1)):
            low = table
            table = [[(a + b) % p + p * low[a // p][b // p] for b in range(size)]
                     for a in range(size)]
        return table

    @cached_property
    def _neg_table(self):
        p, e = self.p, self.e
        return [_encode([-x % p for x in _digits(a, p, e)], p) for a in range(self.q)]

    @cached_property
    def _log_exp(self):
        """(log, exp) for the first primitive element g: exp[k] = g^k for
        0 <= k < 2(q - 1), so exp[log a + log b] needs no reduction."""
        q = self.q
        for g in range(2, q):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._ext_mul(x, g)
            if len(exp) == q - 1:
                log = [0] * q
                for k, x in enumerate(exp):
                    log[x] = k
                return log, exp + exp
        raise DomainError(f"GF({q}) has no primitive element")  # unreachable

    @cached_property
    def _mul_table(self):
        log, exp = self._log_exp
        logs = log[1:]
        return [[0] * self.q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

    @cached_property
    def _inv_table(self):
        log, exp = self._log_exp
        return [0] + [exp[self.q - 1 - la] for la in log[1:]]


class FieldElem:
    """An immutable element of a FieldSpec."""

    __slots__ = ("spec", "enc")

    def __init__(self, spec: FieldSpec, enc: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "enc", enc)

    def __setattr__(self, *_):
        raise AttributeError("FieldElem is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Residues mod p of the representative polynomial, low degree first."""
        return _digits(self.enc, self.spec.p, self.spec.e)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise DomainError("elements of different fields cannot mix")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.spec.add_enc(self.enc, other.enc))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.spec.sub_enc(self.enc, other.enc))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg_enc(self.enc))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.spec.mul_enc(self.enc, other.enc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.spec.mul_enc(self.enc, self.spec.inv_enc(other.enc)))

    def __pow__(self, k: int):
        return FieldElem(self.spec, self.spec.pow_enc(self.enc, k))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.inv_enc(self.enc))

    def __bool__(self):
        return self.enc != 0

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.spec == other.spec and self.enc == other.enc
        if isinstance(other, int):
            return 0 <= other < self.spec.q and self.enc == other
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.enc))

    def __str__(self):
        return str(self.enc)

    def __repr__(self):
        return f"FieldElem({self.enc} in GF({self.spec.q}))"


def parse_ints(text: str, what: str) -> list[int]:
    """The integers of a comma-separated list such as '1,0,2'."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise DomainError(f"{what} needs comma-separated integers, got {text!r}") from None


def parse_field_spec(text: str) -> FieldSpec:
    """Parse 'q=3' or 'q=4;p=2;e=2;mod=1,1,1': any consistent part of q, p
    and e, and an optional mod, names a field (see FieldSpec.of_order)."""
    try:
        parts = dict(kv.split("=", 1) for kv in text.strip().split(";") if kv)
        nums = {k: int(parts[k]) for k in ("q", "p", "e") if k in parts}
    except ValueError:
        raise DomainError(f"malformed field spec {text!r}") from None
    mod = parse_ints(parts["mod"], "mod") if "mod" in parts else None
    return FieldSpec.of_order(**nums, modulus=mod)
