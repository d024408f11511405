"""Exact arithmetic in finite fields GF(p^e).

Elements are stored as a single integer encoding: the base-p digits of the
encoding are the coefficients of the representative polynomial, lowest
degree first. For prime fields the encoding is the residue itself.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .errors import DomainError
from .intfactor import is_prime, power, prime_power

_TABLE_LIMIT = 512  # build full operation tables only for small fields


# ---------------------------------------------------------------------------
# The digit codec, the one place that lays digits out in an int: digits by
# bin(), hex(), int() and to_bytes() (base 256), slots of w = 8 * 2^k bits
# by bytes (8), array (16 to 64) or to_bytes (wider), little-endian on every
# host.

_TEXT = b"0123456789abcdefghijklmnopqrstuv"
_TO_TEXT = bytes.maketrans(bytes(range(32)), _TEXT)
_FROM_TEXT = bytes.maketrans(_TEXT, bytes(range(32)))
_ARRAY_CODES = {8 * array(c).itemsize: c for c in "HILQ"}  # by slot bits
_BIG_ENDIAN = sys.byteorder == "big"
_MARKS = b"0" + b"1" * 255  # translates a zero byte to "0", any other to "1"
_ZERO_BYTE = b"\x01" + bytes(255)  # a zero byte to 1, any other to 0
_ZERO_TEXT = bytes.maketrans(b"01", b"\x01\x00")  # "0" to 1, "1" to 0


def digits(value: int, base: int, width: int) -> tuple[int, ...]:
    """The low `width` base-`base` digits of value, least significant first."""
    if base in (2, 16):  # a marker bit above the digits keeps their zeros
        text = bin(value | 1 << width) if base == 2 else hex(value | 1 << 4 * width)
        return tuple(text[:-width - 1:-1].encode().translate(_FROM_TEXT))
    if base == 256:
        return tuple((value & (1 << 8 * width) - 1).to_bytes(width, "little"))
    out = []
    for _ in range(width):
        value, r = divmod(value, base)
        out.append(r)
    return tuple(out)


def undigits(ds, base: int) -> int:
    """Inverse of digits: the integer whose base-`base` digits, least
    significant first, are ds."""
    if base <= 32 and not base & (base - 1):  # bytes() of a wide array reads its buffer
        ds = ds.tolist() if isinstance(ds, array) else ds
        return int(bytes(ds)[::-1].translate(_TO_TEXT) or b"0", base)
    out = 0
    for d in reversed(list(ds)):
        out = out * base + d
    return out


def slot_bits(bound: int) -> int:
    """Bits per slot, 8 * 2^k, for slots that hold values up to bound."""
    return 8 << max(0, (bound.bit_length() - 1) // 8).bit_length()


def pack_slots(values, w: int) -> int:
    """The int whose w-bit slots, lowest first, hold values (each < 2^w)."""
    if w == 8:
        return int.from_bytes(bytes(values), "little")
    if w > 64:
        return int.from_bytes(b"".join(v.to_bytes(w // 8, "little") for v in values), "little")
    slots = array(_ARRAY_CODES[w], values)
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def read_slots(x: int, count: int, w: int):
    """The count w-bit slots of x < 2^(count * w), lowest first, as a
    sequence of ints; w = 1 reads bits."""
    if w == 1:
        return digits(x, 2, count)
    k = w // 8
    b = x.to_bytes(count * k, "little")
    if k == 1:
        return b
    if k > 8:
        return [int.from_bytes(b[i:i + k], "little") for i in range(0, len(b), k)]
    slots = array(_ARRAY_CODES[w], b)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots


def digit_planes(p: int, e: int, count: int, stride: int, w: int):
    """(pack, read) for count elements of GF(p^e) in w-bit slots, digit i of
    element j in slot j * stride + i (stride >= e), other slots zero; pack
    takes up to count encodings, read gives count. Up to 256 elements pack
    translates the encodings' bytes per digit plane into strided slot bytes
    and read joins the planes by Horner's rule in byte slots below q."""
    if stride == 1:  # prime fields: the slots are the digits
        return lambda c: pack_slots(c, w), lambda x: tuple(read_slots(x, count, w))
    if p**e > 256:  # element by element; an encoding's digits past the e-th are zero
        def read(x: int) -> tuple[int, ...]:
            slots = read_slots(x, count * stride, w)
            return tuple(undigits(slots[j:j + stride], p) for j in range(0, len(slots), stride))

        return lambda encs: pack_slots([d for v in encs for d in digits(v, p, stride)], w), read
    size, step = count * stride * w // 8, stride * w // 8  # in bytes
    planes = [(i * w // 8, table) for i, table in enumerate(_digit_tables(p, e))]

    def pack(encs) -> int:
        src, buf = bytes(encs).ljust(count, b"\0"), bytearray(size)
        for start, table in planes:
            buf[start::step] = src.translate(table)
        return int.from_bytes(buf, "little")

    def read(x: int) -> tuple[int, ...]:
        b, y = x.to_bytes(size, "little"), 0
        for start, _ in reversed(planes):
            y = y * p + int.from_bytes(b[start::step], "little")
        return tuple(y.to_bytes(count, "little"))

    return pack, read


@lru_cache(maxsize=64)
def _digit_tables(p: int, e: int) -> tuple[bytes, ...]:
    """For each i < e, the translate table from a byte encoding to its digit i."""
    return tuple(bytes(v // p**i % p for v in range(256)) for i in range(e))


@lru_cache(maxsize=64)
def _residues(p: int) -> bytes:
    return bytes(v % p for v in range(256))


@lru_cache(maxsize=256)
def _byte_fold(count: int, w: int, p: int) -> tuple[int, int, list[int]]:
    """(the low byte of every slot, the other bytes, 256^i mod p for each
    byte i >= 1 of a slot) for count w-bit slots."""
    low = int.from_bytes((b"\xff" + bytes(w // 8 - 1)) * count, "little")
    return low, ((1 << count * w) - 1) ^ low, [pow(256, i, p) for i in range(1, w // 8)]


def reduce_slots(x: int, count: int, w: int, p: int) -> int:
    """x < 2^(count * w) with each of its w-bit slots reduced mod p.

    Wider slots with p < 256 fold their bytes: a slot sum b_0 + b_1 * 256 + ...
    is congruent to b_0 + b_1 * (256 mod p) + ..., which is smaller while any
    b_i with i >= 1 is nonzero and fits the slot, so repeated folding of the
    whole int leaves every slot in its low byte, and one translate of the
    bytes reduces it. Wider p reduces slot by slot.
    """
    if w > 8:
        if p > 255:
            return pack_slots([v % p for v in read_slots(x, count, w)], w)
        low, high, weights = _byte_fold(count, w, p)
        while x & high:
            y = x & low
            for i, r in enumerate(weights, 1):
                y += r * (x >> 8 * i & low)
            x = y
    b = x.to_bytes(count * w // 8, "little").translate(_residues(p))
    return int.from_bytes(b, "little")


def slot_marks(x: int, count: int, w: int, p: int) -> str:
    """One character per w-bit slot of x < 2^(count * w), lowest first: "1"
    where the slot is nonzero mod p, else "0"; w = 1 reads bits."""
    if w == 1:
        return bin(x | 1 << count)[:-count - 1:-1]
    if w == 8:
        marks = x.to_bytes(count, "little").translate(_residues(p))
    else:
        marks = bytes([v % p != 0 for v in read_slots(x, count, w)])
    return marks.translate(_MARKS).decode()


def zero_blocks(count: int, w: int, p: int, runs):
    """A reader of x < 2^(count * w) in w-bit slots: for each run (a, b, blk)
    of runs in turn, one digit per block of blk slots in a .. b - 1, 1 where
    the block is zero mod p, else 0. The read takes one flag per slot (a
    bit for w = 1, else a byte), ORs each block onto its first flag by
    doubling folds whose masks are built here, once, and takes one strided
    slice per run."""
    u = 1 if w == 1 else 8  # bits per flag
    folds = {}
    for a, b, blk in runs:
        # one flag at the start of each block: sum of 2^(u * (a + j * blk))
        firsts, s = ((1 << u * (b - a)) - 1) // ((1 << u * blk) - 1) << u * a, 1
        while s < blk:  # each flag ORs in the flag s slots on, if that is in its block
            folds[u * s] = folds.get(u * s, 0) | ((1 << u * (blk - s)) - 1) * firsts
            s *= 2
    folds = sorted(folds.items())
    if w == 1:
        def read(x: int) -> tuple[int, ...]:
            for shift, mask in folds:
                x |= x >> shift & mask
            marks = bin(x | 1 << count)[:-count - 1:-1]
            return tuple("".join([marks[a:b:blk] for a, b, blk in runs]).encode()
                         .translate(_ZERO_TEXT))
        return read
    res = _residues(p)

    def read(x: int) -> tuple[int, ...]:
        flags = (x.to_bytes(count, "little").translate(res) if w == 8
                 else bytes([v % p != 0 for v in read_slots(x, count, w)]))
        x = int.from_bytes(flags, "little")
        for shift, mask in folds:
            x |= x >> shift & mask
        flags = x.to_bytes(count, "little")
        return tuple(b"".join([flags[a:b:blk] for a, b, blk in runs]).translate(_ZERO_BYTE))
    return read


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial over Z/p, coefficients low-to-high."""
    # imported here because polyring imports this module
    from .polyring import Poly, is_irreducible
    return is_irreducible(Poly(FieldSpec(p), modulus))


@lru_cache(maxsize=64)
def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lowest monic irreducible of degree e over Z/p, in encoding order."""
    for low in range(p**e):
        cand = digits(low, p, e) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise DomainError(f"no irreducible of degree {e} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------


def _integer(name: str, v) -> int:
    """v as an int (numpy ints pass, bools do not), or a one-line DomainError."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    return operator.index(v)


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p^e); prime fields carry no modulus."""

    p: int
    e: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _integer("p", self.p))
        object.__setattr__(self, "e", _integer("e", self.e))
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
        q, p, e = (None if v is None else _integer(name, v)
                   for name, v in (("q", q), ("p", p), ("e", e)))
        if q is not None:
            if (qpe := prime_power(q)) is None:
                raise DomainError(f"{q} is not a prime power")
            qp, qe = qpe
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
        """Coerce an encoding (any integer-like value), a sequence of integer
        digits (residues mod p, low degree first) or a FieldElem into this
        field."""
        if isinstance(value, FieldElem) or hasattr(type(value), "__index__"):
            return FieldElem(self, self._encoding(value))
        try:
            ds = [operator.index(c) % self.p for c in value]
        except TypeError:
            raise DomainError("a field element is an integer encoding or a sequence "
                              f"of integer digits, got {type(value).__name__}") from None
        if len(ds) > self.e:
            raise DomainError("too many residues for this field")
        return FieldElem(self, undigits(ds, self.p))

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

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self):
        return (FieldElem(self, v) for v in range(self.q))

    # -- encoded arithmetic ----------------------------------------------
    # Hot paths (orbit sweeps, censuses) run on raw encodings: prime fields
    # inline their mod-p arithmetic, extension fields call _tables.

    def add_enc(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._tables[0](a, b)

    def sub_enc(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self.add_enc(a, self.neg_enc(b))

    def neg_enc(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return self._tables[1](a)

    def mul_enc(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        return self._tables[2](a, b)

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._tables[3](a)

    def pow_enc(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv_enc(a), -k
        return power(self.mul_enc, a, k, 1)

    # -- the operation tables of an extension field -------------------------

    @cached_property
    def _tables(self):
        """(add, neg, mul, inv) of an extension field as callables on
        encodings. Fields of at most _TABLE_LIMIT elements read lists built
        once (inv[0] is unused); larger ones compute on base-p digits."""
        p, e, q = self.p, self.e, self.q
        if q > _TABLE_LIMIT:  # -a is (p - 1) * a
            add = operator.xor if p == 2 else lambda a, b: undigits(
                [(x + y) % p for x, y in zip(digits(a, p, e), digits(b, p, e))], p)
            return (add, partial(self._digit_mul, p - 1), self._digit_mul,
                    partial(self.pow_enc, k=q - 2))
        # add: with a = a0 + p*a', the low digits add mod p and the rest is
        # the table of the field with one digit less
        add = [[0]]
        for size in (p**k for k in range(1, e + 1)):
            low = add
            add = [[(a + b) % p + p * low[a // p][b // p] for b in range(size)]
                   for a in range(size)]
        neg = [row.index(0) for row in add]
        # mul and inv from exp[k] = g^k for the first primitive element g,
        # 0 <= k < 2(q - 1), so exp[log a + log b] needs no reduction
        for g in range(2, q):
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = self._digit_mul(x, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for k, x in enumerate(exp):
            log[x] = k
        exp += exp
        logs = log[1:]
        mul = [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]
        inv = [0] + [exp[q - 1 - la] for la in logs]
        return (lambda a, b: add[a][b], neg.__getitem__, lambda a, b: mul[a][b],
                inv.__getitem__)

    def _digit_mul(self, a: int, b: int) -> int:
        """a * b in an extension field: the digit polynomials multiplied over
        GF(p) and reduced by the modulus."""
        p, e = self.p, self.e
        da, db = digits(a, p, e), digits(b, p, e)
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
        return undigits(prod[:e], p)


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
        return digits(self.enc, self.spec.p, self.spec.e)

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
        return hash(self.enc)  # agrees with == on FieldElems and on ints

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
    and e, and an optional mod, names a field (see FieldSpec.of_order).
    Each key is one of q, p, e and mod, given at most once."""
    try:
        pairs = [kv.split("=", 1) for kv in text.strip().split(";") if kv]
        parts = dict(pairs)
        nums = {k: int(parts[k]) for k in ("q", "p", "e") if k in parts}
    except ValueError:
        raise DomainError(f"malformed field spec {text!r}") from None
    if len(parts) < len(pairs) or not parts.keys() <= {"q", "p", "e", "mod"}:
        raise DomainError(f"field spec {text!r} needs distinct keys among q, p, e and mod")
    mod = parse_ints(parts["mod"], "mod") if "mod" in parts else None
    return FieldSpec.of_order(**nums, modulus=mod)
