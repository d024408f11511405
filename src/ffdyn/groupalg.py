"""The group algebra of the cyclic group of order n over GF(q).

Cyclic sequences are identified with residues in GF(q)[t]/(t^n - 1); the
forward-difference map and every operator built from it act by
multiplication with a fixed algebra element vanishing at t = 1.
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache, partial, reduce
from itertools import repeat

from .errors import DegenerateOperatorError, DomainError
from .ffield import (FieldElem, FieldSpec, digits, parse_field_spec, parse_ints, read_slots,
                     reduce_slots, slot_bits, slot_marks, undigits, zero_blocks)
from .polyring import Poly, crt_split, crt_valuations, kernel, t_pow_minus_one


class CyclicSeq:
    """A closed sequence of n field elements, indexed 1..n cyclically."""

    __slots__ = ("spec", "n", "_v")

    def __init__(self, spec: FieldSpec, values):
        encs = spec.encodings(values)
        if not encs:
            raise DomainError("sequence length must be >= 1")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", len(encs))
        object.__setattr__(self, "_v", encs)

    def __setattr__(self, *_):
        raise AttributeError("CyclicSeq is immutable")

    @property
    def value_encs(self) -> tuple[int, ...]:
        return self._v

    @property
    def values(self) -> tuple[FieldElem, ...]:
        return tuple(FieldElem(self.spec, v) for v in self._v)

    def value(self, i: int) -> FieldElem:
        """Cyclic accessor with the 1-based paper indexing; value(0) == value(n)."""
        return FieldElem(self.spec, self._v[(i - 1) % self.n])

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self._v)

    def __eq__(self, other):
        if isinstance(other, CyclicSeq):
            return self.spec == other.spec and self._v == other._v
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self._v))

    def __repr__(self):
        return f"CyclicSeq({seq_text(self)!r})"


def seq_to_poly(f: CyclicSeq) -> Poly:
    """The algebra avatar: sum of f(i) t^i for i = 0..n-1, with f(0) = f(n)."""
    v = f.value_encs
    return Poly(f.spec, (v[-1],) + v[:-1])


def poly_to_seq(spec: FieldSpec, n: int, poly: Poly) -> CyclicSeq:
    """Inverse of seq_to_poly for residues of degree < n."""
    if poly.spec != spec:
        raise DomainError("polynomial from a different field")
    if poly.degree >= n:  # the zero polynomial's degree -inf passes
        raise DomainError("residue degree must stay below n")
    c = poly.coeff_encs
    c += (0,) * (n - len(c))
    return CyclicSeq(spec, c[1:] + c[:1])


def delta(f: CyclicSeq) -> CyclicSeq:
    """Forward differences: result_i = f(i+1) - f(i), cyclically."""
    sub = f.spec.sub_enc
    v = f.value_encs
    n = f.n
    return CyclicSeq(f.spec, tuple(sub(v[(i + 1) % n], v[i]) for i in range(n)))


def delta_poly(spec: FieldSpec, n: int) -> Poly:
    """The algebra element acting as the difference map: t^(n-1) - 1 mod t^n - 1.

    For n = 1 this reduces to zero: differences of a 1-cycle always vanish.
    """
    if n == 1:
        return Poly.zero(spec)
    return t_pow_minus_one(spec, n - 1)


class DiffOperator:
    """A differential operator on length-n sequences, stored as its
    multiplier polynomial reduced mod t^n - 1 (vanishing at t = 1).

    ring is the residue ring mod t^n - 1 of the field's kernel, op is
    op_poly in the ring's form and step the operator on a state in that
    form (ring.enter(values); ring.leave(x) gives the values back).
    """

    __slots__ = ("spec", "n", "op_poly", "ring", "op", "step", "_hash")

    def __init__(self, spec: FieldSpec, n: int, op_poly: Poly):
        if n < 1:
            raise DomainError("n must be >= 1")
        if op_poly.spec != spec:
            raise DomainError("operator polynomial from a different field")
        if op_poly.degree >= n:
            op_poly = op_poly % t_pow_minus_one(spec, n)
        coeffs = op_poly.coeff_encs
        if reduce(spec.add_enc, coeffs, 0):  # the value at t = 1
            raise DomainError("operator polynomial must vanish at t = 1")
        if op_poly.is_zero and n > 1:
            raise DegenerateOperatorError("zero operator polynomial")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "op_poly", op_poly)
        ring = kernel(spec).cyclic_ring(n)
        op = ring.enter(coeffs)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "step", partial(ring.mul, op))
        # the orbit analyzer's cache keys on the operator: hash it once
        object.__setattr__(self, "_hash", hash((spec, n, op_poly)))

    def __setattr__(self, *_):
        raise AttributeError("DiffOperator is immutable")

    def apply_values(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Action on a raw value tuple (encodings, index 0 holds f(1)): the
        product with op_poly mod t^n - 1, which commutes with the shift
        between value index and exponent."""
        ring = self.ring
        return ring.leave(self.step(ring.enter(v)))

    def check_dimensions(self, f: CyclicSeq) -> None:
        if self.spec != f.spec or self.n != f.n:
            raise DomainError("operator and sequence dimensions do not match")

    def __eq__(self, other):
        if isinstance(other, DiffOperator):
            return (self.spec, self.n, self.op_poly) == \
                (other.spec, other.n, other.op_poly)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DiffOperator(n={self.n}, op=[{self.op_poly}])"


@lru_cache(maxsize=256)
def delta_operator(spec: FieldSpec, n: int) -> DiffOperator:
    return DiffOperator(spec, n, delta_poly(spec, n))


def build_operator(spec: FieldSpec, n: int, coeffs) -> DiffOperator:
    """Operator sum(d_i * Delta^i) from coefficients d_1..d_m."""
    ds = [spec.element(c).enc for c in coeffs]
    if not any(ds):
        raise DegenerateOperatorError("all operator coefficients are zero")
    modulus = t_pow_minus_one(spec, n)
    dp = delta_poly(spec, n)
    acc = Poly.zero(spec)
    power = Poly.one(spec)
    for d in ds:
        power = (power * dp) % modulus
        acc = acc + power * Poly(spec, (d,))
    if acc.is_zero and n > 1:
        # e.g. Delta^2 on length 2 in characteristic 2: the combination
        # collapses to the zero map, which is not a valid operator
        raise DegenerateOperatorError(
            "operator combination reduces to zero mod t^n - 1")
    return DiffOperator(spec, n, acc)


def apply_op(D: DiffOperator, f: CyclicSeq) -> CyclicSeq:
    """The sequence of the algebra product op_poly * f~ mod (t^n - 1)."""
    D.check_dimensions(f)
    return CyclicSeq(f.spec, D.apply_values(f.value_encs))


# payload bytes allowed for the chunk tables of one valuation map
_TABLE_BYTES = 1 << 20


def _read_layout(spec: FieldSpec, n: int) -> tuple[int, int, int]:
    """(input digits per chunk table, bits per slot, payload bytes of the
    chunk tables; 0 when states are read by columns) of (spec, n)'s
    valuation map. A slot holds a step of the recurrence and, with tables,
    the sum of n reduced entries. For p = 2 a chunk is a byte of the packed
    state where its tables fit, else a hex digit."""
    p, ef, q = spec.p, spec.e, spec.q
    size = n * ef
    build = (p - 1) * (1 + ef * (p - 1))
    w = 1 if p == 2 else slot_bits(max(build, (p - 1) * n))  # p = 2 sums are XORs
    for chunk in ((8, 4) if p == 2 else (ef,)):  # a byte or a hex digit, or a value
        full, rest = divmod(size, chunk)
        tables = (full * p**chunk + (p**rest if rest else 0)) * -(-size * w // 8)
        if (p == 2 or q <= 256) and tables <= _TABLE_BYTES:
            return chunk, w, tables
    return chunk, 1 if p == 2 else slot_bits(build), 0


class _ValuationMap:
    """The GF(p)-linear map sending sum v_i t^i to the pi-adic digits
    c_0 + c_1 pi + ... of its residue mod every pi^e of crt_split(spec, n),
    laid end to end, so min(v_pi, e) is the index of the first nonzero digit
    block (deg pi coefficients). Each coefficient is its base-p digits, one
    per slot of an int: a bit for p = 2 (sums are XORs), else 8, 16, ...
    bits, reduced mod p. A sequence's values read as they are, since
    seq_to_poly(f) = t * sum f(i+1) t^i and t is a unit mod t^n - 1.

    Column j, the image of t^j, follows from column j - 1 by multiplying the
    digits by t: c_i's coefficient b of t^d spills into c_(i+1) and leaves
    b * (t^d - pi) in c_i; the spill out of c_(e-1) is a multiple of pi^e.
    The components of one (deg pi, e) sit side by side and take each step
    as one int: b is copied across its block and multiplied by the digits
    of t^d - pi one bit plane at a time. The slots are in order of shape,
    which is crt_split order (it sorts by degree, and every component of
    one n has the one e), so spans ascend. A state is read as its digits
    times the columns or, once the map has read two, as a sum of
    chunk-table entries (a byte or a hex digit of the packed state for
    p = 2, a value for odd q <= 256; built on the map's third read unless
    they would pass _TABLE_BYTES, so a map read for two states skips them).
    For p not dividing n (e = 1) a component is one digit block, and its
    valuation is 1 where the block is zero, else 0: one zero_blocks read
    gives them all, with no loop over the components.
    """

    def __init__(self, spec: FieldSpec, n: int):
        p, ef, q = spec.p, spec.e, spec.q
        self.p, self.ef, self.q, self.size = p, ef, q, n * ef
        self.chunk, w, tables = _read_layout(spec, n)
        self.w, self.tabled, self.tables = w, tables > 0, None
        self.reads = 0  # column reads before the tables are built
        # columns summed between two reductions mod p
        self.group = (2**w - p) // (p - 1) ** 2 if p > 2 else self.size
        add = operator.xor if p == 2 else operator.add
        slot, step = (1 << w) - 1, ef * w
        comps = crt_split(spec, n)
        by_shape = {}
        for k, c in enumerate(comps):
            by_shape.setdefault((c.d, c.e), []).append(k)
        self.spans = [None] * len(comps)  # (first slot, end slot, slots per digit block, e)
        runs = []  # (first slot, end slot, slots per digit block) of each shape
        shapes, off = [], 0
        for (d, e), members in by_shape.items():
            blk = d * ef
            width = blk * e
            count = width * len(members)
            firsts = sum(1 << i * width * w for i in range(len(members)))
            tiles = sum(1 << i * blk * w for i in range(e))
            # the shift carries a component's top coefficient into the next
            # component's first one; keep clears it
            keep = ((1 << count * w) - 1) ^ ((1 << step) - 1) * firsts
            # digit s of each block's top coefficient, moved to the block's
            # first slot and copied across the block, times the digits of
            # p^s * (t^d - pi): one (shift, mask, j) term per bit plane j
            terms, lows = [], [comps[k].pi.coeff_encs[:d] for k in members]
            for s in range(ef):
                masks = [0] * (p - 1).bit_length()
                for i, low in enumerate(lows):
                    low = [spec.mul_enc(p**s, spec.neg_enc(c)) for c in low]
                    if ef > 1:
                        low = [r for c in low for r in digits(c, p, ef)]
                    for j in range(len(masks)):
                        plane = sum(slot << h * w for h, v in enumerate(low) if v >> j & 1)
                        masks[j] |= plane * tiles << i * width * w
                terms += [(((d - 1) * ef + s) * w, m, j) for j, m in enumerate(masks) if m]
            for i, k in enumerate(members):
                self.spans[k] = (off + i * width, off + (i + 1) * width, blk, e)
            copy = sum(1 << h * w for h in range(blk))
            shapes.append((off * w, count, keep, slot * tiles * firsts, copy, terms, firsts))
            runs.append((off, off + count, blk))
            off += count
        # every component of one n has the one e; for e = 1 a component is
        # one digit block, so the shapes' runs of blocks, read in turn, give
        # the components' zero flags in order
        self.zeros = zero_blocks(self.size, w, p, runs) if comps[0].e == 1 else None

        # cols[i * ef + s]: the image of p^s * t^i; each shape fills its
        # share of every column, and the shares are joined once at the end
        cols = None
        for at, count, keep, starts, copy, terms, firsts in shapes:
            part = [0] * self.size
            for s in range(ef):
                x = firsts << s * w
                for i in range(s, self.size, ef):  # x = t^(i // ef) * p^s
                    part[i] = x
                    y = (x << step) & keep
                    for shift, mask, j in terms:
                        y = add(y, ((((x >> shift) & starts) * copy) & mask) << j)
                    x = y if p == 2 else reduce_slots(y, count, w, p)
            if at:
                part = map(operator.lshift, part, repeat(at))
            cols = part if cols is None else map(operator.or_, cols, part)
        self.cols = list(cols)

    def _tabulate(self) -> list[list[int]]:
        p, size, w, tables = self.p, self.size, self.w, []
        for k in range(0, size, self.chunk):
            table = [0]
            for col in self.cols[k:k + self.chunk]:
                table += [t ^ col if p == 2 else t + c * col for c in range(1, p) for t in table]
            tables.append(table if p == 2 else [reduce_slots(t, size, w, p) for t in table])
        return tables

    def digit_rows(self) -> tuple[list[list[int]], list[slice]]:
        """(the base-p digits of each column, the slots of each component's
        first digit block in crt_split order): column j holds the residues
        of state p^j, for a census that reads states by their digits."""
        rows = [list(read_slots(col, self.size, self.w)) for col in self.cols]
        return rows, [slice(a, a + blk) for a, _end, blk, _e in self.spans]

    def read(self, values) -> tuple[int, ...]:
        """min(v_pi, e) on each component for the state with these values."""
        p, q, size, w = self.p, self.q, self.size, self.w
        if self.tabled and self.tables is None:
            if self.reads < 2:
                self.reads += 1
            else:
                self.tables = self._tabulate()
        if self.tables is not None:
            if p == 2:
                values = digits(undigits(values, q), 1 << self.chunk, len(self.tables))
            terms = map(operator.getitem, self.tables, values)
            acc = reduce(operator.xor, terms) if p == 2 else sum(terms)
        else:
            coords = values if q == p else [d for v in values for d in digits(v, p, self.ef)]
            acc, cols, g = 0, self.cols, self.group
            for k in range(0, size, g):
                terms = map(operator.mul, cols[k:k + g], coords[k:k + g])
                acc = (reduce(operator.xor, terms, acc) if p == 2
                       else reduce_slots(acc + sum(terms), size, w, p))
        if self.zeros is not None:
            return self.zeros(acc)
        # p | n: the first nonzero digit block of each component
        marks = slot_marks(acc, size, w, p)
        return tuple([e if (i := marks.find("1", a, b)) < 0 else (i - a) // blk
                      for a, b, blk, e in self.spans])


valuation_map = lru_cache(maxsize=64)(_ValuationMap)  # one map per (spec, n)

# bytes allowed for the columns of one valuation map: n e columns of n e
# w-bit slots, (n e)^2 w / 8 bytes over GF(p^e), so the 64 cached maps
# hold at most 512 MiB of columns. GF(2) reaches it at n = 8192: at
# n = 8191 the map took 52 ms to build and a read by its columns 4.9 ms,
# against 8.9 ms for a read by the descent (Python 3.11.7 on a shared
# 2-vCPU VM). At n = 65537 it would take 512 MiB and about 8 s.
_MAP_BYTES = 1 << 23


@lru_cache(maxsize=256)
def _by_map(spec: FieldSpec, n: int) -> list[bool]:
    """[whether the states of (spec, n) are read by its valuation map]:
    False until one state has been read, then whether the map's columns fit
    _MAP_BYTES."""
    return [False]


def seq_valuations(f: CyclicSeq) -> tuple[int, ...]:
    """min(v_pi, e) of seq_to_poly(f) on each component pi^e, in crt_split
    order (0 where f is a unit, e where it vanishes), read off f's values
    (seq_to_poly(f) is t times their polynomial, and t is a unit).

    The one place that picks the route: the first state of a (q, n) is
    read by one descent of the components' subproduct tree
    (polyring.crt_valuations), so a (q, n) read once, as a cold one is,
    builds no map; later ones by the valuation map, unless its columns
    would pass _MAP_BYTES, where every read goes by the descent."""
    spec, n = f.spec, f.n
    by_map = _by_map(spec, n)
    if by_map[0]:
        return valuation_map(spec, n).read(f.value_encs)
    by_map[0] = (n * spec.e) ** 2 * _read_layout(spec, n)[1] <= 8 * _MAP_BYTES
    return crt_valuations(Poly(spec, f.value_encs), n)


# states per block of linear_images; memory stays at one block of planes
_BLOCK = 1 << 16


def linear_images(p: int, basis):
    """Images of every state under a GF(p)-linear map, one block of at most
    _BLOCK states at a time, as base-p digit planes.

    A state index is read as its base-p digit vector, digit j worth p^j, and
    basis[j] holds the M base-p digits of the image of state p^j. Yields an
    (M, size) integer array per block of consecutive states, in index order:
    column i holds the image digits of the block's i-th state. The array is
    reused by the next block.

    The images over the low L coordinates, p^L <= _BLOCK, and over the high
    ones are each filled once by doubling: the states c*p^j + r with r < p^j
    are the states r shifted by c*basis[j]. Block h adds column h of the
    high table to the low one. Both addends of every sum are reduced digits,
    so a sum stays below 2p - 1 and one conditional subtraction on unsigned
    planes reduces it: x - p wraps past x unless x >= p.
    """
    import numpy as np
    rows = np.array(basis, dtype=np.int64) % p
    dtype = np.min_scalar_type(2 * p - 2)

    def images(part):
        table = np.zeros((part.shape[1], p ** len(part)), dtype=dtype)
        for j, row in enumerate(part):
            pj = p**j
            for c in range(1, p):
                dst = table[:, c * pj:(c + 1) * pj]
                np.add(table[:, :pj], (c * row % p).astype(dtype)[:, None], out=dst)
                np.minimum(dst, dst - p, out=dst)
        return table

    low = 0
    while low < len(rows) and p ** (low + 1) <= _BLOCK:
        low += 1
    table, high = images(rows[:low]), images(rows[low:])
    out = np.empty_like(table)
    for h in range(high.shape[1]):
        np.add(table, high[:, h:h + 1], out=out)
        np.minimum(out, out - p, out=out)
        yield out


# -- text / JSON forms ------------------------------------------------------


def seq_text(f: CyclicSeq) -> str:
    vals = ",".join(str(v) for v in f.value_encs)
    return f"{f.spec.spec_text} n={f.n} {vals}"


def parse_seq(text: str) -> CyclicSeq:
    """Parse 'q=2 n=5 0,1,1,0,0' (field part may carry p/e/mod clauses)."""
    head, _, vals = text.strip().rpartition(" ")
    clauses = head.replace(";", " ").split()
    lengths = [c[2:] for c in clauses if c.startswith("n=")]
    if len(lengths) != 1 or not lengths[0].isdecimal():
        raise DomainError(f"sequence text needs one n=<length>, got {text!r}")
    spec = parse_field_spec(";".join(c for c in clauses if not c.startswith("n=")))
    values = parse_ints(vals, "sequence values")
    if len(values) != int(lengths[0]):
        raise DomainError(f"expected {lengths[0]} values, got {len(values)}")
    return CyclicSeq(spec, values)


def seq_to_json(f: CyclicSeq) -> dict:
    out = {"q": f.spec.q, "n": f.n, "values": list(f.value_encs)}
    if f.spec.e > 1:
        out["field"] = f.spec.spec_text
    return out


def seq_from_json(data) -> CyclicSeq:
    try:
        if isinstance(data, str):
            data = json.loads(data)
        field = data["field"] if "field" in data else f"q={data['q']}"
        values = data["values"]
    except (ValueError, TypeError, KeyError):
        raise DomainError("sequence JSON needs an object with values and q or field") from None
    return CyclicSeq(parse_field_spec(field), values)
