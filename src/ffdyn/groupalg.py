"""The group algebra of the cyclic group of order n over GF(q).

Cyclic sequences are identified with residues in GF(q)[t]/(t^n - 1); the
forward-difference map and every operator built from it act by
multiplication with a fixed algebra element vanishing at t = 1.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache, partial

from .errors import DegenerateOperatorError, DomainError
from .ffield import FieldElem, FieldSpec, parse_field_spec, parse_ints
from .polyring import Poly, factorize, kernel, t_pow_minus_one


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
    if poly.degree != float("-inf") and poly.degree >= n:
        raise DomainError("residue degree must stay below n")
    c = list(poly.coeff_encs) + [0] * (n - len(poly.coeff_encs))
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

    step is the operator on a state in the field kernel's native form
    (kern.pack of its value tuple; kern.values(x, n) gives the values back).
    """

    __slots__ = ("spec", "n", "op_poly", "kern", "step")

    def __init__(self, spec: FieldSpec, n: int, op_poly: Poly):
        if n < 1:
            raise DomainError("n must be >= 1")
        if op_poly.spec != spec:
            raise DomainError("operator polynomial from a different field")
        if op_poly.degree != float("-inf") and op_poly.degree >= n:
            op_poly = op_poly % t_pow_minus_one(spec, n)
        if op_poly(spec.one) != spec.zero:
            raise DomainError("operator polynomial must vanish at t = 1")
        if op_poly.is_zero and n > 1:
            raise DegenerateOperatorError("zero operator polynomial")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "op_poly", op_poly)
        kern = kernel(spec)
        object.__setattr__(self, "kern", kern)
        object.__setattr__(self, "step", partial(kern.cyclic, kern.pack(op_poly.coeff_encs), n))

    def __setattr__(self, *_):
        raise AttributeError("DiffOperator is immutable")

    def apply_values(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Action on a raw value tuple (encodings, index 0 holds f(1)): the
        product with op_poly mod t^n - 1, which commutes with the shift
        between value index and exponent."""
        kern = self.kern
        return kern.values(self.step(kern.pack(v)), self.n)

    def check_dimensions(self, f: CyclicSeq) -> None:
        if self.spec != f.spec or self.n != f.n:
            raise DomainError("operator and sequence dimensions do not match")

    def __eq__(self, other):
        if isinstance(other, DiffOperator):
            return (self.spec, self.n, self.op_poly) == \
                (other.spec, other.n, other.op_poly)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.n, self.op_poly))

    def __repr__(self):
        return f"DiffOperator(n={self.n}, op=[{self.op_poly}])"


@lru_cache(maxsize=256)
def delta_operator(spec: FieldSpec, n: int) -> DiffOperator:
    return DiffOperator(spec, n, delta_poly(spec, n))


def build_operator(spec: FieldSpec, n: int, coeffs) -> DiffOperator:
    """Operator sum(d_i * Delta^i) from coefficients d_1..d_m."""
    ds = [spec.element(c) for c in coeffs]
    if all(d.enc == 0 for d in ds):
        raise DegenerateOperatorError("all operator coefficients are zero")
    modulus = t_pow_minus_one(spec, n)
    dp = delta_poly(spec, n)
    acc = Poly.zero(spec)
    power = Poly.one(spec)
    for d in ds:
        power = (power * dp) % modulus
        acc = acc + power * d
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


@lru_cache(maxsize=256)
def crt_split(spec: FieldSpec, n: int) -> tuple[tuple[Poly, int], ...]:
    """Factorization of t^n - 1 into (irreducible, multiplicity) pairs.

    For n = p^k * m with p not dividing m, t^n - 1 = (t^m - 1)^(p^k) and
    t^m - 1 is squarefree, so only t^m - 1 is factored.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    pk = 1
    while n % spec.p == 0:
        n //= spec.p
        pk *= spec.p
    return tuple((pi, e * pk) for pi, e in factorize(t_pow_minus_one(spec, n)).factors)


@lru_cache(maxsize=256)
def _valuation_plan(spec: FieldSpec, n: int):
    """The remainder tree of component_valuations for (spec, n) in the
    kernel's native form: (kernel, nodes, leaves).

    The crt_split list is halved until single components remain; a node is
    the product of the pi^e below it. Residue 0 is r itself (valuations need
    no reduction mod t^n - 1); nodes[k] = (parent, m) makes residue k + 1 as
    residue parent mod m, parents first. leaves[i] = (parent, pi, e):
    component i reads residue parent.
    """
    kern = kernel(spec)
    factors = crt_split(spec, n)
    nodes, parents = [], [0] * len(factors)

    def split(lo, hi, parent):
        if hi - lo == 1:
            parents[lo] = parent
            return
        mid = (lo + hi) // 2
        for a, b in ((lo, mid), (mid, hi)):
            below = parent
            if b - a > 1:
                prod = math.prod((pi**e for pi, e in factors[a:b]), start=Poly.one(spec))
                nodes.append((parent, kern.pack(prod.coeff_encs)))
                below = len(nodes)
            split(a, b, below)

    split(0, len(factors), 0)
    leaves = [(parent, kern.pack(pi.coeff_encs), e)
              for parent, (pi, e) in zip(parents, factors)]
    return kern, nodes, leaves


def component_valuations(r: Poly, n: int) -> tuple[int, ...]:
    """pi-adic valuation of r on each component pi^e of t^n - 1, in
    crt_split order: 0 where r is a unit, e where r vanishes.

    r is packed once and reduced down the cached remainder tree. A component
    reads a residue x = r mod (a multiple of pi^e), so the capped valuation
    min(v_pi(r), e) is min(v_pi(x), e), found by at most e divisions by pi.
    x is not reduced mod pi^e first: on the list kernels that division is
    quadratic in e.
    """
    kern, nodes, leaves = _valuation_plan(r.spec, n)
    rem, divmod_, is_zero = kern.rem, kern.divmod, kern.is_zero
    xs = [kern.pack(r.coeff_encs)]
    for parent, m in nodes:
        xs.append(rem(xs[parent], m))
    out = []
    for parent, pi, e in leaves:
        x, v = xs[parent], 0
        while v < e:
            x, rest = divmod_(x, pi)
            if not is_zero(rest):
                break
            v += 1
        out.append(v)
    return tuple(out)


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
