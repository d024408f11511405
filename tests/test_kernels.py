"""The polynomial kernels against schoolbook arithmetic on plain lists.

Every reference below makes one FieldSpec.add_enc / mul_enc call per
coefficient operation, except ref_mulmod_p, which works on int lists with
one % p per coefficient operation; none shares a loop with the kernels.
GF(3^6) lies above the field's table limit, where FieldSpec's element ops,
which the references call, compute on digits.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdyn import FieldSpec, Poly, polyring
from ffdyn.errors import DegenerateOperatorError
from ffdyn.dynamics import orbit_algebraic, orbit_brute
from ffdyn.ffield import read_slots, slot_bits
from ffdyn.groupalg import CyclicSeq, DiffOperator, build_operator, delta_operator
from ffdyn.intfactor import factor_int, power
from ffdyn.polyring import _order_prime_power, crt_split, gcd, kernel, powmod, resultant

FIELDS = [FieldSpec.of_order(q) for q in (2, 3, 5, 4, 9, 256, 3**6)]
FIELD_IDS = [f"q{spec.q}" for spec in FIELDS]
MAX_DEG = 12

fields = pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
examples = settings(deadline=None, max_examples=25)


def strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def ref_add(spec, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return strip(spec.add_enc(x, y) for x, y in zip(a, b))


def ref_neg(spec, a):
    return [spec.mul_enc(spec.p - 1, x) for x in a]  # p - 1 encodes -1


def ref_mul(spec, a, b):
    add, mul = spec.add_enc, spec.mul_enc
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return strip(out)


def ref_inv(spec, x):
    # Fermat's inverse in a prime field, where q may be too large to search
    if spec.e == 1:
        return pow(x, spec.q - 2, spec.q)
    return next(y for y in range(1, spec.q) if spec.mul_enc(x, y) == 1)


def ref_divmod(spec, a, b):
    inv = ref_inv(spec, b[-1])
    add, mul = spec.add_enc, spec.mul_enc
    neg_b = ref_neg(spec, b)
    rem = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(quot))):
        c = mul(rem[k + len(b) - 1], inv)
        quot[k] = c
        for j, y in enumerate(neg_b):
            rem[k + j] = add(rem[k + j], mul(c, y))
    return strip(quot), strip(rem)


def ref_apply(spec, op, v):
    """The tap loop: out[j] = sum over k of op[k] * v[j - k], indices mod n."""
    out = [0] * len(v)
    for k, c in enumerate(op):
        for j in range(len(v)):
            out[j] = spec.add_enc(out[j], spec.mul_enc(c, v[j - k]))
    return tuple(out)


def coeffs(draw, spec, max_deg=MAX_DEG, nonzero=False):
    c = draw(st.lists(st.integers(0, spec.q - 1), min_size=int(nonzero), max_size=max_deg + 1))
    if nonzero:
        c[-1] = draw(st.integers(1, spec.q - 1))
    return c


@fields
@examples
@given(data=st.data())
def test_add_neg_sub_match_reference(spec, data):
    a, b = coeffs(data.draw, spec), coeffs(data.draw, spec)
    pa, pb = Poly(spec, a), Poly(spec, b)
    assert list((pa + pb).coeff_encs) == ref_add(spec, a, b)
    assert list((-pb).coeff_encs) == strip(ref_neg(spec, b))
    assert list((pa - pb).coeff_encs) == ref_add(spec, a, ref_neg(spec, b))


@fields
@examples
@given(data=st.data())
def test_mul_matches_reference_and_ring_laws(spec, data):
    a, b, c = (coeffs(data.draw, spec) for _ in range(3))
    pa, pb, pc = Poly(spec, a), Poly(spec, b), Poly(spec, c)
    assert list((pa * pb).coeff_encs) == ref_mul(spec, strip(a), strip(b))
    assert list((pa * pa).coeff_encs) == ref_mul(spec, strip(a), strip(a))
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc


@fields
@examples
@given(data=st.data())
def test_divmod_matches_reference(spec, data):
    a, b = coeffs(data.draw, spec, 2 * MAX_DEG), coeffs(data.draw, spec, nonzero=True)
    pa, pb = Poly(spec, a), Poly(spec, b)
    quot, rem = divmod(pa, pb)
    assert quot * pb + rem == pa
    assert rem.degree < pb.degree
    assert (list(quot.coeff_encs), list(rem.coeff_encs)) == ref_divmod(spec, strip(a), b)


@fields
@examples
@given(data=st.data())
def test_powmod_matches_repeated_multiplication(spec, data):
    a, m = coeffs(data.draw, spec), coeffs(data.draw, spec, nonzero=True)
    k = data.draw(st.integers(0, 20))
    pa, pm = Poly(spec, a), Poly(spec, m)
    expected = Poly.one(spec) % pm
    for _ in range(k):
        expected = (expected * pa) % pm
    assert powmod(pa, k, pm) == expected


def ref_powmod(base, k, m):
    """Square-and-multiply through ref_mul and ref_divmod, which share no
    code with powmod's list or packed route; over a prime field through
    ref_mulmod_p on plain int lists instead."""
    spec = m.spec
    mod = list(m.coeff_encs)
    if spec.e == 1:
        def mulmod(a, b):
            return ref_mulmod_p(spec.p, a, b, mod)
    else:
        def mulmod(a, b):
            return ref_divmod(spec, ref_mul(spec, a, b), mod)[1]

    result, base = mulmod([1], [1]), mulmod(list(base.coeff_encs), [1])
    while k:
        if k & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        k >>= 1
    return Poly(spec, result)


def ref_mulmod_p(p, a, b, m):
    """a * b mod m over GF(p): schoolbook product and long division on int
    lists, one % p per coefficient operation."""
    rem = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] + x * y) % p
    inv, db = pow(m[-1], p - 2, p), len(m) - 1
    for k in reversed(range(len(rem) - db)):
        c = rem[k + db] * inv % p
        for j, y in enumerate(m):
            rem[k + j] = (rem[k + j] - c * y) % p
    return strip(rem)


ODD_P_DEGREES = [1, 2, 3, 4, 5, 6, 7, 9, 30, 64, 121]


def test_odd_p_degrees_straddle_the_crossover():
    """ODD_P_DEGREES reach both rings mod m: the kernel's own below deg m = 2,
    where Barrett's quotient is undefined, and the packed one from there."""
    kern = kernel(FieldSpec.of_order(3))
    packed = [isinstance(polyring._modulus(kern, kern.pack([1] * (d + 1))),
                         polyring._PackedModulus) for d in ODD_P_DEGREES]
    assert packed == [d >= 2 for d in ODD_P_DEGREES] and not all(packed) and any(packed)


@pytest.mark.parametrize("p", [3, 5, 7, 251])
@pytest.mark.parametrize("d", ODD_P_DEGREES)
def test_powmod_odd_p_matches_reference(p, d):
    """Moduli of every degree in ODD_P_DEGREES, never monic; a zero base, a
    base below deg m and one of degree >= 2 deg m; k = 0, 1, 2 and up to
    10^29."""
    spec = FieldSpec.of_order(p)
    rng = random.Random(p * 1000 + d)
    m = Poly(spec, [rng.randrange(p) for _ in range(d)] + [rng.randrange(2, p)])
    bases = [Poly(spec), Poly(spec, [rng.randrange(p) for _ in range(d)]),
             Poly(spec, [rng.randrange(p) for _ in range(2 * d)] + [1])]
    for base in bases:
        for k in (0, 1, 2, rng.randrange(10**29)):
            assert powmod(base, k, m) == ref_powmod(base, k, m), (base, k)


# (p, deg m) pairs on both sides of each slot-width boundary: the largest slot
# sum (p - 1)^2 * deg m needs 8 or 9, 16 or 17, 32 or 33 bits; p = 2^31 - 1
# and 2^61 - 1 need 128-bit slots
SLOT_EDGES = [(3, 63), (3, 64), (37, 50), (37, 51), (23167, 8), (23167, 9),
              (2**31 - 1, 6), (2**61 - 1, 6)]


def test_slot_edges_cover_every_width():
    assert {slot_bits((p - 1) ** 2 * d) for p, d in SLOT_EDGES} == {8, 16, 32, 64, 128}


@pytest.mark.parametrize("p,d", SLOT_EDGES)
def test_powmod_reaches_the_largest_slot_sum(p, d, monkeypatch):
    """Squaring the all-(p - 1) residue of degree d - 1 fills the middle slot
    with exactly (p - 1)^2 * d, so a slot one bit too narrow carries. Every
    edge takes the packed route."""
    spec = FieldSpec.of_order(p)
    rng = random.Random(d)
    m = Poly(spec, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
    base = Poly(spec, [p - 1] * d)
    packed = []

    class Counted(polyring._PackedModulus):
        def pow(self, x, k):
            packed.append(k)
            return super().pow(x, k)

    monkeypatch.setattr(polyring, "_PackedModulus", Counted)
    ks = (2, 3, rng.randrange(10**29))
    for k in ks:
        assert powmod(base, k, m) == ref_powmod(base, k, m)
    assert packed == list(ks)


@pytest.mark.parametrize("q", [5, 9])
def test_kernel_inverts_through_the_field(q, monkeypatch):
    """The kernel and its slot forms are cached per field, so they must look
    FieldSpec.inv_enc up when they divide: a wrapper put on the class after
    the kernel and the form are built still sees the inverse of a non-monic
    divisor's leading coefficient."""
    spec = FieldSpec.of_order(q)
    a, b = Poly(spec, [1, 2, 3, 4]), Poly(spec, [3, 2])
    divmod(a, b)
    calls = []
    inv_enc = FieldSpec.inv_enc

    def counted(self, x):
        calls.append(x)
        return inv_enc(self, x)

    monkeypatch.setattr(FieldSpec, "inv_enc", counted)
    divmod(a, b)
    assert calls == [2]


@pytest.mark.parametrize("n", [29, 31, 37])
def test_unit_orders_on_large_components(n):
    """GF(3)[t]/(t^n - 1) has components of degree 28, 30 and 18 besides
    t - 1; the order found there passes the order test under the reference
    powering: a^k == 1 and a^(k/l) != 1 for each prime l | k."""
    spec = FieldSpec.of_order(3)
    a = Poly(spec, [2, 1, 0, 0, 0, 1])  # a(1) = 1: a unit on every component
    degrees = []
    for c in crt_split(spec, n):
        degrees.append(c.d)
        modulus = c.pi**c.e
        one = Poly.one(spec) % modulus
        v, orders = _order_prime_power(a, c.pi, c.e)
        assert v == 0
        k = orders[-1]
        assert ref_powmod(a, k, modulus) == one
        for ell in factor_int(k):
            assert ref_powmod(a, k // ell, modulus) != one
    assert max(degrees) == {29: 28, 31: 30, 37: 18}[n]


@fields
@examples
@given(data=st.data())
def test_apply_values_matches_tap_loop(spec, data):
    n = data.draw(st.integers(1, MAX_DEG))
    factor = Poly(spec, coeffs(data.draw, spec, n - 1))
    t_minus_1 = Poly(spec, (spec.neg_enc(1), 1))
    try:
        D = DiffOperator(spec, n, t_minus_1 * factor)
    except DegenerateOperatorError:
        assume(False)
    v = tuple(data.draw(st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)))
    assert D.apply_values(v) == ref_apply(spec, D.op_poly.coeff_encs, v)


# (p, n) on both sides of each width of the odd-p ring mod t^n - 1, whose largest
# slot sum is n(p - 1)^2: the powmod edges, plus p = 2^31 - 1 at n = 4 and 5
# for 64 and 128 bits
CYCLIC_EDGES = SLOT_EDGES + [(2**31 - 1, 4), (2**31 - 1, 5)]


def test_cyclic_edges_cover_every_width():
    widths = [slot_bits((p - 1) ** 2 * n) for p, n in CYCLIC_EDGES]
    assert set(widths) == {8, 16, 32, 64, 128}
    assert widths[-2:] == [64, 128]


def s_power_digits(spec, k):
    """Digits of s^k mod the field's modulus, s the generator, by long
    division over Z/p (no field tables)."""
    p, mod, e = spec.p, spec.modulus, spec.e
    c = [0] * k + [1]
    for top in range(k, e - 1, -1):
        lead = c[top]
        for j in range(e + 1):
            c[top - e + j] = (c[top - e + j] - lead * mod[j]) % p
    return c[:e]


def slot_bound_block(spec, n):
    """The slots of one block after the t and s folds when the all-(q - 1)
    operator multiplies the all-(q - 1) state: slot k of the product sums
    n * min(k + 1, 2e - 1 - k) digit products (p - 1)^2, and each slot
    e + m adds its value times the digits of s^(e+m) onto slots 0..e - 1."""
    p, e = spec.p, spec.e
    b = 2 * e - 1
    prod = [n * min(k + 1, b - k) * (p - 1) ** 2 for k in range(b)]
    for k in range(e, b):
        for i, r in enumerate(s_power_digits(spec, k)):
            prod[i] += prod[k] * r
    return prod[:e] + [0] * (e - 1)


# extension fields on both sides of the 8/16-bit edge of the slot bound, one
# at the 16/32-bit edge and one at 128 bits (q > 256: the codec goes element
# by element)
EXT_CYCLIC_EDGES = [(4, 85), (4, 86), (8, 51), (8, 52), (9, 21), (9, 22), (16, 36), (16, 37),
                    (25, 3), (25, 4), (27, 10), (27, 11), (49, 260), (49, 261),
                    ((2**31 - 1) ** 2, 3)]


def test_ext_cyclic_edges_straddle_the_widths():
    widths = [slot_bits(max(slot_bound_block(FieldSpec.of_order(q), n)))
              for q, n in EXT_CYCLIC_EDGES]
    assert widths == [8, 16] * 6 + [16, 32, 128]


@pytest.mark.parametrize("q,n", CYCLIC_EDGES + EXT_CYCLIC_EDGES)
def test_cyclic_fills_every_slot_without_carry(q, n, monkeypatch):
    """The all-(q - 1) operator times the all-(q - 1) state fills every
    folded slot with the most it ever holds: n products of (p - 1)^2 over a
    prime field, the slot bound of the slot ring over an extension field.
    The ring's slots are the narrowest that hold it, and one reduce_slots
    call sees exactly those values, so none carried."""
    spec = FieldSpec.of_order(q)
    ring = kernel(spec).cyclic_ring(n)
    a = ring.enter([q - 1] * n)
    folded, widths, reduce_slots = [], [], polyring.reduce_slots

    def seen(x, count, w, p):
        folded.append(list(read_slots(x, count, w)))
        widths.append(w)
        return reduce_slots(x, count, w, p)

    monkeypatch.setattr(polyring, "reduce_slots", seen)
    assert ring.leave(ring.mul(a, a)) == ref_apply(spec, (q - 1,) * n, (q - 1,) * n)
    block = slot_bound_block(spec, n)
    assert folded == [block * n]
    assert widths == [slot_bits(max(block))]
    if spec.e == 1:
        assert block == [n * (q - 1) ** 2]


# every kernel's ring mod t^n - 1, n = 1 included, the slot ring over prime
# and extension fields; p = 2^31 - 1 at the lengths where its slots widen to
# 64 and 128 bits
RING_CASES = [(q, n) for q in (2, 3, 4, 8, 9, 16, 25, 27) for n in (1, 2, 7, 16)] + \
    [(2**31 - 1, n) for n in (1, 4, 5)]


@pytest.mark.parametrize("q,n", RING_CASES)
def test_cyclic_ring_matches_the_tap_loop(q, n):
    """enter and leave are inverse, one is 1, mul is the cyclic product and
    power (and the ring's pow) agree with repeated mul."""
    spec = FieldSpec.of_order(q)
    ring = kernel(spec).cyclic_ring(n)
    rng = random.Random(q + n)
    unit = (1,) + (0,) * (n - 1)
    assert ring.leave(ring.one) == unit
    assert ring.enter((1,)) == ring.enter(unit) == ring.one
    states = [(q - 1,) * n] + [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]
    for a, v in zip(states, states[1:] + states[:1]):
        x, y = ring.enter(a), ring.enter(v)
        assert tuple(ring.leave(x)) == a
        assert ring.leave(ring.mul(x, y)) == ref_apply(spec, a, v)
        assert ring.mul(ring.one, y) == y
        expected = ring.one
        for k in range(14):
            assert power(ring.mul, x, k, ring.one) == ring.pow(x, k) == expected, k
            assert power(ring.mul, x, k, ring.one, acc=y) == ring.mul(expected, y), k
            expected = ring.mul(expected, x)


@pytest.mark.parametrize("p,n", CYCLIC_EDGES)
def test_apply_values_at_the_slot_edges(p, n):
    spec = FieldSpec.of_order(p)
    rng = random.Random(p + n)
    factor = Poly(spec, [rng.randrange(p) for _ in range(n - 2)] + [rng.randrange(1, p)])
    D = DiffOperator(spec, n, Poly(spec, (p - 1, 1)) * factor)
    for v in ((p - 1,) * n, tuple(rng.randrange(p) for _ in range(n))):
        assert D.apply_values(v) == ref_apply(spec, D.op_poly.coeff_encs, v)


def test_orbit_algebraic_matches_brute_at_16_bit_slots():
    """GF(3), n = 81 = 3^4: t^n - 1 = (t - 1)^81, the ring mod t^n - 1 has
    16-bit slots, and preperiods run up to 81 powers of the operator."""
    F3 = FieldSpec.of_order(3)
    assert slot_bits(4 * 81) == 16
    rng = random.Random(81)
    for D in (delta_operator(F3, 81), build_operator(F3, 81, (1, 2, 0, 1))):
        for _ in range(4):
            f = CyclicSeq(F3, [rng.randrange(3) for _ in range(81)])
            assert orbit_algebraic(D, f) == orbit_brute(D, f)


# GF(4), GF(8) and GF(9) at lengths coprime to p and divisible by it
SMALL_EXT_ORBITS = [(4, 3), (4, 4), (4, 6), (4, 8), (8, 3), (8, 4), (8, 7), (9, 3), (9, 4), (9, 6),
                    (9, 9)]


@pytest.mark.parametrize("q,n", SMALL_EXT_ORBITS)
def test_orbit_algebraic_matches_brute_over_extension_fields(q, n):
    """Brute iteration in the slot ring against valuations and unit orders,
    for the difference map and a mixed operator, on random states and the
    all-(q - 1) state."""
    spec = FieldSpec.of_order(q)
    rng = random.Random(q * 100 + n)
    states = [[q - 1] * n] + [[rng.randrange(q) for _ in range(n)] for _ in range(6)]
    for D in (delta_operator(spec, n), build_operator(spec, n, (1, q - 1, 0, 2))):
        for values in states:
            f = CyclicSeq(spec, values)
            assert orbit_algebraic(D, f) == orbit_brute(D, f), (D, values)


# -- the one slot layout: kern.mul and the rings mod a polynomial -----------


# every list kernel's field family: small and word-sized p, and extension
# fields below and above 256 elements (digit_planes' byte and element paths)
LAYOUT_FIELDS = [FieldSpec.of_order(q) for q in
                 (3, 5, 251, 65537, 2**31 - 1, 4, 8, 9, 25, 27, 1024, 2187)]
layout_fields = pytest.mark.parametrize("spec", LAYOUT_FIELDS,
                                        ids=[f"q{spec.q}" for spec in LAYOUT_FIELDS])


def layout_edges(spec, most=100):
    """Each term count t < most at which the slot bound of a t-term product
    (slot_bound_block) still fits a width that t + 1 terms outgrow."""
    widths = [slot_bits(max(slot_bound_block(spec, t))) for t in range(1, most + 1)]
    return [t for t in range(1, most) if widths[t] != widths[t - 1]]


def test_layout_edges_reach_every_field_but_one():
    """Only GF(65537) has no width edge below 100 terms: its one-term bound
    is 2^32 and its next edge lies at 2^32 terms."""
    edges = {spec.q: layout_edges(spec) for spec in LAYOUT_FIELDS}
    assert edges == {3: [63], 5: [15], 251: [1], 65537: [], 2**31 - 1: [4], 4: [85],
                     8: [51], 9: [21], 25: [3], 27: [10], 1024: [12], 2187: [3]}


@layout_fields
def test_mul_matches_schoolbook(spec):
    """kern.mul is the layout's one product: every pair of operand lengths
    0..3, random and all-(q - 1), and both sides of each width edge, where
    the all-(q - 1) square fills its middle block to the slot bound, so a
    slot one bit too narrow carries. The layout's width is the narrowest
    that holds the bound."""
    kern = kernel(spec)
    assert type(kern).mul is polyring._ListKernel.mul
    rng = random.Random(spec.q)
    top = spec.q - 1

    def draw(k):
        return [rng.randrange(spec.q) for _ in range(k)]

    cases = [([top] * la, [top] * lb) for la in range(4) for lb in range(4)]
    cases += [(draw(la), draw(lb)) for la in range(4) for lb in range(4)]
    for t in layout_edges(spec):
        cases += [([top] * t, [top] * t), ([top] * (t + 1), [top] * (t + 1)),
                  ([top] * (t + 1), [top] * (3 * t))]
        assert kern.layout(2 * t - 1, t)[0] == slot_bits(max(slot_bound_block(spec, t)))
        assert kern.layout(2 * t + 1, t + 1)[0] > kern.layout(2 * t - 1, t)[0]
    for a, b in cases:
        product = kern.mul(kern.pack(a), kern.pack(b))
        assert list(kern.unpack(product)) == ref_mul(spec, a, b), (len(a), len(b))


# extension fields whose Barrett layout for deg m = 2..6 crosses a width edge
# (GF(25) and GF(3^7) at deg m = 3 | 4) and ones that do not
PACKED_EXT_FIELDS = [FieldSpec.of_order(q) for q in (4, 8, 9, 25, 27, 1024, 2187)]


@pytest.mark.parametrize("spec", PACKED_EXT_FIELDS, ids=[f"q{s.q}" for s in PACKED_EXT_FIELDS])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_packed_modulus_over_extension_fields(spec, d):
    """The ring _modulus gives for a non-monic m of degree d is the packed
    one, and its product of two residues is kern.rem of the schoolbook
    product: the all-(q - 1) residue squared, which fills the product's
    middle block to the slot bound (a width edge at GF(25) and GF(3^7)),
    then random pairs, and pow against repeated mul."""
    kern = kernel(spec)
    rng = random.Random(spec.q * 10 + d)
    m = kern.pack([rng.randrange(spec.q) for _ in range(d)] + [rng.randrange(2, spec.q)])
    ring = polyring._modulus(kern, m)
    assert isinstance(ring, polyring._PackedModulus)
    residues = [[spec.q - 1] * d] + [[rng.randrange(spec.q) for _ in range(d)] for _ in range(4)]
    for x, y in zip(residues, residues[:1] + residues[2:] + residues[1:2]):
        expected = kern.unpack(kern.rem(kern.pack(ref_mul(spec, x, y)), m))
        product = ring.mul(ring.enter(kern.pack(x)), ring.enter(kern.pack(y)))
        assert kern.unpack(ring.leave(product)) == expected, (x, y)
    x, acc = ring.enter(kern.pack(residues[1])), ring.one
    for k in range(8):
        assert ring.pow(x, k) == acc, k
        acc = ring.mul(acc, x)
    assert kern.unpack(ring.leave(ring.one)) == (1,)


# -- Euclid on the kernels' forms --------------------------------------------


def ref_gcd(spec, a, b):
    """Monic gcd by Euclid's algorithm on ref_divmod."""
    a, b = strip(a), strip(b)
    while b:
        a, b = b, ref_divmod(spec, a, b)[1]
    inv = ref_inv(spec, a[-1])
    return [spec.mul_enc(c, inv) for c in a]


def ref_power(spec, x, k):
    out = 1
    for _ in range(k):
        out = spec.mul_enc(out, x)
    return out


def ref_resultant(spec, a, b):
    """Res(a, b) of nonzero a, b by the recurrences Res(a, c) = c^deg a for a
    constant c, Res(a, b) = (-1)^(deg a deg b) Res(b, a), and, for
    deg a >= deg b and r = a mod b, Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r), with Res(b, 0) = 0 for deg b > 0."""
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return ref_power(spec, a[0], db)
    if db == 0:
        return ref_power(spec, b[0], da)
    sign = spec.p - 1 if da * db % 2 else 1  # p - 1 encodes -1
    if da < db:
        return spec.mul_enc(sign, ref_resultant(spec, b, a))
    r = ref_divmod(spec, a, b)[1]
    if not r:
        return 0
    scale = ref_power(spec, b[-1], da - (len(r) - 1))
    return spec.mul_enc(sign, spec.mul_enc(scale, ref_resultant(spec, b, r)))


# GF(2) packed ints, and the slot forms of a prime and an extension field of
# each characteristic
EUCLID_FIELDS = [FieldSpec.of_order(q) for q in (2, 3, 5, 4, 9)]
euclid_fields = pytest.mark.parametrize("spec", EUCLID_FIELDS,
                                        ids=[f"q{spec.q}" for spec in EUCLID_FIELDS])


@euclid_fields
@examples
@given(data=st.data())
def test_gcd_and_resultant_match_reference_euclid(spec, data):
    """Random pairs, half of them sharing a drawn factor c."""
    a = coeffs(data.draw, spec, nonzero=True)
    b = coeffs(data.draw, spec, nonzero=True)
    if data.draw(st.booleans()):
        c = coeffs(data.draw, spec, max_deg=4, nonzero=True)
        a, b = ref_mul(spec, a, c), ref_mul(spec, b, c)
    pa, pb = Poly(spec, a), Poly(spec, b)
    assert list(gcd(pa, pb).coeff_encs) == ref_gcd(spec, a, b)
    assert resultant(pa, pb).enc == ref_resultant(spec, a, b)


@euclid_fields
def test_euclid_edge_cases(spec):
    """Remainders whose top slots are zero, constants on either side, coprime
    inputs and a shared factor."""
    kern = kernel(spec)
    b = [1, 1, 0, 1]  # t^3 + t + 1
    c = [spec.q - 1]  # a nonzero constant, not 1 unless q = 2
    cases = [(ref_add(spec, ref_mul(spec, b, [0, 0, 1]), [1]), b),  # a mod b = 1
             (ref_add(spec, ref_mul(spec, b, [1, 1]), [0, 1]), b),  # a mod b = t
             (c, b), (b, c), (c, [1]), ([0, 1], b),
             (ref_mul(spec, b, [1, 1]), ref_mul(spec, b, [0, 1]))]
    for a, b_ in cases:
        rem = kern.rem(kern.pack(a), kern.pack(b_))
        assert list(kern.unpack(rem)) == ref_divmod(spec, a, b_)[1]
        assert kern.degree(rem) == len(ref_divmod(spec, a, b_)[1]) - 1
        pa, pb = Poly(spec, a), Poly(spec, b_)
        assert list(gcd(pa, pb).coeff_encs) == ref_gcd(spec, a, b_), (a, b_)
        assert resultant(pa, pb).enc == ref_resultant(spec, a, b_), (a, b_)
    assert gcd(Poly(spec, cases[0][0]), Poly(spec, b)) == Poly.one(spec)
    assert gcd(Poly(spec, cases[-1][0]), Poly(spec, cases[-1][1])) == Poly(spec, b)
    assert resultant(Poly(spec, c), Poly(spec, b)).enc == ref_power(spec, c[0], 3)


# -- division and remainder sequences on the list kernel's form ---------------


def slot_interval(spec):
    return kernel(spec).interval


def test_slot_intervals():
    """Division steps between two reductions for each of LAYOUT_FIELDS: the
    terms the width of two terms holds, less one. GF(251) and GF(65537) never
    reduce within any division below."""
    assert {spec.q: slot_interval(spec) for spec in LAYOUT_FIELDS} == {
        3: 62, 5: 14, 251: 68718, 65537: 2**32 - 2, 2**31 - 1: 3, 4: 84, 8: 50, 9: 20,
        25: 2, 27: 9, 1024: 11, 2187: 2}


@layout_fields
def test_packed_divmod_matches_reference(spec):
    """All-(q - 1) operands, whose divisors are non-monic; random non-monic
    divisors of degree 0 to 12 with quotients of one
    coefficient up to 3 * interval + 2 (at most 64 where the interval is
    longer); the zero dividend and dividends below the divisor."""
    kern = kernel(spec)
    rng = random.Random(spec.q + 1)
    top = spec.q - 1
    longest = min(3 * slot_interval(spec) + 2, 64)

    def draw(k):
        return [rng.randrange(spec.q) for _ in range(k)]

    cases = [([top] * la, [top] * lb) for la, lb in
             [(1, 1), (2, 1), (5, 2), (8, 8), (20, 3), (40, 17), (longest + 4, 5)]]
    for lb in (1, 2, 5, 13):
        for span in sorted({1, 2, longest // 2, longest}):
            b = draw(lb - 1) + [rng.randrange(2, spec.q) if spec.q > 2 else 1]
            cases.append((draw(lb + span - 2) + [rng.randrange(1, spec.q)], b))
        cases += [([], b), (draw(lb - 1), b)]
    for a, b in cases:
        quot, rem = kern.divmod(kern.pack(a), kern.pack(b))
        assert (list(kern.unpack(quot)), list(kern.unpack(rem))) == ref_divmod(
            spec, strip(a), b), (len(a), len(b))
        assert kern.rem(kern.pack(a), kern.pack(b)) == rem


def fullest_division(spec, dy, span):
    """(x, y, quot) with every division step adding the most one product term
    can to each block of the remainder below its top: over GF(p) a step adds
    c * y for c the top coefficient times -1/lc(y), so y and c are all p - 1;
    otherwise it adds the top coefficient times -y/lc(y), so lc(y) = 1, the
    other coefficients of -y and the quotient are all q - 1. x is quot * y
    plus a remainder of all-(q - 1) coefficients."""
    top = spec.q - 1
    if spec.e == 1:
        y, quot = [top] * (dy + 1), [1] * span
    else:
        y, quot = ref_neg(spec, [top] * dy) + [1], [top] * span
    return ref_add(spec, ref_mul(spec, quot, y), [top] * dy), y, quot


# the fields whose interval is short enough to fill within a test
SHORT_INTERVAL_FIELDS = [s for s in LAYOUT_FIELDS if slot_interval(s) < 100]
short_interval_fields = pytest.mark.parametrize(
    "spec", SHORT_INTERVAL_FIELDS, ids=[f"q{s.q}" for s in SHORT_INTERVAL_FIELDS])


@short_interval_fields
def test_packed_division_fills_its_slots(spec):
    """A divisor of degree interval makes each chunk interval steps long, and
    fullest_division fills every slot of a chunk to interval terms on top
    of the dividend's: a step more than the width holds would carry. The
    quotient runs over two chunks and a partial third."""
    kern = kernel(spec)
    dy = slot_interval(spec)
    x, y, quot = fullest_division(spec, dy, 2 * dy + 3)
    got = kern.divmod(kern.pack(x), kern.pack(y))
    assert tuple(map(kern.unpack, got)) == (tuple(quot), (spec.q - 1,) * dy)


@short_interval_fields
def test_mul_in_the_form_up_to_its_width(spec):
    """kern.mul multiplies two forms as they are while the shorter has at
    most interval + 1 coefficients, the terms the form's width holds, and
    repacks them past that: all-(q - 1) factors whose shorter one has
    interval + 1 or interval + 2 coefficients fill their middle slots to
    the bound of that many terms, so a product in the form one term past
    its width carries. In characteristic 2 a carry out of an 8-bit slot is
    0 mod p there, and shows only in the canonical form."""
    kern = kernel(spec)
    top = spec.q - 1
    for short in (kern.interval + 1, kern.interval + 2):
        for long in (short, 2 * short + 1):
            a, b = [top] * short, [top] * long
            product, expected = kern.mul(kern.pack(a), kern.pack(b)), ref_mul(spec, a, b)
            assert list(kern.unpack(product)) == expected, (short, long)
            assert product == kern.pack(expected), (short, long)


@pytest.mark.parametrize("q", [3, 9])
def test_remainder_sequence_reuses_its_layouts(q):
    """A gcd of degree-1000 inputs runs about 1000 divisions on forms of
    falling length, whose layouts round the count up to a power of two: at
    most the 11 of 1, 2, 4, ..., 1024 coefficients, not one per length."""
    spec = FieldSpec.of_order(q)
    rng = random.Random(q + 4)
    a, b = (Poly(spec, [rng.randrange(q) for _ in range(1000)] + [1]) for _ in range(2))
    info = polyring._ListKernel.layout.cache_info
    before = info().misses
    g = gcd(a, b)
    assert info().misses - before <= 11
    assert (a % g).is_zero and (b % g).is_zero


def ref_mul_sparse(spec, a, b):
    """a * b by one shifted scalar multiple of a per nonzero coefficient of b."""
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                out[i + j] = spec.add_enc(out[i + j], spec.mul_enc(x, y))
    return strip(out)


@layout_fields
def test_packed_division_by_a_sparse_divisor(spec):
    """Phi_10(t^200) = t^800 - t^600 + t^400 - t^200 + 1 times a non-monic
    scalar divides a random dividend of degree 1000: the quotient and
    remainder satisfy x = quot * y + rem with deg rem < 800, which fixes both."""
    rng = random.Random(spec.q + 2)
    one, minus = 1, spec.neg_enc(1)
    scale = rng.randrange(2, spec.q) if spec.q > 2 else 1
    y = [0] * 801
    for j, c in zip(range(0, 801, 200), (one, minus, one, minus, one)):
        y[j] = spec.mul_enc(scale, c)
    x = [rng.randrange(spec.q) for _ in range(1000)] + [rng.randrange(1, spec.q)]
    quot, rem = divmod(Poly(spec, x), Poly(spec, y))
    assert rem.degree < 800
    assert ref_add(spec, ref_mul_sparse(spec, list(quot.coeff_encs), y),
                   list(rem.coeff_encs)) == x


def coprime_pair(spec, k, rng):
    """(u_k, u_(k-1)) for u_0 = 1, u_1 = t + a_0 and u_(i+1) = (t + a_i) u_i
    + b_i u_(i-1), b_i != 0: gcd(u_(i+1), u_i) = gcd(u_i, u_(i-1)) = 1, and
    Euclid takes k steps."""
    prev, cur = [1], [rng.randrange(spec.q), 1]
    for _ in range(k - 1):
        step = ref_mul(spec, [rng.randrange(spec.q), 1], cur)
        prev, cur = cur, ref_add(spec, step, ref_mul(spec, [rng.randrange(1, spec.q)], prev))
    return cur, prev


@layout_fields
def test_packed_gcd_of_degree_200(spec):
    """gcd(c * u, c * v) = c for a monic c of degree 200 and coprime u, v
    of degree 40 and 39 whose remainder sequence is 40 steps long, on forms
    of degree over 200, and the resultant of c * u and c * v is 0. Then
    gcds and resultants of random non-monic pairs and all-(q - 1) pairs
    against ref_gcd and ref_resultant."""
    rng = random.Random(spec.q + 3)

    def draw(k):
        return [rng.randrange(spec.q) for _ in range(k)] + [rng.randrange(1, spec.q)]

    c = draw(200)[:-1] + [1]
    u, v = coprime_pair(spec, 40, rng)
    a, b = Poly(spec, ref_mul(spec, c, u)), Poly(spec, ref_mul(spec, c, v))
    assert list(gcd(a, b).coeff_encs) == c
    assert resultant(a, b).enc == 0
    top = spec.q - 1
    for u, v in ((draw(9), draw(6)), ([top] * 8, [top] * 5), ([top] * 6, [1, 1])):
        assert resultant(Poly(spec, u), Poly(spec, v)).enc == ref_resultant(spec, u, v)
        assert list(gcd(Poly(spec, u), Poly(spec, v)).coeff_encs) == ref_gcd(spec, u, v)


@pytest.mark.parametrize("q", [3, 9])
def test_remainder_sequence_stays_packed(q, monkeypatch):
    """Building two inputs of degree over 200, taking their gcd or
    resultant and reading the gcd's coefficients packs each input once and
    reads once, whatever the length of the remainder sequence: every pack
    and read of the slot layout is counted, so a conversion per step would
    count dozens."""
    spec = FieldSpec.of_order(q)
    rng = random.Random(q)
    c = [rng.randrange(q) for _ in range(200)] + [1]
    u, v = coprime_pair(spec, 30, rng)
    counts = {"pack": 0, "read": 0}
    planes = polyring.digit_planes

    def counted(*args):
        pack, read = planes(*args)

        def counted_pack(encs):
            counts["pack"] += 1
            return pack(encs)

        def counted_read(x):
            counts["read"] += 1
            return read(x)

        return counted_pack, counted_read

    layout = polyring._ListKernel.layout
    layout.cache_clear()
    monkeypatch.setattr(polyring, "digit_planes", counted)
    try:
        g = gcd(Poly(spec, ref_mul(spec, c, u)), Poly(spec, ref_mul(spec, c, v)))
        assert list(g.coeff_encs) == c
        assert counts == {"pack": 2, "read": 1}
        counts.update(pack=0, read=0)
        res = resultant(Poly(spec, ref_mul(spec, c, u)), Poly(spec, u))
        assert counts == {"pack": 2, "read": 0}
    finally:
        layout.cache_clear()
    assert res.enc == 0
