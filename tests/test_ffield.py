import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F2, F3, F4, F5, F7, F8, F9
from ffdyn import DomainError, FieldSpec, Poly, parse_field_spec
from ffdyn.ffield import (digit_planes, digits, pack_slots, read_slots, reduce_slots, slot_bits,
                          slot_marks, undigits, zero_blocks)

SMALL_FIELDS = [F2, F3, F4, F5, F7, F8, F9]


def test_char2_addition():
    assert (F2.one + F2.one).enc == 0


def test_mod3_addition():
    assert (F3.element(2) + F3.element(2)).enc == 1


def test_f4_addition():
    u, u1 = F4.element(2), F4.element(3)
    assert (u + u1).enc == 1


def test_multiplication_examples():
    assert (F3.element(2) * F3.element(2)).enc == 1
    assert (F4.element(2) * F4.element(2)).enc == 3  # u*u = u+1, forced by modulus
    assert (F5.element(3) * F5.element(4)).enc == 2


def test_inverse_examples():
    assert F3.element(2).inverse().enc == 2
    assert F7.element(3).inverse().enc == 5
    assert F4.element(2).inverse().enc == 3
    assert F4.pow_enc(2, -1) == 3  # a negative power inverts first


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=lambda s: f"q{s.q}")
def test_field_axioms_exhaustive(spec):
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=lambda s: f"q{s.q}")
def test_frobenius_fixes_everything(spec):
    for a in spec.elements():
        assert a ** spec.q == a


def test_frobenius_sampled_larger_field():
    spec = FieldSpec(101)
    rng = random.Random(7)
    for _ in range(50):
        a = spec.element(rng.randrange(101))
        assert a ** spec.q == a


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=lambda s: f"q{s.q}")
def test_inverse_is_an_involution(spec):
    for a in spec.elements():
        if a.enc:
            assert a.inverse().inverse() == a
            assert (a * a.inverse()).enc == 1


def test_zero_and_one_are_identities():
    for spec in SMALL_FIELDS:
        for a in spec.elements():
            assert a + spec.zero == a
            assert a * spec.one == a


def test_mixed_field_operations_fail_fast():
    with pytest.raises(DomainError):
        F2.one + F3.one
    with pytest.raises(DomainError):
        F4.element(2) * F2.one


@pytest.mark.parametrize("q", [4, 9, 25, 27, 256, 1024, 2187])
def test_tables_match_digit_polynomials(q):
    """The add/neg/mul tables against the digit polynomials over GF(p),
    multiplied and reduced by the modulus in GF(p)[t]. GF(1024) and GF(2187)
    lie above the table limit, so their lookups compute on digits; every
    nonzero sample times its inverse is 1."""
    spec = FieldSpec.of_order(q)
    fp = FieldSpec(spec.p)
    modulus = Poly(fp, spec.modulus)

    def poly(a):
        return Poly(fp, spec.element(a).coeffs)

    def enc(f):
        return spec.element(f.coeff_encs).enc

    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    for a, b in pairs:
        assert spec.add_enc(a, b) == enc(poly(a) + poly(b))
        assert spec.sub_enc(a, b) == enc(poly(a) - poly(b))
        assert spec.neg_enc(a) == enc(-poly(a))
        assert spec.mul_enc(a, b) == enc(poly(a) * poly(b) % modulus)
        if a:
            assert spec.mul_enc(a, spec.inv_enc(a)) == 1


def test_spec_validation():
    with pytest.raises(DomainError):
        FieldSpec(4)
    with pytest.raises(DomainError):
        FieldSpec(2, 0)
    with pytest.raises(DomainError):
        FieldSpec(2, 2, (1, 0, 1))  # u^2+1 = (u+1)^2 over GF(2)
    with pytest.raises(DomainError):
        FieldSpec.of_order(6)
    with pytest.raises(DomainError):
        FieldSpec.of_order(1)


def test_default_moduli_are_deterministic():
    assert F4.modulus == (1, 1, 1)
    assert F8.modulus == (1, 1, 0, 1)
    assert F9.modulus == (1, 0, 1)
    # GF(256): the AES polynomial x^8 + x^4 + x^3 + x + 1
    assert FieldSpec.of_order(256).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert FieldSpec.of_order(27).modulus == (1, 2, 0, 1)
    assert FieldSpec.of_order(25).modulus == (2, 0, 1)


def test_spec_text_round_trip():
    for spec in SMALL_FIELDS:
        assert parse_field_spec(spec.spec_text) == spec
    assert parse_field_spec("q=4;p=2;e=2;mod=1,1,1") == F4
    assert parse_field_spec("q=3") == F3


def test_spec_text_any_consistent_part_names_the_field():
    assert parse_field_spec("q=4;e=2") == F4
    assert parse_field_spec("q=4;mod=1,1,1") == F4
    assert parse_field_spec("q=8;p=2") == F8
    assert parse_field_spec("q=9;p=3") == F9
    assert parse_field_spec("p=5") == F5
    assert parse_field_spec("q=9;mod=2,2,1") == FieldSpec(3, 2, (2, 2, 1)) != F9
    assert FieldSpec.of_order(p=2, e=3) == F8


def test_spec_text_inconsistency_rejected():
    for text in ("q=8;p=2;e=2;mod=1,1,1", "q=8;p=2;e=2", "q=9;p=9", "q=5;p=2",
                 "q=4;e=3", "p=2;e=0", "p=3;mod=9,9", "e=2", ""):
        with pytest.raises(DomainError) as exc:
            parse_field_spec(text)
        assert "\n" not in str(exc.value)


def test_spec_text_malformed_rejected():
    for text in ("q=4;p=2;e=x", "q=4;p=2;e=2;mod=1,x,1", "q", "q=2;x=3", "q=4;q=8",
                 "q=4;mod=1,1,1;mod=1,1,1", "q=2;Q=2"):
        with pytest.raises(DomainError) as exc:
            parse_field_spec(text)
        assert "\n" not in str(exc.value)


def test_field_orders_must_be_integers():
    for kwargs in ({"p": 2, "e": 2.0}, {"p": 2.0}, {"q": 4.0}, {"q": "4"}):
        with pytest.raises(DomainError) as exc:
            FieldSpec.of_order(**kwargs)
        assert "\n" not in str(exc.value)
    assert FieldSpec.of_order(q=np.int64(9)) == F9
    assert type(FieldSpec.of_order(p=np.int64(3)).p) is int


def test_field_constructor_takes_only_integers():
    for args in ((2, 2.0), (3.0,), ("3",), (2, None)):
        with pytest.raises(DomainError) as exc:
            FieldSpec(*args)
        assert "\n" not in str(exc.value)
    spec = FieldSpec(np.int64(3), np.int32(2))
    assert spec == F9 and hash(spec) == hash(F9)
    assert type(spec.p) is int and type(spec.e) is int


def test_field_orders_are_not_bools():
    """bool is an int subclass, so operator.index(True) is 1: without a
    check FieldSpec(2, True) would be GF(2)."""
    for make in (lambda: FieldSpec(2, True), lambda: FieldSpec(True),
                 lambda: FieldSpec.of_order(p=3, e=True), lambda: FieldSpec.of_order(q=False)):
        with pytest.raises(DomainError, match="must be an integer") as exc:
            make()
        assert "\n" not in str(exc.value)


def test_default_modulus_is_searched_once(monkeypatch):
    from ffdyn import ffield
    calls = []
    rabin = ffield._is_irreducible
    monkeypatch.setattr(ffield, "_is_irreducible",
                        lambda mod, p: calls.append(mod) or rabin(mod, p))
    ffield._default_modulus.cache_clear()
    FieldSpec.of_order(256)
    searched = len(calls)
    assert FieldSpec.of_order(256).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert searched > 0 and len(calls) == searched


def test_element_coercion_and_bounds():
    assert F4.element([0, 1]).enc == 2
    assert F4.element(F4.element(3)).enc == 3
    with pytest.raises(DomainError):
        F2.element(2)
    with pytest.raises(DomainError):
        F3.element(-1)


def test_element_takes_integer_likes_and_integer_digits_only():
    assert F9.element(np.int64(1)).enc == 1
    assert F9.element([np.int64(1), 2]).enc == 7
    for bad in ([1.7, 2], 1.5, "ab"):
        with pytest.raises(DomainError) as exc:
            F9.element(bad)
        assert "\n" not in str(exc.value)


def test_elements_are_hashable_and_comparable():
    seen = {a for a in F9.elements()}
    assert len(seen) == 9
    assert F9.element(4) in seen
    # an element hashes like the int it equals
    assert F2.one == 1 and len({F2.one, 1}) == 1
    assert {1: "x"}.get(F2.one) == "x"
    assert {F9.element(5): "y"}[5] == "y"
    assert F4.element(2) != F9.element(2)  # equal hashes, different fields


@pytest.mark.parametrize("q", [2, 3, 4, 9, 2**10])
def test_operators_match_the_encoded_ops(q):
    """Each FieldElem operator, the int forms included, is the matching
    *_enc op; GF(2^10) runs the computing lookups above 512 elements."""
    spec = FieldSpec.of_order(q)
    rng = random.Random(q)
    encs = sorted({0, 1, q - 1, *(rng.randrange(q) for _ in range(6))})
    for a in encs:
        x = spec.element(a)
        assert -x == spec.neg_enc(a)
        assert x ** 5 == spec.pow_enc(a, 5)
        assert bool(x) is (a != 0)
        assert x == a and x != q and x != -1 and x != "a"
        assert str(x) == str(a) and repr(x) == f"FieldElem({a} in GF({q}))"
        for b in encs:
            y = spec.element(b)
            assert x + y == x + b == b + x == spec.add_enc(a, b)
            assert x - y == x - b == spec.sub_enc(a, b)
            assert b - x == spec.sub_enc(b, a)
            assert x * y == x * b == b * x == spec.mul_enc(a, b)
            if b:
                assert x / y == x / b == spec.mul_enc(a, spec.inv_enc(b))
                assert (x / y) * y == x
        assert x * Poly(spec, (1, q - 1)) == Poly(spec, (a, spec.mul_enc(a, q - 1)))
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            x / spec.zero
        other = F5.one
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(DomainError):
                op(x, other)


# -- the digit codec ------------------------------------------------------------


def _ref_digits(value, base, width):
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return out


@pytest.mark.parametrize("base", [2, 3, 16, 36, 37, 256])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_digits_round_trip_keeps_the_low_digits(base, data):
    width = data.draw(st.integers(0, 70))
    value = data.draw(st.integers(0, base ** (width + 2)))  # often >= base^width
    ds = digits(value, base, width)
    assert list(ds) == _ref_digits(value, base, width)
    assert undigits(ds, base) == value % base**width
    assert undigits(list(ds) + [0, 0], base) == value % base**width


@pytest.mark.parametrize("base", [2, 3, 16, 32])
def test_long_digit_lists_round_trip(base):
    # longer than the 4300 digits int() parses in a base that is not 2^k
    rng = random.Random(base)
    ds = [rng.randrange(base) for _ in range(6000)]
    assert undigits(ds, base) == sum(d * base**i for i, d in enumerate(ds))
    assert digits(undigits(ds, base), base, 6000) == tuple(ds)


@pytest.mark.parametrize("w", [8, 16, 32, 64])
@pytest.mark.parametrize("base", [2, 3, 4, 16, 32])
def test_slots_read_back_through_undigits(w, base):
    """read_slots gives bytes at 8 bits and an array of wide items at 16 to
    64; undigits must read the array's values, not its raw buffer."""
    rng = random.Random(w * base)
    for ds in ([0, 1, 1, 0], [base - 1] * 5, [rng.randrange(base) for _ in range(30)]):
        slots = read_slots(pack_slots(ds, w), len(ds), w)
        value = sum(d * base**i for i, d in enumerate(ds))
        assert undigits(slots, base) == undigits(ds, base) == value
        assert undigits(slots[1:3], base) == ds[1] + ds[2] * base
    assert undigits(read_slots(pack_slots([0, 1, 1, 0], 16), 4, 16), 2) == 6


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8), (2, 9),
                                 (3, 6)])
def test_digit_planes_lay_out_each_digit(p, e, w):
    """Digit i of element j sits in slot j * stride + i, the other slots
    zero, on the byte path (q <= 256) and element by element above it; a
    short list fills the remaining elements with zeros."""
    q, stride = p**e, 2 * e - 1
    rng = random.Random(q * w)
    for count in (1, 2, 9):
        pack, read = digit_planes(p, e, count, stride, w)
        for encs in ([q - 1] * count, [rng.randrange(q) for _ in range(count)],
                     [rng.randrange(q) for _ in range(count - 1)]):
            slots = [0] * (count * stride)
            for j, v in enumerate(encs):
                slots[j * stride:j * stride + e] = digits(v, p, e)
            x = pack(encs)
            assert x == pack_slots(slots, w)
            assert read(x) == tuple(encs) + (0,) * (count - len(encs))


def test_slot_bits_at_each_width():
    for w in (8, 16, 32, 64, 128):
        assert slot_bits(2**w - 1) == w
        assert slot_bits(2**w) == 2 * w
    assert slot_bits(0) == 8


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_slots_round_trip(w, data):
    values = data.draw(st.lists(st.integers(0, 2**w - 1), max_size=40))
    x = pack_slots(values, w)
    assert x == sum(v << i * w for i, v in enumerate(values))
    assert list(read_slots(x, len(values), w)) == values
    top = [2**w - 1] * 3
    assert list(read_slots(pack_slots(top, w), 3, w)) == top


def test_bit_slots_read_the_low_bits():
    assert read_slots(0b1101101, 6, 1) == (1, 0, 1, 1, 0, 1)
    assert slot_marks(0b1101101, 6, 1, 2) == "101101"


@pytest.mark.parametrize("w, p", [(w, p) for w in (8, 16, 32, 64) for p in (3, 5, 7, 251, 65537)]
                         + [(16, 257)])
def test_reduce_slots_and_marks(w, p):
    """Byte folding for p < 256 (a translate at 8 bits), slot by slot for
    wider p: both give v % p in every slot, from the empty slot to the full
    one."""
    rng = random.Random(w * p)
    values = [rng.randrange(2**w) for _ in range(50)] + [v for v in (0, p - 1, p, 2**w - 1)
                                                         if v < 2**w]
    x = pack_slots(values, w)
    assert list(read_slots(reduce_slots(x, len(values), w, p), len(values), w)) == \
        [v % p for v in values]
    assert slot_marks(x, len(values), w, p) == "".join("01"[v % p != 0] for v in values)


@pytest.mark.parametrize("w, p", [(1, 2), (8, 3), (8, 251), (16, 5), (32, 7)])
def test_zero_blocks_flag_each_block_in_run_order(w, p):
    """Runs of blocks of 1, 2, 3, 5 and 8 slots (the folds of each width
    share a mask) give one flag per block, run after run: 1 where every
    slot of the block is zero mod p, so a zero slot or a multiple of p
    elsewhere in the block does not flag it."""
    rng = random.Random(w * p)
    runs, at = [], 0
    for blk, count in ((1, 3), (2, 2), (3, 4), (5, 1), (8, 3)):
        runs.append((at, at + blk * count, blk))
        at += blk * count
    read = zero_blocks(at, w, p, runs)
    blocks = [range(a + i, a + i + blk) for a, b, blk in runs for i in range(0, b - a, blk)]
    for _ in range(200):
        zero = {k for k in range(len(blocks)) if rng.random() < 0.4}
        values = [0] * at
        for k, block in enumerate(blocks):
            for i in block:
                values[i] = (rng.choice([0, p]) if p < 2**w else 0) if k in zero \
                    else rng.randrange(min(2**w, 4 * p))
        got = read(pack_slots(values, w) if w > 1 else undigits(values, 2))
        assert got == tuple(int(all(values[i] % p == 0 for i in block)) for block in blocks)

