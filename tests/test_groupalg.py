import random
from functools import partial

import pytest

from conftest import F2, F3, F4, F5, F7, F9, all_seqs, seq
from ffdyn import DomainError, FieldSpec, Poly, groupalg
from ffdyn.errors import DegenerateOperatorError
from ffdyn.groupalg import (CyclicSeq, DiffOperator, apply_op, build_operator,
                            delta, delta_operator, delta_poly,
                            linear_images, parse_seq, poly_to_seq, seq_from_json,
                            seq_text, seq_to_json, seq_to_poly, seq_valuations,
                            valuation_map)
from ffdyn.polyring import _order_prime_power, crt_split, t_pow_minus_one

GF729 = FieldSpec.of_order(3**6)  # above the table limit: one field call per lookup
F251, F257 = FieldSpec(251), FieldSpec(257)
P61 = FieldSpec(2**61 - 1)  # a 61-bit prime


def rand_seq(spec, n, rng):
    return CyclicSeq(spec, [rng.randrange(spec.q) for _ in range(n)])


def rand_operator(spec, n, rng):
    while True:
        coeffs = [rng.randrange(spec.q) for _ in range(rng.randrange(1, n + 2))]
        if not any(coeffs):
            continue
        try:
            return build_operator(spec, n, coeffs)
        except DegenerateOperatorError:
            continue  # nilpotent combination collapsed to the zero map


# -- sequence <-> polynomial -------------------------------------------------


def test_seq_to_poly_delta_function():
    assert seq_to_poly(seq(F2, 1, 0, 0)) == Poly(F2, [0, 1])


def test_seq_to_poly_all_ones():
    assert seq_to_poly(seq(F2, 1, 1, 1)) == Poly(F2, [1, 1, 1])


def test_seq_to_poly_legendre_n5():
    assert seq_to_poly(seq(F2, 0, 1, 1, 0, 0)) == Poly(F2, [0, 0, 1, 1])


def test_poly_round_trip_exhaustive_small():
    for spec, n in [(F2, 5), (F3, 3), (F4, 2)]:
        for f in all_seqs(spec, n):
            assert poly_to_seq(spec, n, seq_to_poly(f)) == f


def test_poly_to_seq_rejects_high_degree():
    with pytest.raises(DomainError):
        poly_to_seq(F2, 2, Poly(F2, [1, 0, 1]))
    with pytest.raises(DomainError):
        poly_to_seq(F2, 3, Poly(F3, [1, 0, 1]))


def test_cyclic_accessor_wraps():
    f = seq(F3, 1, 2, 0)
    assert f.value(0) == f.value(3)
    assert f.value(4) == f.value(1)
    assert f.value(1).enc == 1


# -- the difference map ---------------------------------------------------------


def test_delta_of_constant_is_zero():
    for spec in (F2, F3, F4):
        c = spec.q - 1
        assert delta(CyclicSeq(spec, (c,) * 4)).is_zero


def test_delta_examples():
    assert delta(seq(F2, 1, 0, 0)).value_encs == (1, 0, 1)
    assert delta(seq(F3, 1, 2, 0)).value_encs == (1, 1, 1)


def test_operator_rejects_nonpositive_length():
    for n in (0, -2):
        with pytest.raises(DomainError, match="n must be >= 1"):
            delta_operator(F2, n)
        with pytest.raises(DomainError, match="n must be >= 1"):
            build_operator(F3, n, [1])


def test_delta_equals_operator_action_exhaustive():
    # the canonical multiplier t^(n-1) - 1 reproduces the componentwise
    # difference map on every state space up to 2^12
    from ffdyn import FieldSpec
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = FieldSpec.of_order(q)
        n = 2
        while q**n <= 2**12:
            D = delta_operator(spec, n)
            for f in all_seqs(spec, n):
                assert apply_op(D, f) == delta(f)
            n += 1


def test_delta_linearity():
    rng = random.Random(9)
    for spec in (F3, F4):
        for _ in range(30):
            n = rng.randrange(2, 7)
            f, g = rand_seq(spec, n, rng), rand_seq(spec, n, rng)
            a, b = spec.element(rng.randrange(spec.q)), spec.element(rng.randrange(spec.q))
            combo = CyclicSeq(spec, [a * x + b * y for x, y in zip(f.values, g.values)])
            expect = CyclicSeq(spec, [a * x + b * y
                                      for x, y in zip(delta(f).values, delta(g).values)])
            assert delta(combo) == expect


# -- operators --------------------------------------------------------------------


def test_build_operator_delta_itself():
    for spec, n in [(F2, 5), (F3, 4)]:
        D = build_operator(spec, n, [1])
        assert D.op_poly == delta_poly(spec, n)


def test_build_operator_delta_squared():
    D = build_operator(F2, 3, [0, 1])
    assert D.op_poly == (delta_poly(F2, 3) ** 2) % t_pow_minus_one(F2, 3)
    f = seq(F2, 1, 0, 0)
    assert apply_op(D, f) == delta(delta(f))
    assert apply_op(D, f).value_encs == (1, 1, 0)


def test_build_operator_f3_combination():
    D = build_operator(F3, 4, [1, 0, 1])
    dp = delta_poly(F3, 4)
    m = t_pow_minus_one(F3, 4)
    assert D.op_poly == (dp + (dp * dp * dp) % m) % m
    assert D.op_poly(F3.one).enc == 0


def test_build_operator_all_zero_rejected():
    with pytest.raises(DegenerateOperatorError):
        build_operator(F2, 4, [0, 0, 0])


def test_operator_polynomial_must_vanish_at_one():
    with pytest.raises(DomainError):
        DiffOperator(F3, 3, Poly(F3, [1, 1]))  # 1 + t has value 2 at t=1


def test_nilpotent_combination_collapsing_to_zero_rejected():
    # Delta^2 is the zero map on length-2 sequences over GF(2)
    with pytest.raises(DegenerateOperatorError):
        build_operator(F2, 2, [0, 1])


def test_operator_extensional_equality():
    a = build_operator(F2, 5, [1, 1])
    b = DiffOperator(F2, 5, a.op_poly)
    assert a == b and hash(a) == hash(b)


def test_delta_built_two_ways_is_one_operator():
    # the hash is fixed at construction; equal operators must share it
    for spec, n in [(F2, 7), (F3, 6), (F4, 5), (F9, 4), (GF729, 3)]:
        a, b = delta_operator(spec, n), build_operator(spec, n, [1])
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_apply_op_zero_sequence():
    rng = random.Random(4)
    for spec, n in [(F2, 5), (F3, 4)]:
        D = rand_operator(spec, n, rng)
        assert apply_op(D, CyclicSeq(spec, (0,) * n)).is_zero


def test_apply_op_dimension_mismatch():
    D = delta_operator(F2, 3)
    with pytest.raises(DomainError):
        apply_op(D, seq(F2, 1, 0, 0, 1))
    with pytest.raises(DomainError):
        apply_op(D, seq(F3, 1, 0, 0))


def test_ring_homomorphism_property():
    rng = random.Random(29)
    for spec in (F2, F3, F4):
        for _ in range(30):
            n = rng.randrange(2, 7)
            D = rand_operator(spec, n, rng)
            f = rand_seq(spec, n, rng)
            lhs = seq_to_poly(apply_op(D, f))
            rhs = (D.op_poly * seq_to_poly(f)) % t_pow_minus_one(spec, n)
            assert lhs == rhs


def test_image_lies_in_zero_sum_subspace():
    rng = random.Random(31)
    for spec in (F2, F3, F4):
        for _ in range(30):
            n = rng.randrange(2, 7)
            D = rand_operator(spec, n, rng)
            f = rand_seq(spec, n, rng)
            total = spec.zero
            for v in apply_op(D, f).values:
                total = total + v
            assert total.enc == 0


# -- CRT split ---------------------------------------------------------------------


def test_crt_split_examples():
    def records(spec, n):
        return [(str(c.pi), c.e, c.m, c.d) for c in crt_split(spec, n)]

    assert records(F2, 3) == [("1,1", 1, 1, 1), ("1,1,1", 1, 3, 2)]
    assert records(F2, 2) == [("1,1", 2, 1, 1)]
    assert records(F3, 4) == [("1,1", 1, 2, 1), ("2,1", 1, 1, 1), ("1,0,1", 1, 4, 2)]


def test_crt_split_reconstruction():
    for spec, n in [(F2, 12), (F3, 9), (F4, 6), (F2, 7)]:
        prod = Poly.one(spec)
        for c in crt_split(spec, n):
            prod = prod * c.pi**c.e
        assert prod == t_pow_minus_one(spec, n)


def test_crt_split_squarefree_when_p_coprime():
    for spec, n in [(F2, 9), (F3, 8), (F4, 5)]:
        assert all(c.e == 1 for c in crt_split(spec, n))


# -- component valuations ---------------------------------------------------------


def _repeated_division(r, n):
    """Reference: divide r by each pi of crt_split until a remainder is
    nonzero, at most e times."""
    out = []
    for c in crt_split(r.spec, n):
        rest, v = r, 0
        while v < c.e:
            quot, rem = divmod(rest, c.pi)
            if not rem.is_zero:
                break
            rest, v = quot, v + 1
        out.append(v)
    return tuple(out)


# p divides n in (F2, 96), (F3, 81), (F3, 12), (F5, 50), (F4, 6), (F9, 6),
# (GF729, 6) and (GF729, 12). The packed GF(2^e) state is not a whole number
# of byte chunks in (F2, 15), (F2, 255), (F2, 257) and (F4, 63). Byte
# slots hold the largest sum up to (F3, 127) and (F5, 63), and (F3, 128) and
# (F5, 64) need two bytes. p = 251 still has a table per value, p = 257 and
# the 61-bit prime multiply columns, and GF(729) reads its digits.
VALUATION_CASES = [(F2, 15), (F2, 255), (F2, 257), (F2, 96), (F3, 80), (F3, 81),
                   (F3, 12), (F3, 127), (F3, 128), (F5, 12), (F5, 50), (F5, 63),
                   (F5, 64), (F4, 63), (F4, 6), (F9, 40), (F9, 6), (F251, 4),
                   (F251, 6), (F257, 4), (F257, 6), (P61, 4), (P61, 6),
                   (GF729, 7), (GF729, 6), (GF729, 12)]


@pytest.mark.parametrize("spec, n", [(F2, 1), (F2, 255), (F2, 96), (F3, 80), (F3, 81),
                                     (F4, 63), (F9, 40), (F7, 24)])
def test_valuation_map_spans_follow_crt_split(spec, n):
    """Each component's slots follow the previous component's, in
    crt_split order: e digit blocks of d * (field degree) slots each, so
    the shapes' strided slices read the components in that order."""
    vmap = valuation_map(spec, n)
    at = 0
    for (a, b, blk, e), c in zip(vmap.spans, crt_split(spec, n), strict=True):
        assert (a, b, blk, e) == (at, at + c.d * spec.e * c.e, c.d * spec.e, c.e)
        at = b
    assert at == vmap.size == n * spec.e


@pytest.mark.parametrize("spec, n", VALUATION_CASES,
                         ids=[f"GF{s.q}-n{n}" for s, n in VALUATION_CASES])
def test_component_valuations_match_repeated_division(spec, n):
    """The valuation map, read on a residue's coefficients and on its
    sequence's values, against dividing by each pi."""
    rng = random.Random(n)
    modulus = t_pow_minus_one(spec, n)
    factors = crt_split(spec, n)
    read = valuation_map(spec, n).read
    zero = tuple(c.e for c in factors)
    assert read(Poly.zero(spec).coeff_encs) == zero
    assert seq_valuations(CyclicSeq(spec, (0,) * n)) == zero
    for i, c in enumerate(factors):
        g = Poly(spec, [rng.randrange(spec.q) for _ in range(n)])
        for j in range(c.e + 1):
            r = (c.pi**j * g) % modulus
            vals = read(r.coeff_encs)
            assert vals == _repeated_division(r, n)
            assert vals[i] >= j
            # the per-state route reads the same residue off its values
            assert seq_valuations(poly_to_seq(spec, n, r)) == vals
    # the per-component route reads an element of degree >= n as its
    # residue mod t^n - 1
    assert tuple(_order_prime_power(g + modulus * g, c.pi, c.e)[0]
                 for c in factors) == read(g.coeff_encs)


# (field, n, input digits per table, bits per slot, tables or columns)
LAYOUTS = [(F2, 255, 8, 1, True), (F4, 63, 8, 1, True), (F2, 511, 8, 1, True),
           (F2, 513, 4, 1, True), (F3, 127, 1, 8, True),
           (F3, 128, 1, 16, True), (F5, 63, 1, 8, True), (F5, 64, 1, 16, True),
           (F9, 40, 2, 8, True), (F251, 6, 1, 16, True), (F257, 6, 1, 32, False),
           (P61, 6, 1, 128, False), (GF729, 6, 6, 8, False),
           (F2, 2003, 4, 1, False), (F4, 1021, 4, 1, False)]


@pytest.mark.parametrize("spec, n, chunk, bits, tabled", LAYOUTS,
                         ids=[f"GF{s.q}-n{n}" for s, n, *_ in LAYOUTS])
def test_valuation_map_layout_and_table_cap(spec, n, chunk, bits, tabled):
    layout = groupalg._read_layout(spec, n)
    assert layout[:2] == (chunk, bits)
    assert (layout[2] > 0) == tabled
    assert layout[2] <= groupalg._TABLE_BYTES
    if n < 300:  # the large ones cost a factorization of t^n - 1
        vmap = groupalg._ValuationMap(spec, n)  # a private map: no earlier reads
        values = rand_seq(spec, n, random.Random(n)).value_encs
        by_columns = [vmap.read(values) for _ in range(2)]
        assert vmap.tables is None
        assert vmap.read(values) == by_columns[0]  # the third read builds the tables
        if tabled:  # the tables built are the ones the layout sized
            assert sum(map(len, vmap.tables)) * -(-vmap.size * vmap.w // 8) == layout[2]
            assert max(map(len, vmap.tables)) <= 256
        else:
            assert vmap.tables is None


def test_first_per_state_read_builds_no_tables():
    """A map's first two reads (one or two states, as a fresh (q, n)
    makes) go by columns; the third builds the tables, and both agree."""
    vmap = groupalg._ValuationMap(F3, 80)
    rng = random.Random(5)
    states = [rand_seq(F3, 80, rng).value_encs for _ in range(4)]
    by_columns = [vmap.read(v) for v in states[:2]]
    assert vmap.tables is None
    by_tables = [vmap.read(v) for v in states]
    assert vmap.tables is not None
    assert by_tables[:2] == by_columns
    fresh = groupalg._ValuationMap(F3, 80)
    assert [fresh.read(v) for v in states[2:]] == by_tables[2:]
    assert fresh.tables is None


def test_interrupted_table_build_keeps_no_partial_tables(monkeypatch):
    vmap = groupalg._ValuationMap(F3, 80)  # a private map, not the cached one
    values = rand_seq(F3, 80, random.Random(3)).value_encs
    by_columns = [vmap.read(values) for _ in range(2)]  # the first two reads
    calls, reduce_slots = 0, groupalg.reduce_slots

    def failing(x, count, w, p):
        nonlocal calls
        calls += 1
        if calls > 100:  # part way through the 80 tables
            raise MemoryError
        return reduce_slots(x, count, w, p)

    monkeypatch.setattr(groupalg, "reduce_slots", failing)
    with pytest.raises(MemoryError):
        vmap.read(values)
    assert vmap.tables is None
    monkeypatch.undo()
    assert vmap.read(values) == by_columns[0] == _repeated_division(
        seq_to_poly(CyclicSeq(F3, values)), 80)
    assert vmap.tables is not None


# -- the GF(p)-linear block kernel ------------------------------------------------


def _images_by_enumeration(p, basis):
    """Reference: the image digits of every state, one state at a time."""
    out = []
    for s in range(p ** len(basis)):
        digits = [s // p**j % p for j in range(len(basis))]
        out.append(tuple(sum(d * row[k] for d, row in zip(digits, basis)) % p
                         for k in range(len(basis[0]))))
    return out


# (p, digits per state, digits per image, block): tiny blocks run several
# blocks and carry through the high digits; p = 251 and 257 at two digits
# straddle the uint16 plane dtype and the 2^16-state block. Extension fields
# reach the kernel through successor_array and the census.
LINEAR_CASES = [(2, 6, 4, 4), (2, 5, 3, 1), (3, 4, 5, 5), (3, 5, 2, 9),
                (5, 3, 3, 30), (7, 3, 2, 1 << 16), (251, 2, 2, 1 << 16),
                (257, 2, 3, 1 << 16), (257, 2, 1, 300)]


@pytest.mark.parametrize("p, n_digits, m_digits, block", LINEAR_CASES)
def test_linear_images_match_enumeration(p, n_digits, m_digits, block,
                                         monkeypatch):
    monkeypatch.setattr(groupalg, "_BLOCK", block)
    rng = random.Random(p * 1000 + n_digits)
    basis = [[rng.randrange(p) for _ in range(m_digits)] for _ in range(n_digits)]
    if p > 200:
        basis[0] = [p - 1] * m_digits  # the largest digit sums
    got = []
    blocks = 0
    for planes in linear_images(p, basis):
        assert planes.shape[0] == m_digits and planes.shape[1] <= block
        got += [tuple(int(d) for d in col) for col in planes.T]
        blocks += 1
    assert (blocks > 1) == (p**n_digits > block)
    assert got == _images_by_enumeration(p, basis)


# -- text / JSON -----------------------------------------------------------------


def test_seq_text_round_trip():
    f = seq(F2, 0, 1, 1, 0, 0)
    assert seq_text(f) == "q=2 n=5 0,1,1,0,0"
    assert parse_seq(seq_text(f)) == f


def test_seq_text_round_trip_extension_field():
    f = seq(F4, 1, 2, 3)
    assert parse_seq(seq_text(f)) == f


def test_parse_seq_extension_field_modulus():
    # an omitted modulus takes the default, a given one is kept
    assert parse_seq("q=9;p=3;e=2 n=2 1,2") == seq(F9, 1, 2)
    f = parse_seq("q=9;p=3;e=2;mod=2,2,1 n=2 1,2")
    assert f.spec.modulus == (2, 2, 1)
    assert f.value_encs == (1, 2)


def test_seq_json_round_trip():
    f = seq(F3, 1, 2, 0)
    data = seq_to_json(f)
    assert data == {"q": 3, "n": 3, "values": [1, 2, 0]}
    assert seq_from_json(data) == f


def test_parse_seq_length_mismatch():
    with pytest.raises(DomainError):
        parse_seq("q=2 n=3 1,0")


def test_parse_seq_rejects_malformed_text():
    cases = [partial(parse_seq, text) for text in
             ("q=2 x n=3 1,0,1", "q=a n=3 1,0,1", "q=2 n=3 1,a,1", "q=2 n=x 1,0,1",
              "q=2 n=3 x=1 1,0,1")]
    cases += [partial(seq_from_json, data) for data in
              ({"values": [1]}, {"q": 2}, [1, 0], "{", {"field": "q=2;bogus=1", "values": [1]},
               {"q": 2, "values": ["a"]}, {"q": 2, "values": [None]},
               {"q": 2, "values": 5}, {"q": 2, "values": [1.5]})]
    cases.append(partial(Poly.from_text, F2, "1,x"))
    for case in cases:
        with pytest.raises(DomainError) as exc:
            case()
        assert "\n" not in str(exc.value)
