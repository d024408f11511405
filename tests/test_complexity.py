import random
from fractions import Fraction

import pytest

from conftest import F2, F3, F4, F5, F7, F8, F9, all_seqs, seq
from ffdyn import DomainError, FieldSpec, Poly, complexity, dynamics, polyring
from ffdyn.complexity import (_census_count, census, classify, d_complicated_gcd,
                              d_complicated_oracle, eigen_product,
                              is_delta1, is_delta2, operator_family,
                              projection_profile, quota)
from ffdyn.dynamics import (max_period, max_preperiod, orbit_brute, orbit_from_valuations,
                            orbit_table, period_masks)
from ffdyn.errors import ResourceLimitError
from ffdyn.groupalg import CyclicSeq, delta_operator, poly_to_seq, seq_to_poly, seq_valuations
from ffdyn.polyring import crt_split, t_pow_minus_one
from ffdyn.seqgen import legendre_seq
from ffdyn.verify import thm2_suite, thm3_suite


# -- projection profiles -----------------------------------------------------


def test_projection_profile_all_ones():
    prof = projection_profile(seq(F2, 1, 1, 1))
    by_factor = {str(e.factor): e for e in prof.entries}
    assert by_factor["1,1,1"].nonzero is False
    assert by_factor["1,1"].nonzero is True
    assert by_factor["1,1"].is_sum_component


def test_projection_profile_zero_sequence():
    prof = projection_profile(seq(F2, 0, 0, 0))
    assert all(not e.nonzero for e in prof.entries)


def test_projection_profile_legendre_n5():
    prof = projection_profile(legendre_seq(F2, 5))
    for e in prof.entries:
        if e.is_sum_component:
            assert not e.nonzero  # f~(1) = 0
        else:
            assert e.factor.degree == 4 and e.nonzero


def test_projection_profile_names_one_sum_component():
    """t - 1 alone is the sum component, also where every factor is linear
    (GF(5), n = 4) and where p | n (GF(3), n = 6; GF(2), n = 4)."""
    for spec, n in [(F5, 4), (F3, 6), (F4, 3), (F2, 4)]:
        prof = projection_profile(seq(spec, 1, *[0] * (n - 1)))
        sums = [e.factor for e in prof.entries if e.is_sum_component]
        assert sums == [Poly(spec, [spec.neg_enc(1), 1])], (spec.q, n)


# -- the D-complexity classifiers -----------------------------------------------


def test_delta_function_is_d_complicated():
    v = classify(seq(F2, 1, 0, 0))
    assert v.is_d_complicated and v.is_delta1 and v.is_delta2
    assert v.method == "lemma1-gcd" and v.witness is None


def test_all_ones_is_not_d_complicated():
    v = classify(seq(F2, 1, 1, 1))
    assert not v.is_d_complicated
    assert v.witness == Poly(F2, [1, 1, 1])


def test_legendre_n5_is_d_complicated():
    assert classify(legendre_seq(F2, 5)).is_d_complicated


def test_zero_sequence_verdict():
    v = classify(seq(F2, 0, 0, 0))
    assert not v.is_d_complicated
    assert not v.is_delta2  # period 1 < maximal period 3


def test_delta1_delta2_examples():
    assert is_delta1(seq(F2, 1, 0, 0)) and is_delta2(seq(F2, 1, 0, 0))
    assert not is_delta2(seq(F2, 0, 0, 0))
    assert not is_delta2(CyclicSeq(F2, (1,) * 5))


def test_oracle_matches_gcd_criterion_exhaustively():
    for spec, n in [(F2, 3), (F3, 2)]:
        for f in all_seqs(spec, n):
            assert d_complicated_oracle(f) == d_complicated_gcd(f)


def test_oracle_rejects_oversized_enumerations():
    with pytest.raises(ResourceLimitError):
        d_complicated_oracle(seq(F2, 1, 0, 0), op_cap=2)
    with pytest.raises(ResourceLimitError):
        d_complicated_oracle(seq(F2, 1, 0, 0), state_cap=4)


def test_operator_family_size():
    for spec, n in [(F2, 3), (F2, 5), (F3, 3), (F5, 2)]:
        ops = list(operator_family(spec, n))
        assert len(ops) == spec.q ** (n - 1) - 1
        assert len({D.op_poly for D in ops}) == len(ops)
        for D in ops:
            assert D.op_poly(spec.one).enc == 0


def test_classify_uses_oracle_when_p_divides_n():
    v = classify(seq(F2, 1, 0))
    assert v.method == "brute-force-oracle"
    # n=2 over GF(2): the only operator is Delta itself (nilpotent), so the
    # maximal period is 1 and every sequence reaches it
    assert v.is_d_complicated == d_complicated_oracle(seq(F2, 1, 0))


def test_warm_classify_divides_nothing(monkeypatch):
    # the per-state path reads valuations off one linear map: once the
    # field's factorization, unit orders and map exist, classify must not
    # fall back to polynomial division
    rng = random.Random(5)
    states = []
    for spec, n in [(F3, 80), (F4, 63)]:
        fs = [CyclicSeq(spec, [rng.randrange(spec.q) for _ in range(n)]) for _ in range(20)]
        fs.append(CyclicSeq(spec, (0,) * n))
        classify(fs[0])
        states += fs
    calls = []

    def count(owner, name):
        orig = owner.__dict__[name]
        static = isinstance(orig, staticmethod)
        func = orig.__func__ if static else orig

        def counted(*args):
            calls.append(f"{owner.__name__}.{name}")
            return func(*args)

        monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)

    count(Poly, "__divmod__")
    kernels = (polyring._GF2Kernel, polyring._ListKernel)
    for cls in kernels:
        for name in ("divmod", "rem"):
            if name in cls.__dict__:
                count(cls, name)
    verdicts = [classify(f) for f in states]
    assert calls == []
    assert any(v.is_d_complicated for v in verdicts)
    assert not all(v.is_d_complicated for v in verdicts)
    # the counters do see a division on each field
    for spec in (F3, F4):
        Poly(spec, [1, 1, 1]) % Poly(spec, [1, 1])
    assert calls.count("Poly.__divmod__") == 2
    assert calls.count("_ListKernel.divmod") == 2


def _reference_verdict(f):
    """(is_delta1, is_delta2, witness) by the orbit of f's valuations under
    Delta and the first component other than t - 1 where f vanishes."""
    D = delta_operator(f.spec, f.n)
    vals = seq_valuations(f)
    pre, per = orbit_from_valuations(D, vals)
    d2 = per == max_period(D)
    witness = next((c.pi for c, v in zip(crt_split(f.spec, f.n), vals) if v and c.m > 1), None)
    return d2 and pre >= max_preperiod(D) - 1, d2, witness


MASK_GRID = [(spec, n) for spec in (F2, F3, F4, F5, F7, F8, F9)
             for n in range(1, 13) if n % spec.p and spec.q**n <= 2**12]


@pytest.mark.parametrize("spec, n", MASK_GRID, ids=[f"q{s.q}-n{n}" for s, n in MASK_GRID])
def test_vanishing_set_verdicts_match_every_route_on_every_state(spec, n):
    """For p not dividing n, classify, is_delta1 and is_delta2 read the
    set of components where a state vanishes; on every state (the zero
    state and every vanishing pattern among them) they agree with the
    orbit of its valuations, with orbit_brute against max_period and with
    d_complicated_gcd."""
    D = delta_operator(spec, n)
    max_pre, max_per = max_preperiod(D), max_period(D)
    delta2 = set()
    for f in all_seqs(spec, n):
        v = classify(f)
        assert (v.is_delta1, v.is_delta2, v.witness) == _reference_verdict(f)
        assert (is_delta1(f), is_delta2(f)) == (v.is_delta1, v.is_delta2)
        s = orbit_brute(D, f)
        d2 = s.period == max_per
        assert (v.is_delta1, v.is_delta2) == (d2 and s.preperiod >= max_pre - 1, d2)
        assert v.is_d_complicated == d_complicated_gcd(f) == (v.witness is None)
        delta2.add(v.is_delta2)
    # the zero state has period 1, so Delta2 fails somewhere once max_period > 1
    assert delta2 == ({True, False} if max_per > 1 else {True})


@pytest.mark.parametrize("spec, n", [(F2, 255), (F3, 80), (F4, 63), (F9, 40), (F7, 24)])
def test_vanishing_set_verdicts_on_states_built_to_vanish(spec, n):
    """States that vanish on chosen components of t^n - 1, a multiple of
    their product and nothing else, or on all but one, give the verdicts of
    the orbit of their valuations and of d_complicated_gcd; Delta2 fails on
    some of them."""
    rng = random.Random(n)
    comps = crt_split(spec, n)
    modulus = t_pow_minus_one(spec, n)
    masks_hold = []
    for _ in range(40):
        chosen = [c.pi for c in comps if rng.random() < 0.3]
        if rng.random() < 0.2:  # all but one
            keep = rng.randrange(len(comps))
            chosen = [c.pi for k, c in enumerate(comps) if k != keep]
        g = Poly(spec, [rng.randrange(spec.q) for _ in range(n)])
        for pi in chosen:
            g = g * pi % modulus
        f = poly_to_seq(spec, n, g)
        v = classify(f)
        assert (v.is_delta1, v.is_delta2, v.witness) == _reference_verdict(f)
        assert v.is_d_complicated == d_complicated_gcd(f)
        masks_hold.append(v.is_delta2)
    assert not all(masks_hold)
    zero = classify(CyclicSeq(spec, (0,) * n))
    assert not zero.is_delta2 and zero.witness == next(c.pi for c in comps if c.m > 1)


def test_classify_coprime_to_p_never_analyzes_an_orbit(monkeypatch):
    """Once Delta's analyzer exists, classify, is_delta1 and is_delta2 at p
    not dividing n read only the period masks; p | n still analyzes."""
    rng = random.Random(7)
    states = []
    for spec, n in [(F2, 255), (F3, 80), (F4, 63), (F9, 40), (F5, 12)]:
        max_period(delta_operator(spec, n))  # the analyzer's __init__ analyzes once
        states += [CyclicSeq(spec, [rng.randrange(spec.q) for _ in range(n)]) for _ in range(5)]
        states.append(CyclicSeq(spec, (0,) * n))
    max_period(delta_operator(F2, 4))
    calls = []
    analyze = dynamics._OrbitAnalyzer.analyze

    def counted(self, vals):
        calls.append(vals)
        return analyze(self, vals)

    monkeypatch.setattr(dynamics._OrbitAnalyzer, "analyze", counted)
    for f in states:
        classify(f), is_delta1(f), is_delta2(f)
    assert calls == []
    is_delta2(seq(F2, 1, 0, 1, 1))
    assert len(calls) == 1
    with pytest.raises(DomainError):
        period_masks(delta_operator(F2, 4))


def test_gcd_criterion_rejects_p_dividing_n():
    with pytest.raises(DomainError):
        d_complicated_gcd(seq(F2, 1, 0))


def test_implication_chain_exhaustive():
    # the last two have p | n, where classify runs the operator oracle
    for spec, n in [(F2, 3), (F2, 5), (F3, 4), (F4, 3), (F2, 4), (F3, 3)]:
        D = delta_operator(spec, n)
        pre, per = orbit_table(D)
        max_pre, max_per = max(pre), max(per)
        factors = [c.pi for c in crt_split(spec, n) if c.m > 1]
        for f in all_seqs(spec, n):
            v = classify(f)
            if v.is_d_complicated:
                assert v.is_delta2 and v.is_delta1
            assert (v.witness is None) == v.is_d_complicated
            s = orbit_brute(D, f)
            d2 = s.period == max_per
            assert (v.is_delta1, v.is_delta2) == (d2 and s.preperiod >= max_pre - 1, d2)
            assert (is_delta1(f), is_delta2(f)) == (v.is_delta1, v.is_delta2)
            if n % spec.p:
                assert v.is_d_complicated == d_complicated_gcd(f)
                ft = seq_to_poly(f)
                assert v.witness == next(
                    (pi for pi in factors if (ft % pi).is_zero), None)


def test_delta1_iff_delta2_when_p_coprime():
    for spec, n in [(F2, 5), (F3, 4), (F4, 3), (F5, 2)]:
        for f in all_seqs(spec, n):
            assert is_delta1(f) == is_delta2(f)


def test_unit_invariance_of_classifiers():
    # multiplying f~ by t^k or by a nonzero scalar must not change verdicts
    rng = random.Random(55)
    for spec, n in [(F2, 5), (F3, 4), (F4, 3)]:
        for _ in range(12):
            f = CyclicSeq(spec, [rng.randrange(spec.q) for _ in range(n)])
            base = classify(f)
            ft = seq_to_poly(f)
            for k in range(1, n):
                rotated = poly_to_seq(
                    spec, n, (ft * Poly.monomial(spec, k)) % _tn1(spec, n))
                v = classify(rotated)
                assert (v.is_delta1, v.is_delta2, v.is_d_complicated) == \
                    (base.is_delta1, base.is_delta2, base.is_d_complicated)
            for c in range(2, spec.q):
                scaled = CyclicSeq(spec, [spec.mul_enc(c, x) for x in f.value_encs])
                v = classify(scaled)
                assert (v.is_delta1, v.is_delta2, v.is_d_complicated) == \
                    (base.is_delta1, base.is_delta2, base.is_d_complicated)


def _tn1(spec, n):
    from ffdyn.polyring import t_pow_minus_one
    return t_pow_minus_one(spec, n)


# -- quota and census ---------------------------------------------------------


def test_quota_examples():
    r = quota(F2, 3)
    assert (r.d, r.quota_formula) == (2, Fraction(3, 4))
    r = quota(F2, 7)
    assert (r.d, r.quota_formula) == (3, Fraction(49, 64))
    r = quota(F2, 5)
    assert (r.d, r.quota_formula) == (4, Fraction(15, 16))
    assert quota(F3, 13).d == 3  # 3^3 = 27 = 2 * 13 + 1


def test_quota_rejects_bad_inputs():
    with pytest.raises(DomainError):
        quota(F2, 6)
    with pytest.raises(DomainError):
        quota(F3, 3)


def test_census_examples():
    assert census(F2, 3).census_count == 6
    assert census(F2, 5).census_count == 30
    assert census(F4, 3).census_count == 36
    assert census(F2, 7).census_count == 98


def test_census_quota_equals_formula():
    for spec, n in [(F2, 11), (F3, 5), (F5, 3), (F9, 5)]:
        r = census(spec, n)
        assert r.census_quota == r.quota_formula
        assert r.census_count == r.quota_formula * r.state_count


def test_census_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        census(F2, 13, cap=1000)

    # an n far past the cap is refused before the quota formula, whose power
    # would take about 10^8 bits; a non-prime n and n = p still fail first
    def no_formula(*_args):
        raise AssertionError("census built the quota formula before its cap check")

    monkeypatch.setattr(complexity, "quota", no_formula)
    with pytest.raises(ResourceLimitError, match=r"2\^100000007 states exceeds cap"):
        census(F2, 100000007)
    for n in (100000008, 2):
        with pytest.raises(DomainError):
            census(F2, n)


def test_census_matches_per_sequence_classifier():
    # the counting kernel alone, against per-state gcd tests: no quota formula
    # GF(17) n = 3 reads the valuation map's 16-bit slots
    for spec, n in [(F2, 5), (F2, 11), (F3, 2), (F3, 5), (F3, 7), (F4, 3), (F4, 5),
                    (F5, 3), (F8, 3), (F9, 2), (FieldSpec.of_order(25), 2),
                    (FieldSpec.of_order(17), 3)]:
        direct = sum(1 for f in all_seqs(spec, n) if d_complicated_gcd(f))
        assert _census_count(spec, n) == direct, (spec.q, n)


def test_warm_census_multiplies_and_divides_no_polynomials(monkeypatch):
    # the census reads its residues off the valuation map's columns
    fields = [(F2, 11), (F3, 7), (F9, 5), (FieldSpec.of_order(17), 3)]
    for spec, n in fields:
        crt_split(spec, n)
    calls = []
    for name in ("__mul__", "__divmod__"):
        orig = Poly.__dict__[name]

        def counted(*args, name=name, orig=orig):
            calls.append(name)
            return orig(*args)

        monkeypatch.setattr(Poly, name, counted)
    counts = [_census_count(spec, n) for spec, n in fields]
    assert calls == []
    assert counts == [quota(spec, n).quota_formula * spec.q**n for spec, n in fields]
    Poly(F3, [1, 1]) * Poly(F3, [1, 2])
    assert calls == ["__mul__"]


# -- the eigenvalue product ------------------------------------------------------


def test_eigen_product_examples():
    assert eigen_product(legendre_seq(F2, 5)).enc == 1
    assert eigen_product(legendre_seq(F2, 7)).enc == 0
    assert eigen_product(seq(F2, 0, 0, 0)).enc == 0
    with pytest.raises(DomainError):
        eigen_product(seq(F2, 1))


def test_eigen_product_iff_d_complicated():
    # full sweep of every state space up to 2^12 with p coprime to n
    from ffdyn import FieldSpec
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = FieldSpec.of_order(q)
        n = 2
        while q**n <= 2**12:
            if n % spec.p != 0:
                for f in all_seqs(spec, n):
                    assert bool(eigen_product(f).enc) == d_complicated_gcd(f)
            n += 1


def test_eigen_product_of_constant_is_power():
    # f~ = c: all n-1 nontrivial eigenvalues equal c
    for spec, n in [(F3, 5), (F5, 3)]:
        f = poly_to_seq(spec, n, Poly(spec, [2]))
        assert eigen_product(f) == spec.element(2) ** (n - 1)


# -- theorem reports ---------------------------------------------------------------


def test_verify_thm2_rows():
    rows = {(r["q"], r["n"]): r for r in thm2_suite()["rows"]}
    assert rows[2, 11]["isDComplicated"] is True   # 11 = 8 + 3
    assert rows[2, 17]["isDComplicated"] is False  # 17 = 8*2 + 1
    assert rows[2, 11]["ok"] and rows[2, 17]["ok"]


def test_verify_thm2_f3_n5():
    row = next(r for r in thm2_suite()["rows"] if (r["q"], r["n"]) == (3, 5))
    assert row["eigenProduct"] == 1 and row["isDComplicated"] is True
    assert row["ok"]


def test_verify_thm3_examples():
    rows = {(r["q"], r["n"]): r for r in thm3_suite()["rows"]}
    assert rows[3, 5]["familySize"] == 2 and rows[3, 5]["ok"]
    assert rows[2, 3]["familySize"] == 1
    assert rows[2, 7]["familySize"] == 1
    assert rows[2, 7]["ok"]


def test_verify_thm3_rejects_n_equal_p():
    rows = thm3_suite()["rows"]
    assert not [r for r in rows if r["n"] == FieldSpec.of_order(r["q"]).p]
    assert {(2, 3), (3, 2)} <= {(r["q"], r["n"]) for r in rows}


# -- necessity probe (spec open question) -------------------------------------------


def test_gcd_criterion_is_also_necessary_at_small_scale():
    """The shortcut is proven sufficient; exhaustive enumeration shows no
    counterexample to necessity either, in both directions, at desk scale."""
    for spec, n in [(F2, 5), (F3, 4), (F3, 2), (F5, 2)]:
        for f in all_seqs(spec, n):
            assert d_complicated_gcd(f) == d_complicated_oracle(f)
