import hashlib
import random

import pytest

from conftest import F2, F3, F4, F5, F7, F8, F9, all_seqs, seq
from ffdyn import DomainError, FieldSpec, dynamics
from ffdyn.dynamics import (build_graph, cycle_spectrum, graph_dot, graph_summary,
                            index_of_state, max_period, max_preperiod,
                            orbit_algebraic, orbit_brute, orbit_pass, orbit_table,
                            state_of_index, successor_array)
from ffdyn.errors import DegenerateOperatorError, ResourceLimitError
from ffdyn.groupalg import (CyclicSeq, DiffOperator, apply_op, build_operator, delta_operator,
                            delta_poly, seq_to_poly, valuation_map)
from ffdyn.polyring import crt_split, gcd, t_pow_minus_one


def test_orbit_brute_example_n3():
    s = orbit_brute(delta_operator(F2, 3), seq(F2, 1, 0, 0))
    assert (s.preperiod, s.period) == (1, 3)
    assert s.attractor_entry == seq(F2, 1, 0, 1)


def test_orbit_of_zero_is_fixed():
    for spec, n in [(F2, 4), (F3, 3)]:
        s = orbit_brute(delta_operator(spec, n), CyclicSeq(spec, (0,) * n))
        assert (s.preperiod, s.period) == (0, 1)


def test_orbit_ones_dies_immediately():
    s = orbit_brute(delta_operator(F2, 3), seq(F2, 1, 1, 1))
    assert (s.preperiod, s.period) == (1, 1)


def test_orbit_p_divides_n_example():
    # (1,0) -> (1,1) -> (0,0) -> (0,0)
    s = orbit_brute(delta_operator(F2, 2), seq(F2, 1, 0))
    assert (s.preperiod, s.period) == (2, 1)
    s2 = orbit_algebraic(delta_operator(F2, 2), seq(F2, 1, 0))
    assert (s2.preperiod, s2.period) == (2, 1)


def test_orbit_algebraic_matches_brute_examples():
    D = delta_operator(F2, 3)
    for f in all_seqs(F2, 3):
        b = orbit_brute(D, f)
        a = orbit_algebraic(D, f)
        assert (a.preperiod, a.period, a.attractor_entry) == \
            (b.preperiod, b.period, b.attractor_entry)


def test_all_ones_polynomial_projects_only_onto_sum_ideal():
    # f~ = 1 + t + ... + t^(n-1): dies under Delta within one step
    for n in (3, 5):
        D = delta_operator(F2, n)
        f = CyclicSeq(F2, (1,) * n)
        s = orbit_algebraic(D, f)
        assert s.preperiod <= 1 and s.period == 1
        assert (s.preperiod, s.period) == \
            (orbit_brute(D, f).preperiod, orbit_brute(D, f).period)


def test_orbit_brute_cap():
    D = delta_operator(F2, 5)
    f = seq(F2, 0, 1, 1, 0, 0)
    with pytest.raises(ResourceLimitError):
        orbit_brute(D, f, max_steps=3)  # the true orbit has 15 states
    s = orbit_brute(D, f, max_steps=32)
    assert (s.preperiod, s.period) == (orbit_brute(D, f).preperiod,
                                       orbit_brute(D, f).period)
    # the cap is exact: an orbit of mu + lam states fits mu + lam, not one less
    for spec, n in [(F2, 6), (F3, 6), (F2, 10)]:
        D = delta_operator(spec, n)
        pre, per = orbit_table(D)
        idxs = [i for i in range(spec.q**n) if pre[i] > 0 and per[i] > 1][:5]
        assert idxs
        for idx in idxs:
            f = CyclicSeq(spec, state_of_index(spec, n, idx))
            size = int(pre[idx] + per[idx])
            s = orbit_brute(D, f, max_steps=size)
            assert (s.preperiod, s.period) == (pre[idx], per[idx])
            for cap in (size - 1, 0):
                with pytest.raises(ResourceLimitError):
                    orbit_brute(D, f, max_steps=cap)


def test_orbit_brute_default_cap_is_state_cap(monkeypatch):
    D = delta_operator(F2, 5)
    f = seq(F2, 0, 1, 1, 0, 0)
    assert orbit_brute(D, f).period == 15
    monkeypatch.setattr(dynamics, "STATE_CAP", 8)
    with pytest.raises(ResourceLimitError):
        orbit_brute(D, f)


def test_orbit_brute_walks_each_orbit_once():
    # at most 2*preperiod + period operator steps; (F2, 6) and (F3, 6) have
    # p | n, so states there have tails (mu > 0) as well as cycles
    seen_tail = False
    for spec, n in [(F2, 5), (F2, 6), (F3, 4), (F3, 6), (F4, 3)]:
        D = DiffOperator(spec, n, delta_poly(spec, n))  # not the cached one
        pre, per = orbit_table(D)
        step, calls = D.step, 0

        def counting_step(x):
            nonlocal calls
            calls += 1
            return step(x)

        object.__setattr__(D, "step", counting_step)
        for idx in range(spec.q**n):
            if per[idx] < 3:
                continue
            calls = 0
            s = orbit_brute(D, CyclicSeq(spec, state_of_index(spec, n, idx)))
            assert (s.preperiod, s.period) == (pre[idx], per[idx])
            assert calls <= 2 * s.preperiod + s.period, (spec.q, n, idx, calls)
            seen_tail |= s.preperiod > 0 and n % spec.p == 0
    assert seen_tail


@pytest.mark.parametrize("route", [orbit_brute, orbit_algebraic])
def test_orbit_routes_reject_mismatched_dimensions(route):
    D = delta_operator(F2, 5)
    with pytest.raises(DomainError, match="dimensions"):
        route(D, seq(F2, 0, 1, 1))  # shorter sequence
    with pytest.raises(DomainError, match="dimensions"):
        route(D, seq(F3, 0, 1, 2, 1, 0))  # another field


def test_max_period_examples():
    assert max_period(delta_operator(F2, 3)) == 3
    assert max_period(delta_operator(F2, 5)) == 15
    # p | n case: brute-force oracle over all 27 states
    D = delta_operator(F3, 3)
    _pre, per = orbit_table(D)
    assert max_period(D) == max(per)


def test_max_preperiod_examples():
    assert max_preperiod(delta_operator(F2, 3)) == 1
    assert max_preperiod(delta_operator(F2, 4)) == 4
    for spec, n in [(F2, 5), (F3, 4), (F2, 7)]:
        assert max_preperiod(delta_operator(spec, n)) <= 1


def test_max_period_and_preperiod_are_attained():
    rng = random.Random(77)
    for spec, n in [(F2, 6), (F3, 4), (F2, 8), (F4, 3)]:
        for _ in range(4):
            coeffs = [rng.randrange(spec.q) for _ in range(3)]
            if not any(coeffs):
                continue
            try:
                D = build_operator(spec, n, coeffs)
            except Exception:
                continue
            pre, per = orbit_table(D)
            assert max(per) == max_period(D)
            assert max(pre) == max_preperiod(D)


def test_cycle_spectrum_examples():
    assert cycle_spectrum(delta_operator(F2, 3)) == {1: 1, 3: 1}
    assert cycle_spectrum(delta_operator(F2, 5)) == {1: 1, 15: 1}
    assert cycle_spectrum(delta_operator(F2, 7)) == {1: 1, 7: 9}


def test_cycle_spectrum_totals():
    # Delta, then operators with live components of multiplicity > 1
    operators = [delta_operator(spec, n) for spec, n in [(F2, 6), (F3, 4), (F4, 3), (F3, 6)]]
    operators += [build_operator(spec, n, coeffs) for spec, n, coeffs in [
        (F2, 6, [1, 1]), (F2, 10, [1, 1, 1]), (F2, 12, [1, 0, 1]),
        (F3, 6, [1, 1]), (F4, 6, [1, 1])]]
    for D in operators:
        spect = cycle_spectrum(D)
        g, _succ = build_graph(D)
        assert g.cycle_spectrum == spect
        assert sum(length * count for length, count in spect.items()) == \
            g.attractor_size


def test_build_graph_n3_structure():
    g, succ = build_graph(delta_operator(F2, 3))
    assert g.state_count == 8
    assert g.attractor_size == 4
    assert g.cycle_spectrum == {1: 1, 3: 1}
    assert g.tree_depth == 1
    assert g.all_trees_isomorphic
    assert g.per_node_indegree == 2
    # every attractor node has exactly one non-attractor child
    indeg = [0] * 8
    for s in succ:
        indeg[s] += 1


def test_build_graph_n1():
    g, succ = build_graph(delta_operator(F2, 1))
    assert g.state_count == 2
    assert g.cycle_spectrum == {1: 1}
    assert g.tree_depth == 1
    assert succ == [0, 0]  # both states map to zero


def test_build_graph_q3_n2():
    g, _succ = build_graph(delta_operator(F3, 2))
    assert g.state_count == 9
    assert g.cycle_spectrum == {1: 3}
    assert g.tree_depth == 1  # p does not divide n
    assert g.all_trees_isomorphic


def test_build_graph_cap():
    with pytest.raises(ResourceLimitError, match="cycle_spectrum"):
        build_graph(delta_operator(F2, 12), cap=1000)


def test_every_state_has_one_outgoing_edge():
    for spec, n in [(F2, 5), (F3, 3)]:
        succ = successor_array(delta_operator(spec, n))
        assert len(succ) == spec.q**n
        assert all(0 <= s < spec.q**n for s in succ)


def test_image_indegree_equals_kernel_size():
    rng = random.Random(13)
    for spec, n in [(F2, 6), (F3, 4), (F2, 4), (F4, 3)]:
        for coeffs in ([1], [0, 1], [1, 1], [rng.randrange(1, spec.q), 1]):
            try:
                D = build_operator(spec, n, coeffs)
            except Exception:
                continue
            g, succ = build_graph(D)
            indeg = [0] * len(succ)
            for s in succ:
                indeg[s] += 1
            expected = spec.q ** gcd(D.op_poly, t_pow_minus_one(spec, n)).degree
            assert g.per_node_indegree == expected
            for i in set(succ):
                assert indeg[i] == expected


def test_orbit_table_matches_per_state_brent():
    for spec, n in [(F2, 6), (F3, 4), (F4, 3), (F2, 2)]:
        D = delta_operator(spec, n)
        pre, per = orbit_table(D)
        for idx in range(spec.q**n):
            f = CyclicSeq(spec, state_of_index(spec, n, idx))
            s = orbit_brute(D, f)
            assert (s.preperiod, s.period) == (pre[idx], per[idx])


def test_successor_array_matches_per_state_application():
    rng = random.Random(31)
    # (field, n, random operators); GF(251) n=2 has the uint16 planes
    cases = [(F2, 1, 1), (F2, 7, 3), (F3, 5, 3), (F5, 3, 3), (F4, 4, 3), (F8, 3, 3),
             (F9, 3, 3), (FieldSpec.of_order(25), 2, 3), (FieldSpec(251), 2, 1)]
    for spec, n, count in cases:
        for _ in range(count):
            coeffs = [rng.randrange(spec.q) for _ in range(rng.randrange(1, n + 2))]
            try:
                D = build_operator(spec, n, coeffs)
            except DegenerateOperatorError:
                continue
            succ = successor_array(D)
            assert len(succ) == spec.q**n
            for i, s in enumerate(succ):
                v = state_of_index(spec, n, i)
                assert s == index_of_state(spec, D.apply_values(v)), (spec.q, n, i)


def test_gf2_brent_attractor_entry_has_full_length():
    rng = random.Random(17)
    for n in (5, 8, 12, 23):
        D = delta_operator(F2, n)
        states = [[rng.randrange(2) for _ in range(n)] for _ in range(4)]
        # zero top values: the packed residue has fewer than n bits
        states.append([1] + [0] * (n - 1))
        states.append([0] * n)
        for vals in states:
            f = CyclicSeq(F2, vals)
            b, a = orbit_brute(D, f), orbit_algebraic(D, f)
            assert b.attractor_entry.n == n
            assert b == a


@pytest.mark.parametrize("spec, n", [(F2, 6), (F3, 6), (F4, 4), (F9, 3)],
                         ids=["GF2-n6", "GF3-n6", "GF4-n4", "GF9-n3"])
def test_attractor_entry_matches_brute_when_p_divides_n(spec, n):
    # D^pre f comes from square-and-multiply on the cyclic product: compare
    # the whole summary, entry included, on every state
    dead = [c.m for c in crt_split(spec, n)].index(1)  # the sum component t - 1
    pres = set()
    for coeffs in ((1,), (0, 1)):
        D = build_operator(spec, n, coeffs)
        # Delta^2 vanishes to order 2 on its dead component t - 1
        assert valuation_map(spec, n).read(D.op_poly.coeff_encs)[dead] == len(coeffs)
        for f in all_seqs(spec, n):
            a = orbit_algebraic(D, f)
            assert a == orbit_brute(D, f), (coeffs, f)
            pres.add(a.preperiod)
    assert 0 in pres and max(pres) >= 2


# the fields of test_crt_split_p_power_shortcut_matches_factorize
ROUTE_FIELDS = [F2, F3, F4, F5, F7, F8, F9] + [
    FieldSpec.of_order(q) for q in (16, 25, 27, 32, 49, 64, 81)]


@pytest.mark.parametrize("spec", ROUTE_FIELDS, ids=lambda s: f"q{s.q}")
def test_operator_valuations_match_the_valuation_map(spec):
    """The analyzer's valuations of an operator, one _order_prime_power
    call per component, against the valuation map's read of its
    coefficients: Delta, Delta^2 and two seeded operators of one to three
    terms at every n <= 30, prime, composite and divisible by p."""
    rng = random.Random(spec.q)
    for n in range(1, 31):
        seeded = [[rng.randrange(spec.q) for _ in range(rng.randint(1, 3))] for _ in range(2)]
        for coeffs in [(1,), (0, 1)] + seeded:
            try:
                D = build_operator(spec, n, coeffs)
            except DegenerateOperatorError:
                continue
            vals = valuation_map(spec, n).read(D.op_poly.coeff_encs)
            assert dynamics._analyzer(D).op_vals == vals, (n, coeffs)


def test_operator_analysis_builds_no_valuation_map():
    """max_period and cycle_spectrum read the operator per component and
    never call valuation_map, which serves states and the census."""
    D = build_operator(F7, 36, (3, 1))
    before = valuation_map.cache_info()  # neither a miss nor a hit: no lookup
    max_period(D)
    cycle_spectrum(D)
    after = valuation_map.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_state_index_round_trip():
    for spec, n in [(F2, 5), (F3, 3), (F4, 2)]:
        for idx in range(spec.q**n):
            assert index_of_state(spec, state_of_index(spec, n, idx)) == idx


def test_tree_isomorphism_detects_shapes():
    # Delta on q=2, n=4 is nilpotent: a single tree into the zero state
    g, _succ = build_graph(delta_operator(F2, 4))
    assert g.cycle_spectrum == {1: 1}
    assert g.all_trees_isomorphic
    assert g.tree_depth == 4


def _ahu(node, children):
    return "(" + "".join(sorted(_ahu(c, children) for c in children[node])) + ")"


def test_tree_shape_hash_is_the_ahu_code_of_the_trees():
    # the reference: one AHU string per attractor vertex, built by recursion
    # over per-vertex children lists
    for spec, n, coeffs in [(F2, 4, (1,)), (F2, 6, (1,)), (F2, 6, (1, 1)), (F3, 3, (1,)),
                            (F3, 6, (0, 1)), (F4, 4, (1,)), (F5, 5, (1, 1))]:
        D = build_operator(spec, n, coeffs)
        g, succ = build_graph(D)
        pre, _per = orbit_table(D)
        children = [[] for _ in succ]
        for i, s in enumerate(succ):
            if pre[i]:
                children[s].append(i)
        codes = {_ahu(i, children) for i in range(len(succ)) if pre[i] == 0}
        assert g.all_trees_isomorphic == (len(codes) == 1)
        assert g.tree_shape_hash == hashlib.sha256(codes.pop().encode()).hexdigest()[:16]


def _orbits(succ: list[int]) -> tuple[list[int], list[int]]:
    """(preperiod, period) of every state of the functional graph succ, by
    a walk per state: the list-based oracle for the array pass.

    Each state is walked once: a walk stops at a state already done, or
    closes a new cycle, and the path back is filled in from there.
    """
    total = len(succ)
    pre = [-1] * total
    per = [0] * total
    for start in range(total):
        if pre[start] >= 0:
            continue
        path = []
        pos: dict[int, int] = {}
        cur = start
        while pre[cur] < 0 and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = succ[cur]
        if pre[cur] >= 0:
            base_pre, base_per = pre[cur], per[cur]
            for i in range(len(path) - 1, -1, -1):
                pre[path[i]] = base_pre + len(path) - i
                per[path[i]] = base_per
        else:
            cstart = pos[cur]
            cycle_len = len(path) - cstart
            for i in range(cstart, len(path)):
                pre[path[i]] = 0
                per[path[i]] = cycle_len
            for i in range(cstart - 1, -1, -1):
                pre[path[i]] = cstart - i
                per[path[i]] = cycle_len
    return pre, per


def _reference_summary(succ: list[int]):
    """(pre, per, summary fields) of succ from _orbits and per-vertex AHU
    strings built by recursion."""
    pre, per = _orbits(succ)
    cycle = [i for i in range(len(succ)) if pre[i] == 0]
    lengths = sorted({per[i] for i in cycle})
    children = [[] for _ in succ]
    for i, s in enumerate(succ):
        if pre[i]:
            children[s].append(i)
    codes = {_ahu(i, children) for i in cycle}
    iso = len(codes) == 1
    fields = {
        "state_count": len(succ),
        "cycle_spectrum": {L: sum(per[i] == L for i in cycle) // L for L in lengths},
        "tree_depth": max(pre),
        "tree_shape_hash": hashlib.sha256(min(codes).encode()).hexdigest()[:16] if iso else None,
        "per_node_indegree": succ.count(0),
        "all_trees_isomorphic": iso,
        "attractor_size": len(cycle),
    }
    return pre, per, fields


def _assert_array_pass_matches_oracle(succ: list[int]):
    pre, per, fields = _reference_summary(succ)
    got_pre, got_per, levels, rank = orbit_pass(succ)
    assert got_pre.tolist() == pre
    assert got_per.tolist() == per
    assert [level.tolist() for level in levels] == [
        [i for i in range(len(succ)) if pre[i] == k] for k in range(max(pre) + 1)]
    assert all(rank[level].tolist() == list(range(len(level))) for level in levels)
    summary = graph_summary(succ)
    assert vars(summary) == fields
    # plain ints, so the summary prints and serializes as before
    assert all(type(v) is int for v in (summary.tree_depth, summary.attractor_size,
                                         summary.per_node_indegree))
    assert all(type(k) is int and type(v) is int
               for k, v in summary.cycle_spectrum.items())
    return summary


def _chain(length: int) -> list[int]:
    """0 <- 1 <- ... <- length, with 0 fixed."""
    return [0] + list(range(length))


HAND_BUILT = {
    "self-loops": [0, 1, 2, 3],
    "one-fixed-point": [0, 0, 0, 0],
    # a fixed point, a 2-cycle and a 3-cycle, each with one leaf
    "cycles-1-2-3": [0, 2, 1, 4, 5, 3, 0, 1, 2, 3, 4, 5],
    # a tail of 20 steps into a fixed point, far longer than log2 of the states
    "long-tail": _chain(20),
    # a 3-cycle fed by tails of length 7 at each of its states
    "long-tails-on-a-cycle": [1, 2, 0] + [s for r in range(3) for s in [r] + list(
        range(3 + 7 * r, 3 + 7 * r + 6))],
    "bijection": [3, 7, 0, 5, 1, 2, 4, 6],
    # two 2-cycles whose trees differ from a state's in the other
    "trees-not-isomorphic": [1, 0, 0, 2, 5, 4, 4, 4],
    "cycle-with-one-tree": [1, 0, 0],
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_array_pass_on_hand_built_graphs(name):
    summary = _assert_array_pass_matches_oracle(HAND_BUILT[name])
    if name.startswith(("trees-not", "cycle-with")):
        assert not summary.all_trees_isomorphic and summary.tree_shape_hash is None
    if name == "long-tail":
        assert summary.tree_depth == 20
    if name == "cycles-1-2-3":
        assert summary.cycle_spectrum == {1: 1, 2: 1, 3: 1}


def test_array_pass_on_random_functional_graphs():
    # random maps: many components, cycles of many lengths, unlike trees
    rng = random.Random(23)
    for size in (1, 2, 5, 30, 200, 1000):
        for _ in range(3):
            _assert_array_pass_matches_oracle([rng.randrange(size) for _ in range(size)])
    # random maps onto a few states: deep trees of several shapes
    for size in (50, 400):
        succ = [rng.randrange(max(1, i // 3)) if i else 0 for i in range(size)]
        _assert_array_pass_matches_oracle(succ)


@pytest.mark.parametrize("spec, n", [(F2, 8), (F2, 10), (F3, 6), (F3, 5), (F4, 4), (F4, 3),
                                     (F9, 3), (F9, 2)],
                         ids=["GF2-n8", "GF2-n10", "GF3-n6", "GF3-n5", "GF4-n4", "GF4-n3",
                              "GF9-n3", "GF9-n2"])
def test_array_pass_on_random_operators(spec, n):
    # p | n in GF2-n8, GF2-n10, GF3-n6, GF4-n4 and GF9-n3
    rng = random.Random(spec.q * 100 + n)
    for coeffs in ([1], [0, 1], *([rng.randrange(spec.q) for _ in range(rng.randrange(1, n + 2))]
                                  for _ in range(4))):
        try:
            D = build_operator(spec, n, coeffs)
        except DegenerateOperatorError:
            continue
        g, succ = build_graph(D)
        assert type(succ) is list
        assert _assert_array_pass_matches_oracle(succ) == g
        pre, per = orbit_table(D)
        assert (pre.tolist(), per.tolist()) == _orbits(succ)
        assert g.all_trees_isomorphic


def test_graph_dot_output():
    D = delta_operator(F2, 3)
    _g, succ = build_graph(D)
    dot = graph_dot(D, succ)
    assert dot.startswith("digraph")
    assert dot.count("->") == 8
    assert '"100" -> "101"' in dot


def test_non_delta_operator_orbits():
    rng = random.Random(99)
    for spec, n in [(F2, 5), (F3, 4)]:
        for _ in range(4):
            coeffs = [rng.randrange(spec.q) for _ in range(n)]
            if not any(coeffs):
                coeffs[0] = 1
            try:
                D = build_operator(spec, n, coeffs)
            except Exception:
                continue
            for f in list(all_seqs(spec, n))[:40]:
                b = orbit_brute(D, f)
                a = orbit_algebraic(D, f)
                assert (a.preperiod, a.period) == (b.preperiod, b.period)
                assert apply_op(D, f) == CyclicSeq(
                    spec, D.apply_values(f.value_encs))
