import hashlib
import random

import pytest

from conftest import F2, F3, F4, F5, F8, F9, all_seqs, seq
from ffdyn import DomainError, FieldSpec
from ffdyn.dynamics import (build_graph, cycle_spectrum, graph_dot,
                            index_of_state, max_period, max_preperiod,
                            orbit_algebraic, orbit_brute, orbit_table,
                            state_of_index, successor_array)
from ffdyn.errors import DegenerateOperatorError, ResourceLimitError
from ffdyn.groupalg import (CyclicSeq, apply_op, build_operator, component_valuations,
                            crt_split, delta_operator, seq_to_poly)
from ffdyn.polyring import gcd, t_minus_one, t_pow_minus_one


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
        orbit_brute(D, f, max_steps=3)  # the true orbit needs 16 states
    s = orbit_brute(D, f, max_steps=32)
    assert (s.preperiod, s.period) == (orbit_brute(D, f).preperiod,
                                       orbit_brute(D, f).period)


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
    dead = [pi for pi, _e in crt_split(spec, n)].index(t_minus_one(spec))
    pres = set()
    for coeffs in ((1,), (0, 1)):
        D = build_operator(spec, n, coeffs)
        # Delta^2 vanishes to order 2 on its dead component t - 1
        assert component_valuations(D.op_poly, n)[dead] == len(coeffs)
        for f in all_seqs(spec, n):
            a = orbit_algebraic(D, f)
            assert a == orbit_brute(D, f), (coeffs, f)
            pres.add(a.preperiod)
    assert 0 in pres and max(pres) >= 2


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
