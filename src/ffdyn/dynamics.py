"""Orbit analysis for the iteration f, Df, D^2 f, ... on cyclic sequences.

Two independent routes: direct iteration (a walk that keeps its states, or
array passes over the whole state space's successor array) and the algebraic
route through the factor components of t^n - 1, where each component
either dies (nilpotent multiplier) or rotates with a computable unit order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .errors import DomainError, ResourceLimitError
from .ffield import FieldSpec, digits, undigits
from .groupalg import CyclicSeq, DiffOperator, linear_images, seq_valuations
from .intfactor import factor_int
from .polyring import _order_prime_power, crt_residues, crt_split

# default cap on the states that one enumeration walks. A state costs about
# 1.6 us in orbit_brute's walk (GF(2), n = 21) and 1.7 us and 83 bytes in
# build_graph (GF(2), n = 18), so a graph at the cap takes about 3.6 s and
# 170 MB (Python 3.11.7 on a shared 2-vCPU VM)
STATE_CAP = 2**21


@dataclass(frozen=True)
class OrbitSummary:
    preperiod: int
    period: int
    attractor_entry: CyclicSeq


@dataclass(frozen=True)
class GraphSummary:
    state_count: int
    cycle_spectrum: dict
    tree_depth: int
    tree_shape_hash: str | None
    per_node_indegree: int
    all_trees_isomorphic: bool
    attractor_size: int


# ---------------------------------------------------------------------------
# Direct iteration


def orbit_brute(D: DiffOperator, f: CyclicSeq, max_steps: int | None = None) -> OrbitSummary:
    """Exact preperiod/period by one walk that keeps every state it visits.

    The first state seen twice is the attractor entry and the states seen
    are the orbit, preperiod + period of them; a second walk from f to that
    entry counts the preperiod, so the walks make at most
    2*preperiod + period steps. `max_steps` bounds the orbit size, and so
    the states held; the default is min(q^n, STATE_CAP).
    """
    D.check_dimensions(f)
    if max_steps is None:
        max_steps = min(f.spec.q**f.n, STATE_CAP)
    # iterate on the state in the operator's ring
    step = D.step
    x0 = x = D.ring.enter(f.value_encs)
    seen = set()
    while x not in seen:
        if len(seen) >= max_steps:
            raise ResourceLimitError(
                f"orbit exceeds the configured cap of {max_steps} states")
        seen.add(x)
        x = step(x)
    mu, y = 0, x0
    while y != x:
        y = step(y)
        mu += 1
    return OrbitSummary(mu, len(seen) - mu, CyclicSeq(f.spec, D.ring.leave(x)))


# ---------------------------------------------------------------------------
# Algebraic route


class _OrbitAnalyzer:
    """The operator on each component pi^e of t^n - 1, in crt_split order:
    its residues mod every pi^e come from one descent (crt_residues), and
    one _order_prime_power call per component reads a residue. op_vals
    holds the valuations min(v_pi, e). On a live component (valuation 0)
    the operator is a unit and orders[m] is its multiplicative order mod
    pi^m; on a dead one orders is None. No valuation map is built: that
    serves states. period_masks, for e = 1, and squares are built on first
    need.
    """

    def __init__(self, D: DiffOperator):
        self.D, self.q = D, D.spec.q
        self.factors = crt_split(D.spec, D.n)
        self.op_vals, self.orders = zip(*(
            _order_prime_power(r, c.pi, c.e)
            for r, c in zip(crt_residues(D.op_poly, D.n), self.factors)))
        # a unit of the algebra (valuation 0 everywhere) has the longest
        # tail and the longest cycle
        self.max_preperiod, self.max_period = self.analyze((0,) * len(self.factors))

    def analyze(self, f_vals: tuple[int, ...]) -> tuple[int, int]:
        """(preperiod, period) of a state from its component valuations."""
        pre, per = 0, 1
        for c, val, orders, v in zip(self.factors, self.op_vals, self.orders, f_vals):
            e = c.e
            if v == e:
                continue
            if orders is not None:
                per = math.lcm(per, orders[e - v])
            else:
                # the residue dies once k*val + v reaches e
                pre = max(pre, -(-(e - v) // val))
        return pre, per

    @cached_property
    def squares(self) -> list[int]:
        """op^(2^i) in the operator's ring for i < max_preperiod.bit_length(),
        so a preperiod's power of op is a product of them."""
        mul, x = self.D.ring.mul, self.D.op
        out = [x]
        for _ in range(1, self.max_preperiod.bit_length()):
            x = mul(x, x)
            out.append(x)
        return out

    @cached_property
    def period_masks(self) -> tuple[int, ...]:
        """For e = 1: per prime l of max_period, the bit mask of the live
        components whose order holds all of max_period's l-part, i.e. does
        not divide max_period / l. An order mod pi divides q^deg pi - 1,
        whose factorization factor_int keeps, so the primes come from there
        and max_period itself is never factored."""
        top = self.max_period
        ells = sorted({ell for d in {c.d for c in self.factors}
                       for ell in factor_int(self.q**d - 1) if top % ell == 0})
        return tuple(sum(1 << k for k, orders in enumerate(self.orders)
                         if orders is not None and top // ell % orders[1])
                     for ell in ells)


@lru_cache(maxsize=256)
def _analyzer(D: DiffOperator) -> _OrbitAnalyzer:
    return _OrbitAnalyzer(D)


def orbit_from_valuations(D: DiffOperator, f_vals: tuple[int, ...]) -> tuple[int, int]:
    """(preperiod, period) of a state under D from its seq_valuations."""
    return _analyzer(D).analyze(f_vals)


def orbit_algebraic(D: DiffOperator, f: CyclicSeq) -> OrbitSummary:
    """Preperiod/period from component valuations and unit orders; the
    attractor entry D^pre f in the operator's ring, the state multiplied by
    the analyzer's op^(2^i) for each set bit i of pre."""
    D.check_dimensions(f)
    an = _analyzer(D)
    pre, per = an.analyze(seq_valuations(f))
    ring = D.ring
    x = reduce(ring.mul, [s for i, s in enumerate(an.squares) if pre >> i & 1],
               ring.enter(f.value_encs))
    return OrbitSummary(pre, per, CyclicSeq(f.spec, ring.leave(x)))


def period_masks(D: DiffOperator) -> tuple[int, ...]:
    """For n coprime to the characteristic: bit masks over the components
    of t^n - 1, in crt_split order. A state's period is the lcm of the
    orders on the live components where it does not vanish, so it is
    max_period exactly when each mask holds such a component."""
    if D.n % D.spec.p == 0:
        raise DomainError("period masks need n coprime to the characteristic")
    return _analyzer(D).period_masks


def max_period(D: DiffOperator) -> int:
    """Largest orbit period over all states: lcm of live-component orders."""
    return _analyzer(D).max_period


def max_preperiod(D: DiffOperator) -> int:
    """Largest preperiod over all states: worst nilpotency index."""
    return _analyzer(D).max_preperiod


def cycle_spectrum(D: DiffOperator) -> dict[int, int]:
    """Exact {cycle length: count} for the map f -> Df on all q^n states.

    Attractor states are products of live-component values, and a product's
    period is the lcm of its parts' periods, so the per-component period
    histograms combine by lcm-convolution.
    """
    q = D.spec.q
    an = _analyzer(D)
    states = {1: 1}  # {period: number of attractor states with that period}
    for c, orders in zip(an.factors, an.orders):
        if orders is None:
            continue
        # {period: residues mod pi^e}: zero has period 1, and the
        # q^(d(e-v)) - q^(d(e-v-1)) residues of valuation v < e have orders[e-v]
        d, e = c.d, c.e
        counts: dict[int, int] = {1: 1}
        for v in range(e):
            t = orders[e - v]
            counts[t] = counts.get(t, 0) + q ** (d * (e - v)) - q ** (d * (e - v - 1))
        combined: dict[int, int] = {}
        for a, ca in states.items():
            for t, ct in counts.items():
                ell = math.lcm(a, t)
                combined[ell] = combined.get(ell, 0) + ca * ct
        states = combined
    return {ell: cnt // ell for ell, cnt in sorted(states.items())}


# ---------------------------------------------------------------------------
# Full state-space enumeration


def state_of_index(spec: FieldSpec, n: int, idx: int) -> tuple[int, ...]:
    """The state whose values are the base-q digits of idx, most
    significant first."""
    return digits(idx, spec.q, n)[::-1]


def index_of_state(spec: FieldSpec, v: tuple[int, ...]) -> int:
    return undigits(v[::-1], spec.q)


def successor_array(D: DiffOperator, cap: int = STATE_CAP):
    """succ[i] = index of D applied to the i-th state (big-endian indexing),
    as a numpy int64 array.

    D is GF(p)-linear and a state index read in base p is a GF(p)-coordinate
    vector of the state, so the n*e images of the states p^k fix every
    successor.
    """
    import numpy as np
    spec, n = D.spec, D.n
    total = spec.q**n
    if total > cap:
        raise ResourceLimitError(
            f"state space {spec.q}^{n} exceeds cap {cap}; use cycle_spectrum instead")
    p, width = spec.p, n * spec.e
    basis = []
    for k in range(width):
        w = index_of_state(spec, D.apply_values(state_of_index(spec, n, p**k)))
        basis.append(digits(w, p, width))
    weights = p ** np.arange(width, dtype=np.int64)
    succ = np.empty(total, dtype=np.int64)
    start = 0
    for planes in linear_images(p, basis):
        # einsum casts the planes in small buffers; np.dot would copy them to int64
        stop = start + planes.shape[1]
        np.einsum("k,kn->n", weights, planes, out=succ[start:stop])
        start = stop
    return succ


def orbit_pass(succ):
    """(pre, per, levels, rank) for the functional graph i -> succ[i].

    pre and per are int64 arrays of every state's preperiod and period,
    levels[k] lists the states of preperiod k in increasing order, and
    rank[i] is state i's position in its level. Each loop runs once per
    image round, level or doubling, never per state: the attractor is the
    image of the image ... once the count stops falling, level k is the
    unassigned states whose successor lies on level k - 1, and each cycle
    is labelled by its least state through pointer doubling, so a period is
    the size of its label's class.
    """
    import numpy as np
    succ = np.asarray(succ, dtype=np.int64)
    total = len(succ)
    on = np.zeros(total, dtype=bool)
    on[succ] = True
    count = np.count_nonzero(on)
    while True:
        image = np.zeros(total, dtype=bool)
        image[succ[on]] = True
        image_count = np.count_nonzero(image)
        if image_count == count:
            break
        on, count = image, image_count
    pre = np.full(total, -1, dtype=np.int64)
    pre[on] = 0
    levels = [np.flatnonzero(on)]
    rest = np.flatnonzero(~on)
    rest_succ = succ[rest]
    while rest.size:
        hit = pre[rest_succ] == len(levels) - 1
        level = rest[hit]
        pre[level] = len(levels)
        levels.append(level)
        rest, rest_succ = rest[~hit], rest_succ[~hit]
    # after r rounds label[i] is the least attractor position among the 2^r
    # states from i on and jump[i] the 2^r-th successor; a round that
    # changes no label means every window covers its whole cycle
    cycle = levels[0]
    label = np.arange(cycle.size)
    rank = np.empty(total, dtype=np.int64)
    rank[cycle] = label
    jump = rank[succ[cycle]]
    while True:
        wider = np.minimum(label, label[jump])
        if np.array_equal(wider, label):
            break
        label, jump = wider, jump[jump]
    per = np.empty(total, dtype=np.int64)
    per[cycle] = np.bincount(label)[label]
    for level in levels[1:]:
        per[level] = per[succ[level]]
        rank[level] = np.arange(level.size)
    return pre, per, levels, rank


def orbit_table(D: DiffOperator, cap: int = STATE_CAP):
    """(preperiod, period) arrays for every state, from one orbit_pass over
    the successor array; this is the exhaustive oracle used by the sweep
    tests.
    """
    return orbit_pass(successor_array(D, cap))[:2]


def graph_summary(succ) -> GraphSummary:
    """Spectrum, tree depth and tree isomorphism check of the functional
    graph i -> succ[i].

    A state's tree shape is its row of child counts over the distinct shapes
    one level deeper (attractor-to-attractor edges excluded), so the levels
    are named from the deepest up, and np.unique gives ids that are
    canonical within a level. The AHU string is built once per distinct
    shape, and only when every tree has one shape.
    """
    import numpy as np
    succ = np.asarray(succ, dtype=np.int64)
    pre, per, levels, rank = orbit_pass(succ)
    cycle = levels[0]
    lengths, states = np.unique(per[cycle], return_counts=True)
    # an L-cycle holds L attractor states of period L
    spectrum = {int(L): int(c) // int(L) for L, c in zip(lengths, states)}
    ids = np.zeros(len(levels[-1]), dtype=np.int64)
    kinds = [np.zeros((1, 0), dtype=np.int64)]  # the deepest level: leaves
    for k in range(len(levels) - 1, 0, -1):
        parent = rank[succ[levels[k]]]
        width = len(kinds[-1])
        rows = np.bincount(parent * width + ids, minlength=len(levels[k - 1]) * width)
        rows = rows.reshape(-1, width)
        # number the distinct rows one column at a time: equal rows get
        # equal ids and distinct rows distinct ones
        ids = np.zeros(len(rows), dtype=np.int64)
        for col in rows.T:
            _, first, ids = np.unique(ids * (col.max() + 1) + col,
                                      return_index=True, return_inverse=True)
        kinds.append(rows[first])
    all_iso = len(kinds[-1]) == 1  # a finite functional graph has a cycle
    tree_hash = None
    if all_iso:
        codes = ["()"]
        for kind in kinds[1:]:
            order = sorted(range(len(codes)), key=codes.__getitem__)
            codes = ["(" + "".join(codes[c] * int(row[c]) for c in order) + ")"
                     for row in kind]
        tree_hash = hashlib.sha256(codes[0].encode()).hexdigest()[:16]
    return GraphSummary(
        state_count=len(succ),
        cycle_spectrum=spectrum,
        tree_depth=len(levels) - 1,
        tree_shape_hash=tree_hash,
        # state 0 is the zero sequence and D0 = 0, so its preimages are the
        # kernel of D, and every image has that many preimages
        per_node_indegree=int(np.count_nonzero(succ == 0)),
        all_trees_isomorphic=all_iso,
        attractor_size=len(cycle),
    )


def build_graph(D: DiffOperator, cap: int = STATE_CAP) -> tuple[GraphSummary, list[int]]:
    """Full functional graph: spectrum, tree depth, tree isomorphism check.

    Everything is read from the successor array and one orbit pass over it,
    with no polynomial algebra, so it checks the algebraic route
    independently.
    Returns the summary and the successor list (the edge list i -> succ[i]).
    """
    succ = successor_array(D, cap)
    return graph_summary(succ), succ.tolist()


def graph_dot(D: DiffOperator, succ: list[int]) -> str:
    """DOT rendering of the functional graph, each state's label built once."""
    sep = "" if D.spec.q <= 10 else ","
    labels = [sep.join(map(str, state_of_index(D.spec, D.n, i))) for i in range(len(succ))]
    edges = [f'  "{labels[i]}" -> "{labels[s]}";' for i, s in enumerate(succ)]
    return "\n".join(["digraph ffdyn {", *edges, "}"]) + "\n"
