"""Differential tests against sympy for prime fields at medium sizes."""

import pytest

sympy = pytest.importorskip("sympy")

from ffdyn import FieldSpec  # noqa: E402
from ffdyn.groupalg import crt_split  # noqa: E402
from ffdyn.intfactor import is_prime  # noqa: E402
from ffdyn.polyring import mult_order_int  # noqa: E402

T = sympy.Symbol("t")
LENGTHS = [1, 2, 6, 15, 31, 63, 64, 81, 105, 127, 210, 243, 255, 300]


def sympy_factors(p, n):
    """{(monic factor low-to-high, multiplicity)} of t^n - 1 over GF(p)."""
    _unit, factors = sympy.Poly(T**n - 1, T, modulus=p).factor_list()
    out = set()
    for f, mult in factors:
        c = [int(x) % p for x in reversed(f.all_coeffs())]
        inv = pow(c[-1], p - 2, p)
        out.add((tuple(x * inv % p for x in c), mult))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_crt_split_matches_sympy(p):
    spec = FieldSpec(p)
    for n in LENGTHS:
        ours = {(pi.coeff_encs, e) for pi, e in crt_split(spec, n)}
        assert ours == sympy_factors(p, n), n


def test_mult_order_int_matches_sympy():
    for n in [m for m in range(3, 2000) if is_prime(m)][::7]:
        for base in (2, 3, 5, 7, 10):
            if base % n:
                assert mult_order_int(base, n) == sympy.n_order(base, n), (base, n)
