from fractions import Fraction

from ffdyn.verify import _bound_holds


def test_bound_holds_matches_the_rational_form():
    """_bound_holds(A, n, d) against (1 - 1/A)^k >= (n/(n+1))^(d*k) on full
    rationals, for every k, over a grid where the Bernoulli filter
    A*d >= n + d settles some inputs and leaves others, true and false, to
    the exact comparison."""
    fallback = set()
    for A in range(2, 40):
        for n in range(1, 80):
            for d in range(1, 9):
                for k in (1, 2, 5):
                    want = Fraction(A - 1, A) ** k >= Fraction(n, n + 1) ** (d * k)
                    assert _bound_holds(A, n, d) is want, (A, n, d, k)
                    if A * d < n + d:
                        fallback.add(want)
    assert fallback == {True, False}

