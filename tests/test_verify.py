import json
from fractions import Fraction

import pytest

from ffdyn import complexity, dynamics, polyring
from ffdyn.cli import main
from ffdyn.errors import ResourceLimitError
from ffdyn.verify import _bound_holds, arnold_delta2_suite, thm1_census_suite


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



def test_a_census_mismatch_fails_its_thm1_row(monkeypatch, capsys):
    """A census that disagrees with the quota formula raises in census, and
    thm1 turns it into a failing row with the error, not a crash."""
    counted = complexity._census_count
    monkeypatch.setattr(complexity, "_census_count", lambda spec, n: counted(spec, n) + 1)
    report = thm1_census_suite()
    assert report["rows"] and report["ok"] is False
    for row in report["rows"]:
        assert row["ok"] is False and set(row) == {"n", "q", "error", "ok"}
        assert row["error"].startswith(f"census mismatch for n={row['n']}, q={row['q']}: ")
    assert main(["verify", "thm1"]) == 1
    assert json.loads(capsys.readouterr().out)["rows"] == report["rows"]


@pytest.fixture
def fresh_analyzers():
    dynamics._analyzer.cache_clear()
    yield
    dynamics._analyzer.cache_clear()


def test_a_unit_order_cap_is_an_arnold_skip(monkeypatch, capsys, fresh_analyzers):
    """A unit order that hits a resource cap makes its Arnold row SKIP with
    the cap's message; the suite still passes, so verify exits 0."""
    def capped(*_args):
        raise ResourceLimitError("planted unit-order cap")

    monkeypatch.setattr(polyring, "_unit_order", capped)
    report = arnold_delta2_suite()
    skips = [row for row in report["rows"] if row["status"] == "SKIP"]
    assert skips and all(row["reason"] == "planted unit-order cap" for row in skips)
    assert report["ok"] is True
    assert main(["verify", "arnold-delta2"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == report["rows"]
