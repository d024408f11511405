import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ffdyn
from conftest import F2, F3, F4
from ffdyn import CyclicSeq, DiffOperator, DomainError, FieldSpec, Poly, cli, crt_split, dynamics
from ffdyn.cli import main
from ffdyn.complexity import d_complicated_gcd
from ffdyn.errors import ResourceLimitError
from ffdyn.intfactor import factor_int
from ffdyn.polyring import powmod
from ffdyn.seqgen import legendre_seq, primitive_root_mod


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_classify_legendre(capsys):
    code, report = run_json(capsys, "classify", "--q", "2", "--n", "5",
                            "--gen", "legendre")
    assert code == 0
    assert report["schema"] == "ffdyn-report/1"
    verdict = report["results"][0]["verdict"]
    assert verdict["isDComplicated"] is True
    assert verdict["method"] == "lemma1-gcd"


def test_classify_legendre_past_the_factoring_cap(capsys):
    """At q = 2, n = 1021 the Legendre sequence is D-complicated, so its
    verdict needs no unit order, and 2^340 - 1, whose cofactor factor_int
    cannot split, is never factored."""
    code, report = run_json(capsys, "classify", "--q", "2", "--n", "1021", "--gen", "legendre")
    assert code == 0
    verdict = report["results"][0]["verdict"]
    assert verdict["isDComplicated"] is d_complicated_gcd(legendre_seq(F2, 1021)) is True


def test_classify_literal_sequence(capsys):
    code, report = run_json(capsys, "classify", "--q", "2", "--seq", "1,1,1")
    assert code == 0
    assert report["results"][0]["verdict"]["isDComplicated"] is False


def test_orbit_example(capsys):
    code, report = run_json(capsys, "orbit", "--q", "2", "--seq", "1,0,0")
    assert code == 0
    assert report["preperiod"] == 1 and report["period"] == 3
    assert report["attractorEntry"] == [1, 0, 1]


def test_orbit_with_explicit_operator(capsys):
    code, report = run_json(capsys, "orbit", "--q", "2", "--seq", "1,0,0",
                            "--op", "0,1")
    assert code == 0
    assert report["operator"] == "1,1"


def test_census_n7(capsys):
    code, report = run_json(capsys, "census", "--q", "2", "--n", "7")
    assert code == 0
    assert report["censusCount"] == 98
    assert report["stateCount"] == 128
    assert report["matchesFormula"] is True
    assert report["quotaFormula"] == "49/64"


def test_readme_census_fits_the_default_state_cap(capsys):
    """The README example: 3^13 states, above 2^20 and within STATE_CAP."""
    code, report = run_json(capsys, "census", "--q", "3", "--n", "13")
    assert code == 0
    assert report["stateCount"] == 3**13 <= dynamics.STATE_CAP
    assert report["matchesFormula"] is True


def test_census_csv(capsys):
    code, out = run_cli(capsys, "census", "--q", "2", "--n", "3",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,q,d,quota,censusCount,stateCount"
    assert out.splitlines()[1] == "3,2,2,3/4,6,8"


def test_spectrum_json_and_csv(capsys):
    code, report = run_json(capsys, "spectrum", "--q", "2", "--n", "3")
    assert code == 0
    assert report["spectrum"] == {"1": 1, "3": 1}
    code, out = run_cli(capsys, "spectrum", "--q", "2", "--n", "5",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["length,count", "1,1", "15,1"]


def test_graph_json(capsys):
    code, report = run_json(capsys, "graph", "--q", "2", "--n", "3")
    assert code == 0
    assert report["stateCount"] == 8
    assert report["allTreesIsomorphic"] is True
    assert report["perNodeIndegree"] == 2


def test_graph_dot(capsys):
    code, out = run_cli(capsys, "graph", "--q", "2", "--n", "2",
                        "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 4


# sha256 of `ffdyn graph` stdout, JSON and DOT; GF(4) n = 6 has p | n, so
# deep trees, and the outputs must not change with the graph's algorithm
GRAPH_SHA256 = {
    ("2", "12", "json"): "edfd1ccb59e5dd7d163e1e9b38debf5aef32e4a2a09558b5ec7947867ea5be67",
    ("2", "12", "dot"): "936368244b0ece7d81cf40bcb0891f8e847ab77bc62445af769be5e9bcb53ced",
    ("9", "4", "json"): "37a4452088245177ed425e0ee435e08b49bc13f0a04091105920141dcdfaa710",
    ("9", "4", "dot"): "cc994e48b45cff91f7ecea852bc5852f3efb46e53d471d5be75582aaaf8e3d5e",
    ("4", "6", "json"): "deb5178f8f5619cf597465e62f8aca7eef6d8744d6c7cb860b19c8d598eff12b",
    ("4", "6", "dot"): "cc351df47d5a676cae0a3eedaffa0cde43a983934a32cc5c2afc596ebb7e2a28",
}


@pytest.mark.parametrize("q, n, fmt", GRAPH_SHA256, ids="-".join)
def test_graph_output_is_pinned(capsys, q, n, fmt):
    code, out = run_cli(capsys, "graph", "--q", q, "--n", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_SHA256[q, n, fmt]


def test_gen_commands(capsys):
    code, report = run_json(capsys, "gen", "--q", "2", "--n", "4",
                            "--gen", "arnold")
    assert code == 0
    assert report["sequences"][0]["values"] == [0, 1, 1, 0]
    code, report = run_json(capsys, "gen", "--q", "3", "--n", "5",
                            "--gen", "mult")
    assert [s["values"] for s in report["sequences"]] == \
        [[1, 1, 1, 1, 0], [1, 2, 2, 1, 0]]
    code, out = run_cli(capsys, "gen", "--q", "2", "--n", "4", "--gen", "alt", "--format", "text")
    assert (code, out) == (0, "q=2 n=4 1,0,1,0\n")


def test_gen_random_is_seed_deterministic(capsys):
    _, a = run_cli(capsys, "gen", "--q", "5", "--n", "6", "--gen", "random",
                   "--seed", "42")
    _, b = run_cli(capsys, "gen", "--q", "5", "--n", "6", "--gen", "random",
                   "--seed", "42")
    _, c = run_cli(capsys, "gen", "--q", "5", "--n", "6", "--gen", "random",
                   "--seed", "43")
    assert a == b
    assert a != c


def test_extension_field_flags(capsys):
    code, report = run_json(capsys, "census", "--p", "2", "--e", "2",
                            "--mod", "1,1,1", "--n", "3")
    assert code == 0
    assert report["censusCount"] == 36


def test_q_flag_keeps_the_given_modulus(capsys):
    by_q = run_cli(capsys, "gen", "--q", "9", "--mod", "2,2,1", "--n", "3", "--gen", "const")
    by_pe = run_cli(capsys, "gen", "--p", "3", "--e", "2", "--mod", "2,2,1", "--n", "3",
                    "--gen", "const")
    assert by_q == by_pe
    assert json.loads(by_q[1])["sequences"][0]["field"] == "q=9;p=3;e=2;mod=2,2,1"


def test_orbit_falls_back_to_iteration_on_a_factoring_cap(capsys, monkeypatch):
    _, want = run_cli(capsys, "orbit", "--q", "2", "--seq", "1,0,0")

    def capped(D, f):
        raise ResourceLimitError("factoring cap")
    monkeypatch.setattr(dynamics, "orbit_algebraic", capped)
    assert run_cli(capsys, "orbit", "--q", "2", "--seq", "1,0,0") == (0, want)
    # a state space above --cap-states is not walked
    assert main(["orbit", "--q", "2", "--seq", "1,0,0", "--cap-states", "4"]) == 1
    assert capsys.readouterr() == ("", "resource limit: factoring cap\n")


def test_any_consistent_part_of_q_p_e_names_the_field(capsys):
    for field, want in ((["--q", "9", "--p", "3"], "q=9;p=3;e=2;mod=1,0,1"),
                        (["--q", "8", "--p", "2"], "q=8;p=2;e=3;mod=1,1,0,1"),
                        (["--q", "4", "--e", "2"], "q=4;p=2;e=2;mod=1,1,1"),
                        (["--q", "4", "--mod", "1,1,1"], "q=4;p=2;e=2;mod=1,1,1")):
        code, report = run_json(capsys, "gen", *field, "--n", "2", "--gen", "const")
        assert code == 0
        assert report["sequences"][0]["field"] == want


def test_large_prime_powers_are_recognized_without_factoring(capsys):
    """q = (2^61 - 1)^2 names the same field as --p 2^61 - 1 --e 2, and
    q = (2^61 - 1)(2^89 - 1) is refused as no prime power (exit 2), though
    factoring either q is beyond factor_int's effort caps."""
    m61, m89 = 2**61 - 1, 2**89 - 1
    by_q = run_cli(capsys, "gen", "--q", str(m61**2), "--n", "2", "--gen", "const")
    by_pe = run_cli(capsys, "gen", "--p", str(m61), "--e", "2", "--n", "2", "--gen", "const")
    assert by_q == by_pe and by_q[0] == 0
    assert main(["gen", "--q", str(m61 * m89), "--n", "2", "--gen", "const"]) == 2
    assert capsys.readouterr().err == f"error: {m61 * m89} is not a prime power\n"


@pytest.mark.parametrize("argv", [("spectrum",), ("gen", "--gen", "const")],
                         ids=["spectrum", "gen-const"])
def test_a_length_too_large_to_allocate_is_a_resource_limit(capsys, monkeypatch, argv):
    """With the length cap lifted past n = 10^14, the first n-coefficient
    allocation fails at once (it asks for 8 * 10^14 bytes); the report is
    one line and exit 1."""
    monkeypatch.setattr(cli, "LENGTH_CAP", 10**15)
    assert main([argv[0], "--q", "2", "--n", str(10**14), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", "resource limit: out of memory\n")


@pytest.mark.parametrize("argv", [
    ("classify", "--gen", "random", "--seed", "1"), ("classify", "--gen", "legendre"),
    ("orbit", "--gen", "const"), ("spectrum",), ("graph",), ("census",),
    ("gen", "--gen", "const")])
def test_a_length_above_the_cap_is_refused_at_once(capsys, monkeypatch, argv):
    """n = 10^20 - 1 would overflow an allocation, or loop for ages over
    random or Legendre values; every subcommand refuses it before building
    anything of that length, as it does the cap plus one. The cap itself is
    taken (gen, under a cap of 64)."""
    for n in (10**20 - 1, cli.LENGTH_CAP + 1):
        assert main([argv[0], "--q", "2", "--n", str(n), *argv[1:]]) == 1
        assert capsys.readouterr() == (
            "", f"resource limit: length {n} exceeds the cap {cli.LENGTH_CAP}\n")
    if argv[0] == "gen":
        monkeypatch.setattr(cli, "LENGTH_CAP", 64)
        code, report = run_json(capsys, "gen", "--q", "2", "--n", "64", "--gen", "const")
        assert code == 0 and len(report["sequences"][0]["values"]) == 64


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "orbit", "--q", "2", "--seq", "1,0,0",
                        "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["period"] == 3


def test_verify_arnold_delta2(capsys):
    code, report = run_json(capsys, "verify", "arnold-delta2")
    assert code == 0
    assert report["ok"] is True
    assert all(r["status"] in ("PASS", "SKIP") for r in report["rows"])


def test_verify_thm3_text_format(capsys):
    code, out = run_cli(capsys, "verify", "thm3", "--format", "text")
    assert code == 0
    assert out.strip().endswith("suite thm3: PASS")


def test_verify_quota_trend_reports_the_known_failure(capsys):
    # quota(127, q=2) = (127/128)^18 < 9/10: the threshold clause cannot
    # hold, so this suite honestly exits nonzero
    code, report = run_json(capsys, "verify", "quota-trend")
    assert code == 1
    failing = [r for r in report["rows"] if not r["ok"]]
    assert [r["n"] for r in failing] == [127]
    assert all(r["boundOk"] for r in report["rows"])
    code, out = run_cli(capsys, "verify", "quota-trend", "--format", "text")
    assert code == 1
    assert out.endswith("suite quota-trend: FAIL\n")


def test_usage_errors_exit_2(capsys):
    # argparse's own errors, dead flags included: each handler registers
    # only the flags it reads
    for argv in (["classify", "--bogus"], ["classify", "--q", "abc"],
                 ["gen", "--q", "2", "--n", "3"],
                 ["spectrum", "--q", "2", "--n", "7", "--seed", "1"],
                 ["spectrum", "--q", "2", "--n", "7", "--cap-states", "9"],
                 ["graph", "--q", "2", "--n", "3", "--cap-ops", "9"],
                 ["census", "--q", "2", "--n", "5", "--seed", "1"],
                 ["gen", "--q", "2", "--n", "3", "--gen", "const", "--cap-ops", "9"],
                 ["orbit", "--q", "2", "--seq", "1,0,0", "--format", "text"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    code, _out = run_cli(capsys, "classify", "--q", "2")
    assert code == 2  # no sequence source
    code, _out = run_cli(capsys, "classify", "--q", "2", "--n", "4",
                         "--seq", "1,0")
    assert code == 2  # --n disagrees with the literal length
    code, _out = run_cli(capsys, "census", "--q", "2", "--n", "6")
    assert code == 2  # composite n
    code, _out = run_cli(capsys, "classify", "--q", "2", "--seq", "1,x")
    assert code == 2  # malformed --seq
    code, _out = run_cli(capsys, "orbit", "--q", "2", "--seq", "1,0,0",
                         "--op", "1,y")
    assert code == 2  # malformed --op
    code, _out = run_cli(capsys, "census", "--p", "2", "--e", "2",
                         "--mod", "1,z", "--n", "3")
    assert code == 2  # malformed --mod
    # contradictory fields, extension degrees below 1, a modulus for a prime
    # field, and a reducible modulus: t^2 + 2 = (t - 1)(t + 1) over GF(3)
    for field in (["--q", "5", "--p", "2", "--e", "2"], ["--q", "4", "--e", "3"],
                  ["--p", "2", "--e", "0"], ["--p", "2", "--e", "-1"],
                  ["--p", "3", "--mod", "9,9"], ["--q", "9", "--mod", "2,0,1"]):
        assert main(["census", *field, "--n", "5"]) == 2, field
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, field
    for argv in (["census", "--q", "2", "--n", "5", "--cap-states", "-1"],
                 ["classify", "--q", "2", "--n", "4", "--gen", "random", "--seed", "1",
                  "--cap-ops", "-1"]):
        assert main(argv) == 2  # a negative cap is a usage error, not a resource limit
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    for argv in (["spectrum", "--q", "2"], ["graph", "--q", "2"],
                 ["census", "--q", "2"], ["gen", "--q", "2", "--gen", "legendre"]):
        assert main(argv) == 2  # --n missing
        err = capsys.readouterr().err
        assert err == "error: --n is required\n"
    assert main(["classify", "--q", "2", "--gen", "legendre"]) == 2
    assert capsys.readouterr().err == "error: --gen requires --n\n"
    for argv in (["gen", "--q", "2", "--n", "3", "--gen", "const", "--mod", ""],
                 ["orbit", "--q", "2", "--seq", "1,0,0", "--op", ""]):
        assert main(argv) == 2  # an empty list is malformed, not absent
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    for n in ("0", "-2"):
        assert main(["graph", "--q", "2", "--n", n]) == 2
        assert capsys.readouterr().err == "error: n must be >= 1\n"


# one library input check per site; main turns each DomainError into exit 2
INPUT_CHECKS = [
    pytest.param(lambda: FieldSpec(2**64 - 59), "characteristic must fit a 64-bit word",
                 id="wide-characteristic"),
    pytest.param(lambda: FieldSpec(2, 2, (1, 1)), "modulus must be monic of degree 2 (low-to-high)",
                 id="short-modulus"),
    pytest.param(lambda: FieldSpec(3, 2, (2, 0, 2)),
                 "modulus must be monic of degree 2 (low-to-high)", id="modulus-not-monic"),
    pytest.param(lambda: F4.element([1, 0, 1]), "too many residues for this field",
                 id="too-many-residues"),
    pytest.param(lambda: CyclicSeq(F2, []), "sequence length must be >= 1", id="empty-sequence"),
    pytest.param(lambda: DiffOperator(F2, 3, Poly(F3, (2, 1))),
                 "operator polynomial from a different field", id="operator-field"),
    pytest.param(lambda: crt_split(F2, 0), "n must be >= 1", id="crt-split-n"),
    pytest.param(lambda: Poly.zero(F2).lc(), "zero polynomial has no leading coefficient",
                 id="lc-of-zero"),
    pytest.param(lambda: Poly.one(F2) + Poly.one(F3), "polynomials over different fields cannot mix",
                 id="mixed-polys"),
    pytest.param(lambda: Poly.x(F2) * F3.one, "scalar from a different field", id="mixed-scalar"),
    pytest.param(lambda: powmod(Poly.x(F2), -1, Poly(F2, (1, 1, 1))), "negative exponent",
                 id="negative-exponent"),
    pytest.param(lambda: primitive_root_mod(8), "8 is not prime", id="primitive-root-mod"),
    pytest.param(lambda: factor_int(0), "factor_int needs n >= 1", id="factor-int"),
]


@pytest.mark.parametrize("call, message", INPUT_CHECKS)
def test_each_input_check_raises_its_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert type(exc.value) is DomainError and str(exc.value) == message


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = main(["classify", "--q", "2", "--seq", "1,0,1,1", "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
    assert not target.parent.exists()


def test_resource_errors_exit_1(capsys):
    code, _out = run_cli(capsys, "graph", "--q", "2", "--n", "12",
                         "--cap-states", "100")
    assert code == 1


def test_determinism_in_process(capsys):
    _, a = run_cli(capsys, "verify", "thm3")
    _, b = run_cli(capsys, "verify", "thm3")
    assert a == b


def test_main_shares_one_parser_across_calls(capsys):
    """The parser is built once per process; a usage error that exits 2
    leaves nothing behind for the next call, in either order."""
    from ffdyn import cli

    assert cli.build_parser() is cli.build_parser()
    good = ["orbit", "--q", "2", "--seq", "1,0,0", "--op", "0,1"]
    bad = ["orbit", "--q", "2", "--seq", "1,0,0", "--op", "0,1", "--format", "text"]
    seen = []
    for argv in (good, bad, good, bad):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        seen.append((code, *capsys.readouterr()))
    assert seen[0] == seen[2] and seen[1] == seen[3]
    assert seen[0][0] == 0 and json.loads(seen[0][1])["operator"] == "1,1"
    assert seen[1] == (2, "", "error: argument --format: invalid choice: 'text' "
                                 "(choose from 'json')\n")


@pytest.mark.parametrize("argv, message", [
    (("census", "--q", "2", "--n", "100003"),
     "census over 2^100003 states exceeds cap 2097152"),
    (("graph", "--q", "2", "--n", "20000"),
     "state space 2^20000 exceeds cap 2097152; use cycle_spectrum instead"),
    (("classify", "--q", "2", "--n", "16384", "--gen", "random", "--seed", "1"),
     "2^16383 - 1 operators exceed the cap 65536"),
    (("classify", "--q", "2", "--n", "4", "--gen", "random", "--seed", "1",
      "--cap-states", "8"),
     "state space 2^4 exceeds the cap 8"),
])
def test_cap_messages_name_the_count_as_a_power(capsys, argv, message):
    # q^n in full would pass Python's 4300-digit limit on int-to-str
    assert main(list(argv)) == 1
    assert capsys.readouterr() == ("", f"resource limit: {message}\n")


def test_spectrum_writes_a_state_count_past_the_int_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run_cli(capsys, "spectrum", "--q", "2", "--n", "16384")
    assert code == 0
    digits = re.search(r'"stateCount": (\d+),', out).group(1)
    value = 0
    for c in digits:  # int(digits) would meet the same limit
        value = value * 10 + int(c)
    assert len(digits) == 4933 and value == 2**16384
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_spectrum_csv_writes_counts_past_the_int_digit_limit(capsys):
    # GF(2), n = 3 * 2^13: the component (t^2 + t + 1)^8192 holds 4^8192
    # states, so some cycle counts have more than 4300 digits
    argv = ("spectrum", "--q", "2", "--n", "24576")
    code, csv = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert max(len(count) for _, count in rows) > 4300
    _, report = run_cli(capsys, *argv)
    assert all(f'"{length}": {count}' in report for length, count in rows)


def test_python_dash_m_ffdyn_runs_the_cli(capsys):
    """python -m ffdyn prints what cli.main prints, with its exit code."""
    code, out = run_cli(capsys, "verify", "thm1")
    src = str(Path(ffdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "ffdyn", "verify", "thm1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (code, out)
