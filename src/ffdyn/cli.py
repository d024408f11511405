"""Command-line interface.

JSON (schema "ffdyn-report/1") is the stable machine surface; text output is
human-oriented and may change. Exit codes: 0 success, 1 verification failure
or resource cap, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import complexity, dynamics, groupalg, seqgen, verify
from .errors import DomainError, ResourceLimitError
from .ffield import FieldSpec, parse_ints

SCHEMA = "ffdyn-report/1"

# cap on --n. Every route holds at least the n values of one sequence or of
# t^n - 1, and the cheapest report, gen --gen const, costs about 0.6 us and
# 110 bytes a value: 0.6 s and 112 MB peak at the cap (GF(2); spectrum at
# the cap takes 9 s and 104 MB; Python 3.11.7 on a shared 2-vCPU VM)
LENGTH_CAP = 2**20


def _field_from_args(args) -> FieldSpec:
    mod = parse_ints(args.mod, "--mod") if args.mod is not None else None
    return FieldSpec.of_order(args.q, args.p, args.e, mod)


def _sequences_from_args(args, spec: FieldSpec) -> list[groupalg.CyclicSeq]:
    if (args.seq is None) == (args.gen is None):
        raise DomainError("exactly one of --seq or --gen is required")
    if args.seq is not None:
        values = parse_ints(args.seq, "--seq")
        if args.n is not None and args.n != len(values):
            raise DomainError(f"--n {args.n} does not match {len(values)} values")
        return [groupalg.CyclicSeq(spec, values)]
    if args.n is None:
        raise DomainError("--gen requires --n")
    return seqgen.GeneratorSpec(args.gen, args.seed).build(spec, args.n)


def _n_from_args(args) -> int:
    if args.n is None:
        raise DomainError("--n is required")
    return args.n


def _operator_from_args(args, spec: FieldSpec, n: int) -> groupalg.DiffOperator:
    if args.op is not None:
        return groupalg.build_operator(spec, n, parse_ints(args.op, "--op"))
    return groupalg.delta_operator(spec, n)


def _check_caps(args):
    """A cap is a count, so a negative one is a usage error; a length above
    LENGTH_CAP is refused before anything of that length is built."""
    for flag in ("cap_states", "cap_ops"):
        if getattr(args, flag, 0) < 0:
            raise DomainError(f"--{flag.replace('_', '-')} must be >= 0")
    n = getattr(args, "n", None)
    if n is not None and n > LENGTH_CAP:
        raise ResourceLimitError(f"length {n} exceeds the cap {LENGTH_CAP}")


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on int-to-str digits (3.11 and later) inside the
    block only: a count such as q^n can pass its default of 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _verdict_json(verdict: complexity.ComplexityVerdict) -> dict:
    return {
        "isDelta1": verdict.is_delta1,
        "isDelta2": verdict.is_delta2,
        "isDComplicated": verdict.is_d_complicated,
        "method": verdict.method,
        "witness": str(verdict.witness) if verdict.witness is not None else None,
    }


# -- subcommand handlers ------------------------------------------------------
# Each returns its report dict (main adds schema and command and writes JSON)
# or its rendered text; verify also returns whether the suite passed.


def _cmd_classify(args):
    spec = _field_from_args(args)
    seqs = _sequences_from_args(args, spec)
    reports = []
    for f in seqs:
        verdict = complexity.classify(f, op_cap=args.cap_ops, state_cap=args.cap_states)
        reports.append({"sequence": groupalg.seq_to_json(f),
                        "verdict": _verdict_json(verdict)})
    return {"results": reports}


def _cmd_orbit(args):
    spec = _field_from_args(args)
    f = _sequences_from_args(args, spec)[0]
    D = _operator_from_args(args, spec, f.n)
    try:
        s = dynamics.orbit_algebraic(D, f)
    except ResourceLimitError:
        # order computation hit the factoring cap; fall back to iteration
        # when the state space is small enough to walk
        if spec.q**f.n > args.cap_states:
            raise
        s = dynamics.orbit_brute(D, f, max_steps=args.cap_states)
    return {
        "sequence": groupalg.seq_to_json(f),
        "operator": str(D.op_poly),
        "preperiod": s.preperiod, "period": s.period,
        "attractorEntry": list(s.attractor_entry.value_encs),
    }


def _cmd_spectrum(args):
    spec = _field_from_args(args)
    n = _n_from_args(args)
    D = _operator_from_args(args, spec, n)
    spectrum = dynamics.cycle_spectrum(D)
    if args.format == "csv":
        with _unlimited_int_digits():
            lines = ["length,count"] + [f"{k},{v}" for k, v in spectrum.items()]
        return "\n".join(lines) + "\n"
    return {
        "q": spec.q, "n": n, "operator": str(D.op_poly),
        "stateCount": spec.q**n,
        "spectrum": {str(k): v for k, v in spectrum.items()},
    }


def _cmd_graph(args):
    spec = _field_from_args(args)
    n = _n_from_args(args)
    D = _operator_from_args(args, spec, n)
    summary, succ = dynamics.build_graph(D, cap=args.cap_states)
    if args.format == "dot":
        return dynamics.graph_dot(D, succ)
    return {
        "q": spec.q, "n": n, "operator": str(D.op_poly),
        "stateCount": summary.state_count,
        "spectrum": {str(k): v for k, v in summary.cycle_spectrum.items()},
        "attractorSize": summary.attractor_size,
        "treeDepth": summary.tree_depth,
        "treeShapeHash": summary.tree_shape_hash,
        "allTreesIsomorphic": summary.all_trees_isomorphic,
        "perNodeIndegree": summary.per_node_indegree,
    }


def _cmd_census(args):
    spec = _field_from_args(args)
    n = _n_from_args(args)
    rep = complexity.census(spec, n, cap=args.cap_states)
    if args.format == "csv":
        lines = ["n,q,d,quota,censusCount,stateCount",
                 f"{rep.n},{rep.q},{rep.d},{rep.quota_formula},{rep.census_count},{rep.state_count}"]
        return "\n".join(lines) + "\n"
    return {
        "n": rep.n, "q": rep.q, "d": rep.d,
        "quotaFormula": str(rep.quota_formula),
        "censusCount": rep.census_count,
        "stateCount": rep.state_count,
        "censusQuota": str(rep.census_quota),
        "matchesFormula": rep.census_quota == rep.quota_formula,
    }


def _cmd_gen(args):
    spec = _field_from_args(args)
    n = _n_from_args(args)
    seqs = seqgen.GeneratorSpec(args.gen, args.seed).build(spec, n)
    if args.format == "text":
        return "".join(groupalg.seq_text(f) + "\n" for f in seqs)
    return {"sequences": [groupalg.seq_to_json(f) for f in seqs]}


def _cmd_verify(args):
    report = verify.SUITES[args.suite]()
    if args.format == "json":
        return report, report["ok"]
    lines = []
    for row in report["rows"]:
        status = row.get("status", "PASS" if row.get("ok", True) else "FAIL")
        detail = " ".join(f"{k}={v}" for k, v in row.items()
                          if k not in ("ok", "status"))
        lines.append(f"{status:4s} {detail}")
    lines.append(f"suite {report['suite']}: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n", report["ok"]


# -----------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a one-line message, like every other bad input."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every main call shares it."""
    parser = _Parser(
        prog="ffdyn",
        description="Finite-difference dynamics on cyclic sequences over GF(q)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices=("json",), cap_states=False, cap_ops=False, seed=False):
        p.add_argument("--q", type=int, help="field order (prime power)")
        p.add_argument("--p", type=int, help="characteristic (with --e/--mod)")
        p.add_argument("--e", type=int, help="extension degree (default 1 with --p)")
        p.add_argument("--mod", help="extension modulus coefficients, low-to-high")
        p.add_argument("--n", type=int, help="sequence length")
        p.add_argument("--format", choices=fmt_choices, default="json")
        p.add_argument("--out", help="write output to FILE instead of stdout")
        if cap_states:
            p.add_argument("--cap-states", type=int, default=dynamics.STATE_CAP)
        if cap_ops:
            p.add_argument("--cap-ops", type=int, default=complexity.OP_CAP)
        if seed:
            p.add_argument("--seed", type=int, help="PRNG seed for random generation")

    def add_seq_source(p):
        p.add_argument("--seq", help="comma-separated values for i = 1..n")
        p.add_argument("--gen", choices=seqgen.KINDS, help="named generator")

    p = sub.add_parser("classify", help="complexity verdict for sequences")
    add_common(p, cap_states=True, cap_ops=True, seed=True)
    add_seq_source(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("orbit", help="preperiod and period under an operator")
    add_common(p, cap_states=True, seed=True)
    add_seq_source(p)
    p.add_argument("--op", help="operator coefficients d_1..d_m")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("spectrum", help="exact cycle spectrum (algebraic)")
    add_common(p, ("json", "csv"))
    p.add_argument("--op", help="operator coefficients d_1..d_m")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("graph", help="full functional graph (enumerative)")
    add_common(p, ("json", "dot"), cap_states=True)
    p.add_argument("--op", help="operator coefficients d_1..d_m")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("census", help="exhaustive quota census for prime n")
    add_common(p, ("json", "csv"), cap_states=True)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("gen", help="emit named sequences")
    add_common(p, ("json", "text"), seed=True)
    p.add_argument("--gen", choices=seqgen.KINDS, required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run a named verification sweep")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write output to FILE instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_caps(args)
        output = args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 1
    output, ok = output if isinstance(output, tuple) else (output, True)
    if isinstance(output, dict):
        report = {"schema": SCHEMA, "command": args.command, **output}
        with _unlimited_int_digits():
            output = json.dumps(report, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0 if ok else 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
