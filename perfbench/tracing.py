"""Per-layer tracing from the benchmark's own files.

Two passes, so that neither distorts the other:

* ``SpanRecorder`` wraps the public calls into ``polyring`` and every layer
  above it. Each call made inside a job becomes a span (name, start, end,
  parent, job id) kept in one flat in-memory array and written out when the
  run ends.
* ``CallCounter`` counts the per-coefficient ``FieldSpec`` calls. Wrapping
  those costs several times the call itself, so it runs as its own pass.

Nothing under ``src/`` changes: wrappers replace module and class attributes
after import, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns

# (span name, module, attribute): module-level functions. Every module that
# imported the function by name gets the wrapper too.
SPAN_FUNCTIONS = [
    ("polyring.powmod", "polyring", "powmod"),
    ("polyring.gcd", "polyring", "gcd"),
    ("polyring.factorize", "polyring", "factorize"),
    ("polyring.resultant", "polyring", "resultant"),
    ("polyring._order_prime_power", "polyring", "_order_prime_power"),
    ("intfactor.factor_int", "intfactor", "factor_int"),
    ("intfactor.divisors", "intfactor", "divisors"),
    ("groupalg.crt_split", "groupalg", "crt_split"),
    ("dynamics.max_period", "dynamics", "max_period"),
    ("dynamics.orbit_algebraic", "dynamics", "orbit_algebraic"),
    ("dynamics.orbit_brute", "dynamics", "orbit_brute"),
    ("dynamics.cycle_spectrum", "dynamics", "cycle_spectrum"),
    ("dynamics.build_graph", "dynamics", "build_graph"),
    ("complexity.classify", "complexity", "classify"),
    ("complexity.projection_profile", "complexity", "projection_profile"),
    ("complexity.census", "complexity", "census"),
    ("cli.main", "cli", "main"),
]
# (span name, module, class, method)
SPAN_METHODS = [
    ("polyring.Poly.__mul__", "polyring", "Poly", "__mul__"),
    ("polyring.Poly.__divmod__", "polyring", "Poly", "__divmod__"),
    ("groupalg.DiffOperator.apply_values", "groupalg", "DiffOperator", "apply_values"),
]
VERIFY_SUITES = ["thm1", "thm2", "thm3", "arnold-delta2", "quota-trend"]
FIELD_CALLS = ["add_enc", "sub_enc", "neg_enc", "mul_enc", "inv_enc"]

SPAN_NAMES = ([name for name, *_ in SPAN_FUNCTIONS] + [name for name, *_ in SPAN_METHODS]
              + [f"verify.{s}" for s in VERIFY_SUITES])

# one span = six int64 slots; slot 3 holds the nesting depth of the same name
# below any ancestor of that name, plus FAILED when the call raised
NAME, PARENT, JOB, DEPTH, START, END = range(6)
FAILED = 1 << 32
ROOT = "job"


class SpanRecorder:
    """Spans around calls made while a job is open; calls outside jobs
    (set-up, output checks) pass straight through."""

    def __init__(self):
        self.names = [ROOT] + SPAN_NAMES
        self._id = {n: i for i, n in enumerate(self.names)}
        self.rec = array("q")
        self.stack: list[int] = []
        self.open = [0] * len(self.names)
        self.job_labels: list[str] = []
        self._job = [-1]
        self._undo: list[tuple] = []
        self.factor_args: set[int] = set()
        self.extra = {"intfactor.factor_int.repeats": 0, "intfactor.divisors.returned": 0,
                      "groupalg.crt_split.misses": 0, "complexity.census.states": 0}

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, inner=None):
        nid = self._id[name]
        rec, stack, open_, job = self.rec, self.stack, self.open, self._job
        inner = inner or fn

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            base = len(rec)
            rec.extend((nid, stack[-1], job[0], open_[nid], perf_counter_ns(), 0))
            stack.append(base)
            open_[nid] += 1
            try:
                return inner(*args, **kwargs)
            except BaseException:
                rec[base + DEPTH] += FAILED
                raise
            finally:
                rec[base + END] = perf_counter_ns()
                stack.pop()
                open_[nid] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_job(self, label: str):
        self._job[0] = len(self.job_labels)
        self.job_labels.append(label)
        base = len(self.rec)
        self.rec.extend((0, -1, self._job[0], 0, perf_counter_ns(), 0))
        self.stack.append(base)

    def end_job(self):
        base = self.stack[0]
        self.rec[base + END] = perf_counter_ns()
        # a timeout can leave inner spans open; they keep END == 0
        self.stack.clear()
        self.open[:] = [0] * len(self.open)

    # -- installing ------------------------------------------------------------

    def _observers(self, ff):
        """Inner callables that also collect the per-call statistics."""
        extra, seen = self.extra, self.factor_args
        factor_int = ff.intfactor.factor_int
        divisors = ff.intfactor.divisors
        crt_split = ff.groupalg.crt_split
        census = ff.complexity.census

        def factor_int_seen(n, *args, **kwargs):
            if n in seen:
                extra["intfactor.factor_int.repeats"] += 1
            seen.add(n)
            return factor_int(n, *args, **kwargs)

        def divisors_counted(n):
            out = divisors(n)
            extra["intfactor.divisors.returned"] += len(out)
            return out

        def crt_split_misses(*args):
            before = crt_split.cache_info().misses
            out = crt_split(*args)
            extra["groupalg.crt_split.misses"] += crt_split.cache_info().misses - before
            return out

        def census_states(spec, n, *args, **kwargs):
            extra["complexity.census.states"] += spec.q**n
            return census(spec, n, *args, **kwargs)

        return {"intfactor.factor_int": factor_int_seen, "intfactor.divisors": divisors_counted,
                "groupalg.crt_split": crt_split_misses, "complexity.census": census_states}

    def install(self, ff):
        """Wrap the traced calls of one import of ffdyn."""
        observers = self._observers(ff)
        for name, module, attr in SPAN_FUNCTIONS:
            orig = getattr(getattr(ff, module), attr)
            wrapper = self._wrap(name, orig, observers.get(name))
            for mod in ff.modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for name, module, cls_name, attr in SPAN_METHODS:
            cls = getattr(getattr(ff, module), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, orig))
            self._undo.append((cls, attr, orig))
        suites = ff.verify.SUITES
        for suite in VERIFY_SUITES:
            orig = suites[suite]
            suites[suite] = self._wrap(f"verify.{suite}", orig)
            self._undo.append((suites, suite, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.rec) // 6

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls / busy_s / self_s per span name, plus the per-call statistics.

        busy_s counts a call only when no call of the same name encloses it;
        self_s is a span's duration minus the time its child spans cover.
        """
        rec = self.rec
        n = len(rec) // 6
        child = [0] * n
        for i in range(n):
            b = 6 * i
            parent, end = rec[b + PARENT], rec[b + END]
            if parent >= 0 and end:
                child[parent // 6] += end - rec[b + START]
        k = len(self.names)
        calls, busy, self_ns, failed = [0] * k, [0] * k, [0] * k, [0] * k
        for i in range(n):
            b = 6 * i
            end = rec[b + END]
            if not end:
                continue
            nid, depth = rec[b + NAME], rec[b + DEPTH]
            dur = end - rec[b + START]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            if depth >= FAILED:
                failed[nid] += 1
                depth -= FAILED
            if depth == 0:
                busy[nid] += dur
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            if name == ROOT:
                continue
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.busy_s"] = (busy[nid] / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns[nid] / 1e9, "s")
        fi = self._id["intfactor.factor_int"]
        out["intfactor.factor_int.failed"] = (failed[fi], "count")
        out["intfactor.factor_int.repeat_ratio"] = (
            self.extra["intfactor.factor_int.repeats"] / calls[fi] if calls[fi] else 0.0, "ratio")
        out["intfactor.divisors.returned"] = (self.extra["intfactor.divisors.returned"], "count")
        out["groupalg.crt_split.misses"] = (self.extra["groupalg.crt_split.misses"], "count")
        ci = self._id["complexity.census"]
        out["complexity.census.states_per_s"] = (
            self.extra["complexity.census.states"] / (busy[ci] / 1e9) if busy[ci] else 0.0, "1/s")
        return out

    def write(self, path):
        """Spans as gzipped JSON: a name table, job labels and one row per span."""
        rec = self.rec
        rows = [rec[i:i + 6].tolist() for i in range(0, len(rec), 6)]
        doc = {"columns": ["name", "parent", "job", "depth", "start_ns", "end_ns"],
               "note": "parent is the row index times 6; depth >= 2**32 marks a raised call",
               "names": self.names, "jobs": self.job_labels, "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


class CallCounter:
    """Exact counts of the per-coefficient FieldSpec calls made inside jobs.

    A call made from inside another counted method (sub_enc calls add_enc and
    neg_enc) counts for both.
    """

    def __init__(self):
        self.counts = {name: 0 for name in FIELD_CALLS}
        self._cls = None
        self._orig: dict = {}

    def install(self, ff):
        self._cls = ff.ffield.FieldSpec
        self._orig = {name: self._cls.__dict__[name] for name in FIELD_CALLS}

    def _counted(self, name):
        orig, counts = self._orig[name], self.counts

        def counted(spec, *args):
            counts[name] += 1
            return orig(spec, *args)

        return counted

    def begin_job(self, label: str):
        for name in FIELD_CALLS:
            setattr(self._cls, name, self._counted(name))

    def end_job(self):
        for name, orig in self._orig.items():
            setattr(self._cls, name, orig)

    def uninstall(self):
        if self._cls is not None:
            self.end_job()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        return {f"ffield.{name}.calls": (count, "count") for name, count in self.counts.items()}
