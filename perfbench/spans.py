"""Span tracing of bgslab, installed from outside the program.

`Tracer.install()` replaces the public functions listed in `WRAPPED` with
wrappers, in every loaded `bgslab` module that holds a reference to them,
and `Tracer.uninstall()` puts the originals back.  No program file changes.

Every wrapped call is timed, and its self time (duration minus the time of
wrapped calls nested inside it) is added to its name's total.  Calls of
the per-z leaves (`HOT`) are only counted and timed into those totals and
into their parent span; every other call is also kept as a span
`(name, start, end, parent, op)`, where `op` is the id of the benchmark
operation that caused it.  Spans stay in memory until `write_spans`.
Counts that need a call's result (steps, accepts, cache hits) are taken
in the same wrappers.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute is a method on a class
WRAPPED = [
    ("codec.unpair", "bgslab.codec", "unpair"),
    ("codec.decode_cnf", "bgslab.codec", "decode_cnf"),
    ("machine.run_clocked", "bgslab.machine", "run_clocked"),
    ("machine.run", "bgslab.machine", "run"),
    ("machine.encode_machine", "bgslab.machine", "encode_machine"),
    ("machine.decode_machine", "bgslab.machine", "decode_machine"),
    ("sat.verifier", "bgslab.sat", "verifier"),
    ("sat.decider", "bgslab.sat", "decider"),
    ("sat.satisfiable_brute", "bgslab.sat", "satisfiable_brute"),
    ("bgs.counterexample", "bgslab.bgs", "counterexample"),
    ("bgs.cache.load", "bgslab.bgs", "ResultCache.load"),
    ("bgs.cache.save", "bgslab.bgs", "ResultCache.save"),
    ("bgs.cache.lookup", "bgslab.bgs", "ResultCache.lookup"),
    ("bgs.cache.resume_from", "bgslab.bgs", "ResultCache.resume_from"),
    ("quasitrivial.build_qt", "bgslab.quasitrivial", "build_qt"),
    ("quasitrivial.embed", "bgslab.quasitrivial", "embed"),
    ("quasitrivial.measure_b", "bgslab.quasitrivial", "measure_b"),
    ("quasitrivial.verify_no_interrupt", "bgslab.quasitrivial", "verify_no_interrupt"),
    ("quasitrivial.predicted_least_counterexample", "bgslab.quasitrivial",
     "predicted_least_counterexample"),
    ("quasitrivial.verify_crucial_step", "bgslab.quasitrivial", "verify_crucial_step"),
    ("quasitrivial.star_counterexample", "bgslab.quasitrivial", "star_counterexample"),
    ("quasitrivial.lemma_check", "bgslab.quasitrivial", "lemma_check"),
    ("cli.main", "bgslab.cli", "main"),
    ("config.load_config", "bgslab.config", "load_config"),
]

# called once per z value or formula code: aggregated, not kept as spans
HOT = {"codec.unpair", "codec.decode_cnf", "sat.verifier", "sat.satisfiable_brute"}

# (outer span, inner name, count): calls of inner made while outer runs
NESTED = [
    ("quasitrivial.predicted_least_counterexample", "sat.satisfiable_brute",
     "quasitrivial.oracle_candidates"),
    ("bgs.counterexample", "sat.verifier", "bgs.verifier_calls"),
    ("bgs.counterexample", "machine.run_clocked", "bgs.machine_runs"),
]


def _observers(counts: Counter) -> dict:
    def run_result(r):
        counts["machine.steps"] += r.steps
        counts["machine.interrupts"] += r.interrupted

    def verifier(r):
        if r == 1:
            counts["sat.verifier.accepts"] += 1

    def counterexample(r):
        counts["bgs.z_scanned"] += r.scanned

    def lookup(r):
        if r is not None:
            counts["bgs.cache.hits"] += 1

    def resume_from(r):
        if r > 0:
            counts["bgs.cache.resumes"] += 1

    return {
        "machine.run": run_result,
        "machine.run_clocked": run_result,
        "sat.verifier": verifier,
        "bgs.counterexample": counterexample,
        "bgs.cache.lookup": lookup,
        "bgs.cache.resume_from": resume_from,
    }


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self):
        self.acc: dict[str, list] = {name: [0, 0.0] for name, _, _ in WRAPPED}
        self.counts: Counter = Counter()
        self.spans: list = []
        self.op = 0
        self._child = [0.0]  # child-time accumulator per open call
        self._open = [-1]  # ids of open recorded spans
        self._patched: list = []  # (namespace, attribute, original)
        self._cnf = None  # the LRU-cached decode_cnf, for cache_info()
        self._cnf_info = None

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        self._cnf = importlib.import_module("bgslab.codec").decode_cnf
        self._cnf_info = self._cnf.cache_info()
        observers = _observers(self.counts)
        nested = {}
        for outer, inner, count in NESTED:
            nested.setdefault(outer, []).append((self.acc[inner], count))
        originals = {}
        for name, module_name, attr in WRAPPED:
            owner, leaf = _resolve(module_name, attr)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, observers.get(name),
                                                 nested.get(name, ())))
                self._patch(owner, leaf, raw, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, leaf, raw, self._wrap(name, raw, observers.get(name),
                                                         nested.get(name, ())))
            else:
                originals[id(raw)] = (raw, self._wrap(name, raw, observers.get(name),
                                                      nested.get(name, ())))
        # rebind every module-level reference, including `from x import f` copies
        for module_name, module in list(sys.modules.items()):
            if module_name != "bgslab" and not module_name.startswith("bgslab."):
                continue
            for key, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, value, hit[1])

    def uninstall(self) -> None:
        info = self._cnf.cache_info()
        self.counts["codec.decode_cnf.hits"] += info.hits - self._cnf_info.hits
        self.counts["codec.decode_cnf.misses"] += info.misses - self._cnf_info.misses
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._patched.append((owner, key, original))

    def _wrap(self, name, fn, observe, nested):
        acc = self.acc[name]
        child = self._child
        perf = time.perf_counter

        if name in HOT:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    acc[0] += 1
                    acc[1] += dur - child.pop()
                    child[-1] += dur
                if observe is not None:
                    observe(result)
                return result
            return wrapper

        spans = self.spans
        open_ids = self._open
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_ids[-1]
            open_ids.append(sid)
            before = [inner[0] for inner, _ in nested]
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                acc[0] += 1
                acc[1] += dur - child.pop()
                child[-1] += dur
                open_ids.pop()
                spans[sid] = (name, t0, t1, parent, tracer.op)
                for (inner, count), start in zip(nested, before):
                    counts[count] += inner[0] - start
            if observe is not None:
                observe(result)
            return result
        return wrapper

    # --- results ----------------------------------------------------------

    def dump(self) -> dict:
        return {"acc": self.acc, "counts": dict(self.counts), "spans": self.spans}

    def merge(self, dump: dict, op: int) -> None:
        """Add a dump taken in a child process, whose spans all belong to `op`."""
        for name, (calls, self_s) in dump["acc"].items():
            self.acc[name][0] += calls
            self.acc[name][1] += self_s
        self.counts.update(dump["counts"])
        base = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"aggregate": self.acc, "counts": dict(self.counts)}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that the spans and counts give."""
        acc, c = self.acc, self.counts

        def calls(name):
            return acc[name][0]

        def self_s(name):
            return acc[name][1]

        def ratio(num, den):
            return num / den if den else 0.0

        cnf_lookups = c["codec.decode_cnf.hits"] + c["codec.decode_cnf.misses"]
        searches = calls("bgs.counterexample")
        metrics = {
            "codec.unpair.calls": calls("codec.unpair"),
            "codec.unpair.self_s": self_s("codec.unpair"),
            "codec.decode_cnf.calls": calls("codec.decode_cnf"),
            "codec.decode_cnf.hit_ratio": ratio(c["codec.decode_cnf.hits"], cnf_lookups),
            "machine.run_clocked.calls": calls("machine.run_clocked"),
            "machine.run_clocked.self_s": self_s("machine.run_clocked"),
            "machine.run.calls": calls("machine.run"),
            "machine.run.self_s": self_s("machine.run"),
            "machine.steps": c["machine.steps"],
            "machine.interrupts": c["machine.interrupts"],
            "machine.encode_machine.self_s": self_s("machine.encode_machine"),
            "machine.decode_machine.calls": calls("machine.decode_machine"),
            "machine.decode_machine.self_s": self_s("machine.decode_machine"),
            "sat.verifier.calls": calls("sat.verifier"),
            "sat.verifier.self_s": self_s("sat.verifier"),
            "sat.verifier.accept_ratio": ratio(c["sat.verifier.accepts"], calls("sat.verifier")),
            "sat.decider.calls": calls("sat.decider"),
            "sat.decider.self_s": self_s("sat.decider"),
            "sat.satisfiable_brute.calls": calls("sat.satisfiable_brute"),
            "sat.satisfiable_brute.self_s": self_s("sat.satisfiable_brute"),
            "bgs.counterexample.calls": searches,
            "bgs.counterexample.self_s": self_s("bgs.counterexample"),
            "bgs.z_scanned": c["bgs.z_scanned"],
            "bgs.verifier_calls_per_index": ratio(c["bgs.verifier_calls"], searches),
            "bgs.machine_runs_per_index": ratio(c["bgs.machine_runs"], searches),
            "bgs.cache.hit_ratio": ratio(c["bgs.cache.hits"], calls("bgs.cache.lookup")),
            "bgs.cache.resume_ratio": ratio(c["bgs.cache.resumes"],
                                            calls("bgs.cache.resume_from")),
            "bgs.cache.load_self_s": self_s("bgs.cache.load"),
            "bgs.cache.save_self_s": self_s("bgs.cache.save"),
        }
        for stage in ("build_qt", "measure_b", "verify_no_interrupt",
                      "predicted_least_counterexample", "verify_crucial_step",
                      "star_counterexample"):
            metrics[f"quasitrivial.{stage}.self_s"] = self_s(f"quasitrivial.{stage}")
        metrics["quasitrivial.oracle_candidates"] = c["quasitrivial.oracle_candidates"]
        metrics["bgs.cache.entries"] = c["bgs.cache.entries"]
        metrics["cli.main.self_s"] = self_s("cli.main")
        metrics["config.load_config.self_s"] = self_s("config.load_config")
        metrics["cli.report_bytes"] = c["cli.report_bytes"]
        return metrics
