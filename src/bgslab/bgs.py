"""The clocked-pair set: index decoding, P_n(x), the guess predicates, and
the budgeted least-counterexample search.

An index n names the machine-clock pair (decode_machine(m), C_(a,b)) with
(m, a, b) = triple_decode(n).  Decoded zeros for a or b are lifted to 1 so
that every natural is a legal index and the set stays total.

The counterexample search scans z = 0, 1, 2, ... in order and reports the
first z whose pair (x, y) = unpair(z) witnesses satisfiability while the
indexed machine's output on x does not; an exhausted budget is a value,
not an error, because totality of the search beyond any finite budget is
exactly the open question this laboratory probes.
"""

from __future__ import annotations

import enum
import json
import logging
import os
from dataclasses import dataclass

from . import sat
from .codec import CODEC_VERSION, triple_decode, unpair
from .machine import (
    MACHINE_ENCODING_VERSION,
    ClockSpec,
    TransitionTable,
    decode_machine,
    run_clocked,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BgsIndex:
    n: int
    m: int
    a: int
    b: int

    @classmethod
    def from_natural(cls, n: int) -> "BgsIndex":
        m, a, b = triple_decode(n)
        # the clock requires positive exponent and offset; lift zeros
        return cls(n=n, m=m, a=max(a, 1), b=max(b, 1))

    @property
    def clock(self) -> ClockSpec:
        return ClockSpec(self.a, self.b)

    def table(self) -> TransitionTable:
        return decode_machine(self.m)


def bgs_run(index: BgsIndex, x: int):
    """P_n(x): the indexed machine run under its clock; total."""
    return run_clocked(index.table(), index.clock, x)


def g_star(index: BgsIndex, x: int) -> bool:
    """True when the indexed pair's output on x satisfies x."""
    return sat.verify_pair(x, bgs_run(index, x).output) == 1


def not_g(index: BgsIndex, z: int) -> bool:
    """True when z = (x, y) proves the pair wrong: y satisfies x, its output does not."""
    if sat.verifier(z) != 1:
        return False
    x, _ = unpair(z)
    return not g_star(index, x)


class CounterexampleStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class CounterexampleResult:
    status: CounterexampleStatus
    z: int | None  # least witness when found
    scanned: int  # number of z values examined
    budget: int

    @property
    def found(self) -> bool:
        return self.status is CounterexampleStatus.FOUND


def _scan(table: TransitionTable, clock: ClockSpec, start: int, budget: int) -> int | None:
    outputs: dict[int, int] = {}  # memo: the machine's output per formula code
    for z in range(start, budget):
        if sat.verifier(z) != 1:
            continue
        x, _ = unpair(z)
        out = outputs.get(x)
        if out is None:
            out = outputs[x] = run_clocked(table, clock, x).output
        if sat.verify_pair(x, out) == 0:
            return z
    return None


def counterexample(index: BgsIndex, budget: int,
                   cache: "ResultCache | None" = None) -> CounterexampleResult:
    """Budgeted mu-search for the least failing pair z of the indexed machine.

    Deterministic: the reported result is identical whether computed fresh
    or reconstructed from a cache of earlier scans.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    start = 0
    if cache is not None:
        hit = cache.lookup(index.n, budget)
        if hit is not None:
            return hit
        start = cache.resume_from(index.n)
    z = _scan(index.table(), index.clock, start, budget)
    if z is not None:
        result = CounterexampleResult(CounterexampleStatus.FOUND, z, z + 1, budget)
    else:
        result = CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)
    if cache is not None:
        cache.record(index.n, result)
    return result


class ResultCache:
    """Persistent map n -> counterexample outcome, keyed by codec versions.

    A cached least witness z answers any budget > z; a cached exhausted
    bound U answers any budget <= U and lets larger budgets resume at U.
    Entries from files written under different codec or machine-encoding
    versions are discarded, and corrupt files are ignored with a warning,
    so a stale cache can never change an answer.
    """

    def __init__(self):
        self._found: dict[int, int] = {}
        self._exhausted: dict[int, int] = {}

    @classmethod
    def load(cls, path) -> "ResultCache":
        cache = cls()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if (data.get("codec_version") != CODEC_VERSION
                    or data.get("machine_encoding_version") != MACHINE_ENCODING_VERSION):
                log.warning("cache %s has mismatched versions; starting empty", path)
                return cache
            for key, entry in data.get("entries", {}).items():
                n = int(key)
                if entry["status"] == "found":
                    cache._found[n] = int(entry["z"])
                else:
                    cache._exhausted[n] = int(entry["upto"])
        except FileNotFoundError:
            pass
        except (OSError, ValueError, KeyError, TypeError) as e:
            log.warning("ignoring corrupt cache %s: %s", path, e)
        return cache

    def save(self, path) -> None:
        entries: dict[str, dict] = {}
        for n, z in sorted(self._found.items()):
            entries[str(n)] = {"status": "found", "z": z}
        for n, upto in sorted(self._exhausted.items()):
            entries.setdefault(str(n), {"status": "exhausted", "upto": upto})
        data = {
            "codec_version": CODEC_VERSION,
            "machine_encoding_version": MACHINE_ENCODING_VERSION,
            "entries": entries,
        }
        # write a sibling file and rename it over the old one, so a crash
        # mid-write leaves the previous cache in place
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def lookup(self, n: int, budget: int) -> CounterexampleResult | None:
        z = self._found.get(n)
        if z is not None:
            if z < budget:
                return CounterexampleResult(CounterexampleStatus.FOUND, z, z + 1, budget)
            # z is minimal, so a smaller budget scans nothing below it
            return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)
        upto = self._exhausted.get(n)
        if upto is not None and budget <= upto:
            return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)
        return None

    def resume_from(self, n: int) -> int:
        return self._exhausted.get(n, 0)

    def record(self, n: int, result: CounterexampleResult) -> None:
        if result.found:
            assert result.z is not None
            self._found[n] = result.z
            self._exhausted.pop(n, None)
        elif n not in self._found:
            self._exhausted[n] = max(self._exhausted.get(n, 0), result.budget)
