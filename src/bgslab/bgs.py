"""The clocked-pair set: index decoding, P_n(x), and the budgeted
least-counterexample search.

An index n names the machine-clock pair (decode_machine(m), C_(a,b)) with
(m, a, b) = triple_decode(n).  Decoded zeros for a or b are lifted to 1 so
that every natural is a legal index and the set stays total.  A BgsIndex,
like every record of the package but a TransitionTable, is an immutable
named tuple, here (n, m, a, b): it equals, hashes and unpacks as that
plain tuple, and building one from n costs only the decoding.

The least counterexample of an index is the least z = (x, y) = unpair(z)
whose y satisfies x while the indexed machine's output on x does not; an
exhausted budget is a value, not an error, because totality of the search
beyond any finite budget is exactly the open question this laboratory
probes.

The search does not visit every z.  It walks one witness table: the
entries (pair(x, T(x).witness), x) over every satisfiable formula code x,
in increasing z, where T is the truth-table decider.  Its first entry
whose machine output fails V is the least counterexample, because

* whether a pair (x, y) fails depends only on x,
* T returns the least witness V accepts for x, and
* pair is increasing in y,

so among the failing pairs with first part x the least is the table's
entry for x.  The table is a memo of a pure function, shared by every
index and every budget in the process and grown only as far as a search
needs: a formula code is decided only once a lower bound of its entry,
pair(x, 2^w - 1) with w its variable count, falls below the search's
budget and below its answer.  Its memory is O(sqrt(z)) in the largest z
any search reached, since pair(x, 0) = x(x + 1)/2 bounds the codes x
touched, and does not grow with the number of indices searched.

The machine side is memoized per decoded table.  Every index with the
same table object shares its memo: every unparsable m decodes to
NULL_MACHINE, and decode_machine keeps the table of every m below 2^64 in
a bounded LRU, so every index with the same such m gets the same table; a
larger m keeps only its last table.  The table keeps, in its `answer`
field, the answer (z, S) of one search: its least counterexample z and
the largest step count S among the entries it walked.  A search records
it only when its walk started at z = 0, found z, and ran every entry up
to z to a halt.  A later index with the same table object and clock
offset b >= S is answered without a walk, because

* every step limit |x|^a + b is at least b >= S,
* so each of those entries halts again, after the same steps and with the
  same output, and
* the same verdicts make z the least counterexample again,

which is FOUND z when z < budget and EXHAUSTED at the budget otherwise.
Nothing is recorded by a walk resumed from a cache's exhausted bound (the
entries below it were not run under its clock), by an exhausted search,
or by a walk in which the clock stopped any entry's run.  A halted run's
steps and output do not depend on its clock, and every witness table
holds the same entries, so any two answers are equal, in z and in S.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import json
import os
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from . import sat
from .codec import CODEC_VERSION, decode_cnf, pair, triple_decode
from .machine import (
    MACHINE_ENCODING_VERSION,
    ClockSpec,
    TransitionTable,
    decode_machine,
    run_clocked,
)


class BgsIndex(namedtuple("BgsIndex", "n m a b")):
    """The index n with its decoded fields: machine code m, clock (a, b).

    An immutable named tuple, so an index equals the plain tuple
    (n, m, a, b), hashes as it does and unpacks into its four fields."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, a: int, b: int) -> "BgsIndex":
        if n < 0 or m < 0:
            raise ValueError("an index and its machine code must be >= 0")
        # the clock's fields, checked here because a search answered from
        # its table's memo reads b without building the clock
        if a < 1 or b < 1:
            raise ValueError("clock exponents and offsets must be >= 1")
        return tuple.__new__(cls, (n, m, a, b))

    @classmethod
    def _make(cls, iterable) -> "BgsIndex":
        # namedtuple's _make and _replace skip __new__; keep the check
        return cls(*iterable)

    @classmethod
    def from_natural(cls, n: int) -> "BgsIndex":
        m, a, b = triple_decode(n)
        # the clock requires positive exponent and offset; lifting zeros
        # satisfies __new__'s check, so the tuple is built directly
        return tuple.__new__(cls, (n, m, a or 1, b or 1))

    @property
    def clock(self) -> ClockSpec:
        return ClockSpec(self.a, self.b)

    def table(self) -> TransitionTable:
        return decode_machine(self.m)


def bgs_run(index: BgsIndex, x: int):
    """P_n(x): the indexed machine run under its clock; total."""
    return run_clocked(index.table(), index.clock, x)


class CounterexampleStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"


class CounterexampleResult(NamedTuple):
    status: CounterexampleStatus
    z: int | None  # least witness when found
    scanned: int  # z + 1 when found, else the budget: the z range settled
    budget: int

    @property
    def found(self) -> bool:
        return self.status is CounterexampleStatus.FOUND


class _WitnessTable:
    """The entries (z, x) = (pair(x, T(x).witness), x) over satisfiable x,
    in increasing z, grown on demand.

    Formula codes wait in a heap keyed by a lower bound of their entry,
    pair(x, 2^w - 1) (the least width-w assignment), until popped; a popped
    bound is decided and, when x is satisfiable, comes back keyed by its
    exact z, and a popped exact z is the next entry.  Codes enter the heap in increasing x while
    pair(x, 0), a lower bound for every code not yet in it, is below the
    top.  So every entry is final when appended, and no code is decided
    unless its bound is below the limit a caller asked for.
    """

    def __init__(self):
        self.zs: list[int] = []
        self.xs: list[int] = []
        self._pending: list[tuple[int, int, bool]] = []  # (key, x, key is exact)
        self._next_x = 0

    def _grow(self, limit: int) -> bool:
        """Append the next entry if its z is below limit; report whether it was."""
        pending = self._pending
        while True:
            while not pending or pair(self._next_x, 0) < pending[0][0]:
                x = self._next_x
                self._next_x += 1
                formula = decode_cnf(x)
                if formula is not None:  # invalid codes are unsatisfiable
                    heapq.heappush(pending, (pair(x, 2 ** formula.var_count - 1), x, False))
            key, x, exact = pending[0]
            if key >= limit:
                return False
            heapq.heappop(pending)
            if exact:
                self.zs.append(key)
                self.xs.append(x)
                return True
            decided = sat.decider(x)
            if decided.satisfiable:
                heapq.heappush(pending, (pair(x, decided.witness), x, True))

    def walk(self, start: int, limit: int):
        """Yield the entries (z, x) with start <= z < limit, in z order."""
        i = bisect.bisect_left(self.zs, start)
        while i < len(self.zs) or self._grow(limit):
            z = self.zs[i]
            if z >= limit:
                return
            if z >= start:
                yield z, self.xs[i]
            i += 1


_TABLE = _WitnessTable()


def counterexample(index: BgsIndex, budget: int,
                   cache: "ResultCache | None" = None) -> CounterexampleResult:
    """Budgeted mu-search for the least failing pair z of the indexed machine.

    Answers from the decoded table's answer memo when it holds an answer
    (z, S) and the index's clock offset is b >= S (see the module
    docstring): FOUND z when z < budget, else EXHAUSTED at the budget.
    Otherwise walks the shared witness table from its first entry, running
    the machine once under the index's clock on each entry's x, and
    returns the first entry below the budget whose output fails V; a walk from z = 0 that found z with every run up to it
    halted records its answer.  This equals the literal search over
    z = 0, 1, ..., budget - 1, field for field: `scanned` is z + 1 when
    found, else the budget, the range of z settled.

    With a cache, a stored answer is returned as is, and an exhausted
    bound U resumes the walk at the first entry with z >= U.  That is
    sound only because exhaustion below U certifies that no entry below U
    fails: from an arbitrary start, a failing x whose entry lies below the
    start could still fail with a larger witness above it, which the walk
    would not see.  A resumed walk records no answer, because the entries
    below U were not run under its clock.

    Deterministic: the reported result is identical whether computed fresh
    or reconstructed from a cache of earlier scans.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    start = 0
    if cache is not None:
        key = str(index.n)  # the cache's key, converted once per search
        hit = cache.lookup(key, budget)
        if hit is not None:
            return hit
        start = cache.resume_from(key)
    table = index.table()
    answer = table.answer
    if answer is not None and index.b >= answer[1]:
        result = _least_is(answer[0], budget)
    else:
        result = _walk(table, index.clock, start, budget)
    if cache is not None:
        cache.record(key, result)
    return result


@lru_cache(maxsize=1024)
def _least_is(z: int, budget: int) -> CounterexampleResult:
    """The result under budget of an index whose least counterexample is z,
    one shared object per (z, budget)."""
    if z < budget:
        return CounterexampleResult(CounterexampleStatus.FOUND, z, z + 1, budget)
    # z is minimal, so a smaller budget scans nothing below it
    return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)


def _walk(table: TransitionTable, clock: ClockSpec, start: int,
          budget: int) -> CounterexampleResult:
    """The first entry of the witness table with start <= z < budget whose
    output fails V, recording the table's answer when the walk allows one."""
    settled = start == 0  # every entry from z = 0 so far was a halted run
    most = 0  # the largest step count among them
    for z, x in _TABLE.walk(start, budget):
        result = run_clocked(table, clock, x)
        if not result.halted:
            settled = False
        elif result.steps > most:
            most = result.steps
        if sat.verify_pair(x, result.output) == 0:
            if settled:
                table.answer = (z, most)  # any two answers are equal
            return _least_is(z, budget)
    return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)


class ResultCache:
    """Persistent map n -> counterexample outcome, keyed by codec versions.

    A cached least witness z answers any budget > z; a cached exhausted
    bound U answers any budget <= U and lets larger budgets resume at U.
    A file is taken whole or not at all: one written under different codec
    or machine-encoding versions, or with any malformed entry, is ignored
    with a warning, so a stale or damaged cache can never change an answer.
    An entry is well formed when its key is the canonical decimal of a
    natural n, and it is either found with a natural z or exhausted with
    an integer bound upto >= 1.

    Keys stay the file's canonical decimal text: an index n is converted
    to its decimal once where it enters (`lookup`, `resume_from`, `record`
    take n or that text), and the file's keys are neither parsed to ints
    on load nor formatted again on save.  The indices of cutoff machines
    run to thousands of digits, and converting one costs time quadratic
    in its length.

    Saving merges: `save` reads the file again and keeps the stronger
    entry per index, so two scans sharing a cache keep each other's
    entries.  There is no lock: an entry saved by another process between
    this save's read and its os.replace is lost.

    A command touches the file only as much as it changes it.  The cache
    remembers a digest of the file content it last read or wrote: its
    length and its 64-bit keyed hash, so a changed file goes unseen with
    probability about 2^-64.  `save` parses the file only when its content
    differs from that, so each content is parsed once, and writes nothing
    when it does not and no `record` came since, because the file then
    already holds exactly this cache.  The writer builds the bytes of
    `json.dump(data, fh, indent=2, sort_keys=True)` plus a newline
    directly.
    """

    def __init__(self):
        self._found: dict[str, int] = {}  # decimal key -> least witness z
        self._exhausted: dict[str, int] = {}  # decimal key -> exhausted bound
        self._seen: tuple[int, int] | None = None  # digest of the content last read or written
        self._news = False  # whether that content differs from this cache

    @classmethod
    def load(cls, path) -> "ResultCache":
        cache = cls()
        data = _read_bytes(path)
        if data is not None:
            cache._absorb(path, data)
        return cache

    def _absorb(self, path, data: bytes) -> None:
        """Merge every entry of the file content data into this cache, or
        none when the content is malformed or from other versions, and
        remember the content."""
        self._seen = _digest(data)
        try:
            maps = _parse(data)
        except ValueError as e:
            _warn("ignoring corrupt cache %s: %s", path, e)
            maps = None
        else:
            if maps is None:
                _warn("cache %s has mismatched versions; starting empty", path)
        if maps is None:
            self._news = True  # a save must replace the file
        elif self._found or self._exhausted:
            found, exhausted = maps
            for n, z in found.items():
                self._merge(n, z, 0)
            for n, upto in exhausted.items():
                self._merge(n, None, upto)
        else:
            self._found, self._exhausted = maps

    def save(self, path) -> None:
        data = _read_bytes(path)
        if data is not None and _digest(data) == self._seen:
            if not self._news:
                return  # the file already holds exactly this cache
        elif data is not None:
            self._absorb(path, data)
        del data  # hold one copy of the content at a time
        content = self._encode()
        # write a sibling file and rename it over the old one, so a crash
        # mid-write leaves the previous cache in place
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except OSError as e:
            if e.filename != tmp:
                raise
            # name the path the caller gave, not its sibling
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._seen, self._news = _digest(content), False

    def _encode(self) -> bytes:
        """The file content for this cache: what json.dump(data, fh,
        indent=2, sort_keys=True) writes, plus a newline."""
        entries = ['    "%s": {\n      "status": "found",\n      "z": %d\n    }' % item
                   for item in self._found.items()]
        entries += ['    "%s": {\n      "status": "exhausted",\n      "upto": %d\n    }' % item
                    for item in self._exhausted.items()]
        if not entries:
            return "".join((_HEAD, "{}", _TAIL)).encode()
        # sorting the entries sorts their keys as strings, "10" before "9":
        # the quote closing a key sorts below every digit
        entries.sort()
        return "".join((_HEAD, "{\n", ",\n".join(entries), "\n  }", _TAIL)).encode()

    def lookup(self, n: int | str, budget: int) -> CounterexampleResult | None:
        n = str(n)
        z = self._found.get(n)
        if z is not None:
            return _least_is(z, budget)
        upto = self._exhausted.get(n)
        if upto is not None and budget <= upto:
            return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)
        return None

    def resume_from(self, n: int | str) -> int:
        return self._exhausted.get(str(n), 0)

    def record(self, n: int | str, result: CounterexampleResult) -> None:
        self._merge(n, result.z if result.found else None, result.budget)
        self._news = True

    def _merge(self, n: int | str, z: int | None, upto: int) -> None:
        """Add the least witness z of n, or, when z is None, its exhaustion
        below upto: a found entry beats an exhausted one, and the larger
        exhausted bound wins."""
        n = str(n)
        if z is not None:
            self._found[n] = z
            self._exhausted.pop(n, None)
        elif n not in self._found:
            self._exhausted[n] = max(self._exhausted.get(n, 0), upto)


# the cache file's fixed text around its entries, as json.dump writes it
_HEAD = '{\n  "codec_version": %s,\n  "entries": ' % json.dumps(CODEC_VERSION)
_TAIL = ',\n  "machine_encoding_version": %s\n}\n' % json.dumps(MACHINE_ENCODING_VERSION)


def _read_bytes(path) -> bytes | None:
    """The content of the cache file at path; None when there is none or
    it cannot be read, which is logged."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
    except OSError as e:
        _warn("ignoring corrupt cache %s: %s", path, e)
        return None


def _warn(message: str, *args) -> None:
    # importing logging takes milliseconds, which only a warning pays
    import logging
    logging.getLogger(__name__).warning(message, *args)


def _digest(data: bytes) -> tuple[int, int]:
    return len(data), hash(data)


def _parse(data: bytes) -> tuple[dict[str, int], dict[str, int]] | None:
    """The found and exhausted maps of a cache file's content, or None when
    it was written under other versions; ValueError when it is malformed."""
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if (doc.get("codec_version") != CODEC_VERSION
            or doc.get("machine_encoding_version") != MACHINE_ENCODING_VERSION):
        return None
    entries = doc.get("entries", {})
    if not isinstance(entries, dict):
        raise ValueError("entries is not an object")
    found: dict[str, int] = {}
    exhausted: dict[str, int] = {}
    for key, entry in entries.items():
        if not (key.isascii() and key.isdigit()) or (key[0] == "0" and len(key) > 1):
            raise ValueError(f"key {key!r} is not the decimal of a natural")
        status = entry.get("status") if isinstance(entry, dict) else None
        if status == "found":
            z = entry.get("z")
            if type(z) is not int or z < 0:  # bool is an int subclass
                raise ValueError(f"entry {key}: z {z!r} is not a natural")
            found[key] = z
        elif status == "exhausted":
            upto = entry.get("upto")
            if type(upto) is not int or upto < 1:
                raise ValueError(f"entry {key}: upto {upto!r} is not a positive integer")
            exhausted[key] = upto
        else:
            raise ValueError(f"entry {key} has no status found or exhausted")
    return found, exhausted
