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
import re
import sys
from collections import namedtuple
from functools import lru_cache
from typing import Callable, NamedTuple

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
    or machine-encoding versions, with any malformed entry, or nested too
    deeply to parse, is ignored with a warning, so a stale or damaged cache
    can never change an answer.
    An entry is well formed when its key is the canonical decimal of a
    natural n, and it is either found with a natural z or exhausted with
    an integer bound upto >= 1.

    Keys stay the file's canonical decimal text: an index n is converted
    to its decimal once where it enters (`lookup`, `resume_from`, `record`
    take n or that text), and the file's keys are neither parsed to ints
    on load nor formatted again on save.  The indices of cutoff machines
    run to thousands of digits, and converting one costs time quadratic
    in its length.  Each entry is held as one int: z >= 0 when found,
    -upto when exhausted, the form in which the parser hands it over.

    Saving merges: `save` reads the file again and keeps the stronger
    entry per index, so two scans sharing a cache keep each other's
    entries.  From that read to the rename (in `write_text`) it holds an
    exclusive flock on the file's directory, since the rename replaces the
    file itself, so no save is lost and no lock file is made.  Where there
    is no fcntl (Windows) there is no lock: an entry saved by another
    process between this save's read and its rename is lost.

    A command touches the file only as much as it changes it.  The cache
    remembers the `_digest` of the file content it last read or wrote, so
    a changed file goes unseen with probability about 2^-64.  `save`
    digests the file a piece at a time and reads it whole, to parse it,
    only when its content differs from that, so each content is parsed
    once and an unchanged file is never held whole; it writes nothing when
    the content is unchanged and no `record` came since, because the file
    then holds exactly this cache.
    """

    def __init__(self):
        self._entries: dict[str, int] = {}  # decimal key -> z, or -upto when exhausted
        self._seen: tuple[int, int] | None = None  # digest of the content last read or written
        self._news = False  # whether that content differs from this cache

    @classmethod
    def load(cls, path) -> "ResultCache":
        cache = cls()
        cache._absorb(path)
        return cache

    def _absorb(self, path) -> bool:
        """Merge every entry of the file at path into this cache, or none
        when its content is malformed or from other versions, and remember
        the content.  True when the file holds the content last read or
        written, which is then not parsed again; False when there is no
        file."""
        try:
            with open(path, "rb") as fh:
                digest = _digest(fh)
                if digest == self._seen:
                    return True
                fh.seek(0)  # the whole content, only when it is new
                data = fh.read()
        except FileNotFoundError:
            return False
        except OSError as e:  # unreadable, which a save then replaces
            _warn("ignoring corrupt cache %s: %s", path, e)
            return False
        self._seen = digest
        try:
            text = data.decode("utf-8")
            del data  # hold one copy of the content while it is parsed
            entries = _parse(text)
        except (ValueError, RecursionError) as e:  # the latter: nested too deeply to parse
            _warn("ignoring corrupt cache %s: %s", path, e)
            entries = None
        else:
            if entries is None:
                _warn("cache %s has mismatched versions; starting empty", path)
        if entries is None:
            self._news = True  # a save must replace the file
        elif self._entries:
            for n, value in entries.items():
                self._merge(n, value if value >= 0 else None, -value)
        else:
            self._entries = entries
        return False

    def save(self, path) -> None:
        fd = _lock(path)
        try:
            if self._absorb(path) and not self._news:
                return  # the file already holds exactly this cache
            self._seen, self._news = write_text(path, self._write), False
        finally:
            if fd is not None:
                os.close(fd)  # and with it the lock

    def _write(self, out: _Buffer) -> None:
        """Write the file as json.dump(data, fh, indent=2, sort_keys=True)
        and a newline, formatting a batch of entries at a time."""
        entries, keys = self._entries, sorted(self._entries)  # as strings: "10" before "9"
        out.write(_HEAD)
        for i in range(0, len(keys), _BATCH):
            out.write(("," if i else "") + ",".join([
                f'\n    "{n}": {{\n      "status": "found",\n      "z": {v}\n    }}'
                if (v := entries[n]) >= 0 else
                f'\n    "{n}": {{\n      "status": "exhausted",\n      "upto": {-v}\n    }}'
                for n in keys[i:i + _BATCH]]))
        out.write(("\n  }" if keys else "}") + _TAIL)

    def lookup(self, n: int | str, budget: int) -> CounterexampleResult | None:
        value = self._entries.get(str(n))
        if value is None:
            return None
        if value >= 0:
            return _least_is(value, budget)
        if budget <= -value:
            return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)
        return None

    def resume_from(self, n: int | str) -> int:
        value = self._entries.get(str(n), 0)
        return -value if value < 0 else 0

    def record(self, n: int | str, result: CounterexampleResult) -> None:
        self._merge(n, result.z if result.found else None, result.budget)
        self._news = True

    def _merge(self, n: int | str, z: int | None, upto: int) -> None:
        """Add the least witness z of n, or, when z is None, its exhaustion
        below upto: a found entry beats an exhausted one, and the larger
        exhausted bound wins."""
        n = str(n)
        if z is not None:
            self._entries[n] = z
        else:
            value = self._entries.get(n)
            if value is None or value < 0:
                self._entries[n] = min(value or 0, -upto)


# the cache file's fixed text around its entries, as json.dump writes it
_HEAD = '{\n  "codec_version": %s,\n  "entries": {' % json.dumps(CODEC_VERSION)
_TAIL = ',\n  "machine_encoding_version": %s\n}\n' % json.dumps(MACHINE_ENCODING_VERSION)
# and an entry as `ResultCache._write` writes it, then a comma when one follows
_ENTRY = (r'\n    "(0|[1-9][0-9]*)": \{\n      "status": "(?:found",\n      "z": (0|[1-9][0-9]*)'
          r'|exhausted",\n      "upto": ([1-9][0-9]*))\n    \}(,?)')
_BATCH = 256  # entries formatted at a time, about 19 KB of the file

# the characters the writer collects before it writes them out (a write per
# row takes twice the time on a pipe), and the bytes of a piece of _digest
_PIECE = 1 << 16


class _Buffer:
    """Text collected and handed to spill once it reaches _PIECE characters."""

    def __init__(self, spill: Callable[[str], object]):
        self.spill, self.parts, self.size = spill, [], 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= _PIECE:
            self.flush()

    def flush(self) -> None:
        text, self.parts, self.size = "".join(self.parts), [], 0
        self.spill(text)


def write_text(path, fill: Callable[[_Buffer], None]) -> tuple[int, int] | None:
    """Call fill with a buffer whose `write` takes text, and write that
    text to stdout when path is None, else to the file at path: through a
    sibling <path>.<pid>.tmp, synced to disk and renamed over path, then on
    POSIX the directory synced, so that path holds its old or its whole new
    content even across a crash.  An error of the writer names path and
    leaves no sibling.  Returns the `_digest` of a file's content, read
    back from the sibling before the rename."""
    if path is None:
        fill(out := _Buffer(sys.stdout.write))
        return out.flush()
    tmp, folder = f"{path}.{os.getpid()}.tmp", os.path.dirname(path) or "."
    try:
        with open(tmp, "w+b") as fh:
            fill(out := _Buffer(lambda text: fh.write(text.encode())))
            out.flush()
            fh.flush()
            os.fsync(fh.fileno())
            digest = _digest(fh)  # read back, as a later load reads it
        os.replace(tmp, path)
        if os.name == "posix" and hasattr(os, "O_DIRECTORY"):
            fd = os.open(folder, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    except OSError as e:
        if e.filename not in (None, tmp, folder):
            raise  # another file's error, raised by fill
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return digest


def _lock(path) -> int | None:
    """A descriptor of the directory of the file at path that holds an
    exclusive flock until it is closed, or None where there is no fcntl.
    A directory that cannot be opened raises an error naming path; a file
    system without flock leaves the save unlocked, with a warning."""
    try:
        import fcntl  # loaded by the first save, not by every command
    except ImportError:  # Windows
        return None
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError as e:
        _warn("saving cache %s without a lock: %s", path, e)
    return fd


def _warn(message: str, *args) -> None:
    # importing logging takes milliseconds, which only a warning pays
    import logging
    logging.getLogger(__name__).warning(message, *args)


def _digest(fh) -> tuple[int, int]:
    """The length of a binary file and a hash of the hashes of its
    _PIECE-byte pieces, read from its start one piece at a time."""
    fh.seek(0)
    hashes = tuple(hash(piece) for piece in iter(lambda: fh.read(_PIECE), b""))
    return fh.tell(), hash(hashes)


def _parse(text: str) -> dict[str, int] | None:
    """The entries of a cache file's content, each as one int: z when
    found, -upto when exhausted.  None when it was written under other
    versions; ValueError when it is malformed.

    Content in exactly the layout `ResultCache._write` gives it is read by
    matching that layout, an entry at a time, so that no dict per entry is
    made; such content is well formed by construction.  Any other content
    is parsed into plain objects and checked field by field, which names
    the first fault."""
    if text.startswith(_HEAD):
        entries, pos, more = {}, len(_HEAD), ","
        match = re.compile(_ENTRY).match  # compiled on first use, then cached by re
        while more and (m := match(text, pos)):
            n, z, upto, more = m.groups()
            entries[n] = int(z) if upto is None else -int(upto)
            pos = m.end()
        tail = ("\n  }" if entries else "}") + _TAIL  # after an entry with no comma, or none
        if not (more and entries) and len(text) == pos + len(tail) and text.endswith(tail):
            return entries
        del entries  # hold no partial read while the content is parsed again
    return _checked(json.loads(text))


def _is_decimal(key: str) -> bool:
    """Whether key is the canonical decimal of a natural."""
    return key.isascii() and key.isdigit() and (key[0] != "0" or len(key) == 1)


def _checked(doc) -> dict[str, int] | None:
    """The entries of a parsed cache file, as `_parse` gives them."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if (doc.get("codec_version") != CODEC_VERSION
            or doc.get("machine_encoding_version") != MACHINE_ENCODING_VERSION):
        return None
    entries = doc.get("entries", {})
    if not isinstance(entries, dict):
        raise ValueError("entries is not an object")
    for key, entry in entries.items():
        if not _is_decimal(key):
            raise ValueError(f"key {key!r} is not the decimal of a natural")
        status = entry.get("status") if isinstance(entry, dict) else None
        if status == "found":
            z = entry.get("z")
            if type(z) is not int or z < 0:  # bool is an int subclass
                raise ValueError(f"entry {key}: z {z!r} is not a natural")
            entries[key] = z
        elif status == "exhausted":
            upto = entry.get("upto")
            if type(upto) is not int or upto < 1:
                raise ValueError(f"entry {key}: upto {upto!r} is not a positive integer")
            entries[key] = -upto
        else:
            raise ValueError(f"entry {key} has no status found or exhausted")
    return entries
