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
import stat
import sys
from collections import namedtuple
from contextlib import suppress
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
def _least_is(z: int | None, budget: int) -> CounterexampleResult:
    """The result under budget of an index whose least counterexample is z
    (None: none below budget), one shared object per (z, budget)."""
    if z is not None and z < budget:
        return CounterexampleResult(CounterexampleStatus.FOUND, z, z + 1, budget)
    # z is minimal, so a smaller budget settles nothing below it either
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
    return _least_is(None, budget)


class ResultCache:
    """Persistent map n -> counterexample outcome, keyed by codec versions.

    A cached least witness z answers any budget > z; a cached exhausted
    bound U answers any budget <= U and lets larger budgets resume at U.
    A file is read whole or not at all, and only in the layout `save`
    writes (see `_parse`): any other file, one of other codec or
    machine-encoding versions among them, is ignored with a warning and
    replaced at the next save, so a stale or damaged cache can never change
    an answer.  The path must name a regular file, through any links.

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
    exclusive flock on the directory of the file a link names, since the
    rename replaces the file itself, so no save is lost and no lock file is
    made; holding it, a writing save removes the siblings that saves killed
    before their rename left.  Where there is no fcntl (Windows) there is
    no lock: an entry saved by another process between this save's read
    and its rename is lost.

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
        when its content is not in the layout a save writes, and remember
        the content.  True when the file holds the content last read or
        written, which is then not parsed again; False when there is no
        file.  An OSError naming path when path names something that is
        not a regular file, which is neither read nor replaced."""
        if _special(path):  # opening a FIFO would wait for a writer
            raise OSError(f"cache {path} is not a regular file")
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
        except ValueError as e:
            _warn("ignoring corrupt cache %s: %s", path, e)
            self._news = True  # a save must replace the file
        else:
            if self._entries:
                for key, value in entries.items():
                    self._merge(key, value)
            else:
                self._entries = entries
        return False

    def save(self, path) -> None:
        fd = _lock(path)
        try:
            if self._absorb(path) and not self._news:
                return  # the file already holds exactly this cache
            if fd is not None:  # so no other save of the file is running
                _remove_stale(path)
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
        if value is None or 0 < -value < budget:  # none, or exhausted below budget
            return None
        return _least_is(value if value >= 0 else None, budget)

    def resume_from(self, n: int | str) -> int:
        value = self._entries.get(str(n), 0)
        return -value if value < 0 else 0

    def record(self, n: int | str, result: CounterexampleResult) -> None:
        self._merge(str(n), result.z if result.found else -result.budget)
        self._news = True

    def _merge(self, key: str, value: int) -> None:
        """Add the entry value of the decimal key, z >= 0 when found, -upto
        when exhausted: a found entry beats an exhausted one, and the larger
        exhausted bound wins."""
        old = self._entries.get(key)
        if value >= 0 or old is None or value < old < 0:
            self._entries[key] = value


# the cache file's fixed text around its entries, as json.dump writes it
_HEAD = '{\n  "codec_version": %s,\n  "entries": {' % json.dumps(CODEC_VERSION)
_TAIL = ',\n  "machine_encoding_version": %s\n}\n' % json.dumps(MACHINE_ENCODING_VERSION)
# and an entry as `ResultCache._write` writes it, then a comma when one follows
_ENTRY = (r'\n    "(0|[1-9][0-9]*)": \{\n      "status": "(?:found",\n      "z": (0|[1-9][0-9]*)'
          r'|exhausted",\n      "upto": ([1-9][0-9]*))\n    \}(,?)')
# why content that does not begin with _HEAD or end with _TAIL is not read
_FOREIGN = (f"not in the layout this version saves (codec version {CODEC_VERSION}, "
            f"machine encoding version {MACHINE_ENCODING_VERSION})")
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
    text to stdout when path is None, else to the file at path.

    A path that names, through any links, something other than a regular
    file (a FIFO, a terminal, a device) is written in place.  Any other
    path is resolved through its links, and the target is written through
    a sibling <target>.<pid>.tmp, synced to disk and renamed over it, then
    on POSIX the directory synced: the target holds its old or its whole
    new content even across a crash, and a link still points to it.  An
    error of the writer names path and leaves no sibling.  Returns the
    `_digest` of a regular file's content, read back from the sibling
    before the rename."""
    if path is None:
        fill(out := _Buffer(sys.stdout.write))
        return out.flush()
    in_place = _special(path)
    target = os.path.realpath(path)
    tmp, folder = f"{target}.{os.getpid()}.tmp", os.path.dirname(target)
    try:
        with open(path, "wb") if in_place else open(tmp, "w+b") as fh:
            fill(out := _Buffer(lambda text: fh.write(text.encode())))
            out.flush()
            if in_place:
                return None
            fh.flush()
            os.fsync(fh.fileno())
            digest = _digest(fh)  # read back, as a later load reads it
        os.replace(tmp, target)
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


def _special(path) -> bool:
    """Whether path names, through any links, something that is not a
    regular file: a FIFO, a terminal, a device or a directory."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # nothing there, or nothing that can be looked at
        return False


def _lock(path) -> int | None:
    """A descriptor of the directory of the target of path that holds an
    exclusive flock until it is closed, or None where there is no fcntl or
    (with a warning) no flock.  A directory that cannot be opened raises an
    error naming path."""
    try:
        import fcntl  # loaded by the first save, not by every command
    except ImportError:  # Windows
        return None
    try:
        fd = os.open(os.path.dirname(os.path.realpath(path)), os.O_RDONLY)
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError as e:
        os.close(fd)
        _warn("saving cache %s without a lock: %s", path, e)
        return None
    return fd


def _remove_stale(path) -> None:
    """Remove the siblings <target>.<digits>.tmp of the target of path,
    which saves killed before their rename leave.  Only a save holding
    `_lock` may call it, since no other save of the file then runs."""
    folder, name = os.path.split(os.path.realpath(path))
    stale = re.compile(re.escape(name) + r"\.[0-9]+\.tmp").fullmatch
    for entry in os.listdir(folder):
        if stale(entry):
            with suppress(OSError):  # another owner's, say: it blocks no save
                os.unlink(os.path.join(folder, entry))


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


def _parse(text: str) -> dict[str, int]:
    """The entries of a cache file's content, each as one int: z when
    found, -upto when exhausted.  ValueError unless the content is a text
    `ResultCache._write` gives, but with its entries in any order and a
    repeated key read as its last entry: even JSON of the same entries in
    another layout is not read.  The content is matched an entry at a time,
    so no dict per entry is made, and what matches is well formed by
    construction: a canonical decimal key, then found with a natural z or
    exhausted with upto >= 1."""
    if not text.startswith(_HEAD):
        raise ValueError(_FOREIGN)
    entries, pos, more = {}, len(_HEAD), ","
    match = re.compile(_ENTRY).match  # compiled on first use, then cached by re
    while more and (m := match(text, pos)):
        n, z, upto, more = m.groups()
        entries[n] = int(z) if upto is None else -int(upto)
        pos = m.end()
    if more and entries:  # a comma, then no entry
        raise ValueError(f"no entry in the saved layout at character {pos}")
    tail = ("\n  }" if entries else "}") + _TAIL  # after an entry with no comma, or none
    if len(text) != pos + len(tail) or not text.endswith(tail):
        raise ValueError(_FOREIGN)
    return entries
