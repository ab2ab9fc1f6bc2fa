"""Record semantics: every value record is an immutable named tuple with the
repr text it has always had; a transition table is a plain object that
carries its own memos."""

import pytest

from bgslab.bgs import CounterexampleResult, CounterexampleStatus
from bgslab.codec import CnfFormula
from bgslab.config import Config, load_config
from bgslab.machine import HALT, ClockSpec, RunResult, Transition, TransitionTable
from bgslab.quasitrivial import (EmbeddingRecord, LemmaCheckRow, NoInterruptReport,
                                 QuasiTrivialMachine)
from bgslab.sat import DeciderResult

M0 = 478564924674698895255  # the Goedel number of the cutoff-0 machine
N0 = 114512193564450113764184396807592466948290  # its index <M0, 2, 2>

RECORDS = [
    (CnfFormula.from_lists([[1, -2], [2]]), "CnfFormula(clauses=((1, -2), (2,)))"),
    (Transition(HALT, 1, "R"), "Transition(next_state=-1, write=1, move='R')"),
    (ClockSpec(2, 5), "ClockSpec(a=2, b=5)"),
    (RunResult(2, 1), "RunResult(output=2, steps=1, interrupted=False, fuel_exhausted=False)"),
    (DeciderResult(witness=6, satisfiable=True), "DeciderResult(witness=6, satisfiable=True)"),
    (CounterexampleResult(CounterexampleStatus.FOUND, 93, 94, 100),
     "CounterexampleResult(status=<CounterexampleStatus.FOUND: 'found'>, z=93, scanned=94,"
     " budget=100)"),
    (QuasiTrivialMachine(TransitionTable(1, {}), M0, 0),
     f"QuasiTrivialMachine(table=TransitionTable(state_count=1, transitions={{}}), m={M0},"
     " k=0)"),
    (EmbeddingRecord(m=M0, k=0, b_m=2, n=N0), f"EmbeddingRecord(m={M0}, k=0, b_m=2, n={N0})"),
    (NoInterruptReport(ok=True, failed_at=None), "NoInterruptReport(ok=True, failed_at=None)"),
    (LemmaCheckRow(0, M0, 2, N0, "found", 93, 93, True, True, True),
     f"LemmaCheckRow(k=0, m={M0}, b_m=2, n={N0}, status='found', z=93, z_pred=93,"
     " no_interrupt=True, restriction_equal=True, passed=True)"),
    (Config(), "Config(budget_default=10000, k_max=32, var_count_max=20, cache_path=None,"
               " output_format='json')"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_keeps_its_repr_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_field_cannot_be_assigned(record, text):
    # named from the repr, not `_fields`, which a plain class would lack
    first_field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, first_field, 7)
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_a_record_equals_and_unpacks_as_its_plain_tuple(record):
    plain = tuple(getattr(record, name) for name in record._fields)
    assert record == plain and tuple(record) == plain


def test_a_clock_needs_positive_fields_however_it_is_built():
    with pytest.raises(ValueError):
        ClockSpec(0, 1)
    with pytest.raises(ValueError):
        ClockSpec(1, 1)._replace(b=0)
    with pytest.raises(ValueError):
        ClockSpec._make((1, 0))
    assert ClockSpec(1, 1)._replace(b=4) == ClockSpec._make((1, 4)) == (1, 4)


def test_equal_tables_compare_equal_and_keep_their_own_memos():
    transitions = {(0, 0): Transition(1, 1, "R"), (1, 2): Transition(HALT, 0, "L")}
    first = TransitionTable(2, transitions)
    second = TransitionTable(state_count=2, transitions=dict(transitions))
    assert first == second and not first != second
    assert first != TransitionTable(3, transitions)
    assert first != (2, transitions)
    first.answer = (93, 1)
    assert second.answer is None
    assert first == second
    with pytest.raises(TypeError):
        hash(first)


def test_load_config_reads_ints_by_their_defaults(tmp_path):
    path = tmp_path / "bgslab.conf"
    path.write_text("k_max=7\noutput_format=csv\n")
    cfg = load_config(str(path), env={})
    assert cfg.k_max == 7 and type(cfg.k_max) is int
    assert cfg.output_format == "csv"
    assert cfg == Config(k_max=7, output_format="csv")
