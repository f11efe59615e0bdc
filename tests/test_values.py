"""The value classes' contract: construction, equality, hash, repr, immutability,
pickling and validation, pinned on one small instance of each public class."""

import copy
import pickle
from fractions import Fraction as Fr

import pytest

from yflab.boundary import LevelDistribution, TailOnesWord, level_distribution
from yflab.experiments import (ConcentrationReport, IdentityResult, SuiteReport, SweepRow,
                               concentration_sweep)
from yflab.harmonic import BetaPolynomial, d_beta
from yflab.magic import FactoredTable, MagicTable, SymbolicCell, build_table, factored_table, symbolic_entry
from yflab.words import Level, YFWord, enumerate_level, parse

W22 = TailOnesWord(parse("22"))
LEVEL1 = Level(1, (parse("1"),))
ROW = SweepRow(2, Fr(11, 24), Fr(13, 24))
RESULT = IdentityResult("evtuh5", 4, 1, "x=21")

# (class, its fields in order, the repr of cls(*fields.values()), the same value as the library builds it)
SAMPLES = [
    (TailOnesWord, {"core": parse("22")}, "TailOnesWord('22')", lambda: TailOnesWord.parse("1122")),
    (Level, {"n": 1, "words": (parse("1"),)}, "Level(n=1, words=(YFWord('1'),))",
     lambda: enumerate_level(1)),
    (LevelDistribution,
     {"n": 2, "w": W22, "beta": Fr(1, 2), "masses": {parse("11"): Fr(11, 24), parse("2"): Fr(13, 24)}},
     "LevelDistribution(n=2, w=TailOnesWord('22'), beta=Fraction(1, 2), "
     "masses={YFWord('11'): Fraction(11, 24), YFWord('2'): Fraction(13, 24)})",
     lambda: level_distribution(W22, Fr(1, 2), 2)),
    (BetaPolynomial, {"coeffs": (Fr(1), Fr(-1))}, "BetaPolynomial(['1', '-1'])",
     lambda: d_beta(parse("1"))),
    (FactoredTable, {"w": W22, "n": 1, "level": LEVEL1, "den": 3, "rows": (((1, 0, 3), (0, 1, 3)),)},
     "FactoredTable(w=TailOnesWord('22'), n=1, level=Level(n=1, words=(YFWord('1'),)), den=3, "
     "rows=(((1, 0, 3), (0, 1, 3)),))",
     lambda: factored_table(W22, 1)),
    (MagicTable,
     {"w": W22, "beta": Fr(1, 2), "n": 1, "level": LEVEL1, "entries": ((Fr(3, 4), Fr(1, 2)),)},
     "MagicTable(w=TailOnesWord('22'), beta=Fraction(1, 2), n=1, level=Level(n=1, words=(YFWord('1'),)), "
     "entries=((Fraction(3, 4), Fraction(1, 2)),))",
     lambda: build_table(W22, Fr(1, 2), 1)),
    (SymbolicCell, {"coeff": Fr(1), "tail": parse("1"), "beta_exp": 1, "one_minus_beta2_exp": 1},
     "SymbolicCell(coeff=Fraction(1, 1), tail=YFWord('1'), beta_exp=1, one_minus_beta2_exp=1)",
     lambda: symbolic_entry(3, parse("21"), 1)),
    (SweepRow, {"n": 2, "tail": Fr(11, 24), "head": Fr(13, 24)},
     "SweepRow(n=2, tail=Fraction(11, 24), head=Fraction(13, 24))", None),
    (ConcentrationReport, {"mode": "suffix", "w": W22, "beta": Fr(1, 2), "parameter": 1, "rows": (ROW,)},
     "ConcentrationReport(mode='suffix', w=TailOnesWord('22'), beta=Fraction(1, 2), parameter=1, "
     "rows=(SweepRow(n=2, tail=Fraction(11, 24), head=Fraction(13, 24)),))",
     lambda: concentration_sweep("suffix", W22, Fr(1, 2), 1, [2])),
    (IdentityResult, {"name": "evtuh5", "instances": 4, "failures": 1, "first_counterexample": "x=21"},
     "IdentityResult(name='evtuh5', instances=4, failures=1, first_counterexample='x=21')", None),
    (SuiteReport, {"max_rank": 3, "results": (RESULT,)},
     "SuiteReport(max_rank=3, results=(IdentityResult(name='evtuh5', instances=4, failures=1, "
     "first_counterexample='x=21'),))", None),
]
# the plain records, which are tuples of their fields
RECORDS = (ConcentrationReport, IdentityResult, MagicTable, SuiteReport, SweepRow, SymbolicCell)
IDS = [cls.__name__ for cls, *_ in SAMPLES]


@pytest.mark.parametrize("cls, fields, text, built", SAMPLES, ids=IDS)
def test_construction_positional_and_keyword(cls, fields, text, built):
    obj = cls(*fields.values())
    assert cls(**fields) == obj
    assert [getattr(obj, name) for name in fields] == list(fields.values())
    if built is not None:
        assert built() == obj


@pytest.mark.parametrize("cls, fields, text, built", SAMPLES, ids=IDS)
def test_equality(cls, fields, text, built):
    obj, twin = cls(*fields.values()), cls(*fields.values())
    assert twin is not obj and twin == obj and not twin != obj
    assert obj != object() and obj != None  # noqa: E711
    for other_cls, other_fields, _, _ in SAMPLES:
        if other_cls is not cls:
            assert obj != other_cls(*other_fields.values())
    if cls not in RECORDS:
        assert obj != tuple(fields.values())
        assert all(obj != value for value in fields.values())


def test_a_changed_field_breaks_equality():
    assert TailOnesWord(parse("22")) != TailOnesWord(parse("212"))
    assert Level(1, (parse("1"),)) != Level(2, (parse("1"),))
    assert Level(1, (parse("1"),)) != Level(1, (parse("2"),))
    masses = {parse("11"): Fr(11, 24), parse("2"): Fr(13, 24)}
    assert LevelDistribution(2, W22, Fr(1, 2), masses) != LevelDistribution(2, W22, Fr(1, 3), masses)
    assert BetaPolynomial((1, 1)) != BetaPolynomial((1, 2))
    rows = (((1, 0, 3), (0, 1, 3)),)
    assert FactoredTable(W22, 1, LEVEL1, 3, rows) != FactoredTable(W22, 1, LEVEL1, 4, rows)
    assert FactoredTable(W22, 1, LEVEL1, 3, rows) != FactoredTable(TailOnesWord(parse("2")), 1, LEVEL1, 3, rows)


@pytest.mark.parametrize("cls, fields, text, built", SAMPLES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, fields, text, built):
    obj = cls(*fields.values())
    if cls is LevelDistribution:  # its masses are a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(tuple(fields.values()))
        assert len({obj, cls(*fields.values())}) == 1


@pytest.mark.parametrize("cls, fields, text, built", SAMPLES, ids=IDS)
def test_repr(cls, fields, text, built):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, text, built", SAMPLES, ids=IDS)
def test_assignment_raises(cls, fields, text, built):
    obj = cls(*fields.values())
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert [getattr(obj, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, text, built", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, text, built):
    obj = cls(*fields.values())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj, protocol
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj


def test_validation_is_unchanged():
    with pytest.raises(ValueError, match="core must not begin with 1"):
        TailOnesWord(parse("12"))
    with pytest.raises(AssertionError, match="negative mass"):
        LevelDistribution(2, W22, Fr(1, 2), {parse("11"): Fr(3, 2), parse("2"): Fr(-1, 2)})
    with pytest.raises(AssertionError, match="masses sum to 1/2, not 1"):
        LevelDistribution(1, W22, Fr(1, 2), {parse("1"): Fr(1, 2)})
    p = BetaPolynomial((1, Fr(1, 2), 0, 0))
    assert p.coeffs == (Fr(1), Fr(1, 2)) and all(type(c) is Fr for c in p.coeffs)
    assert BetaPolynomial(coeffs=[0, 0]).coeffs == ()
    assert IdentityResult("sum", 3, 0).first_counterexample is None


def test_tail_ones_word_converts_a_core_that_is_not_a_yfword():
    # a str core, other digits and a core beginning with 1 are refused; a tuple of digits is converted
    for core in ("12", "22", (2, 3), [1, 2]):
        with pytest.raises(ValueError):
            TailOnesWord(core)
    w, parsed = TailOnesWord((2, 1)), TailOnesWord.parse("21")
    assert type(w.core) is YFWord and w == parsed and hash(w) == hash(parsed)
    assert repr(w) == "TailOnesWord('21')"


def test_records_equal_their_field_tuples():
    # the plain records are typing.NamedTuples: a tuple of the same fields compares equal
    assert SweepRow(2, Fr(11, 24), Fr(13, 24)) == (2, Fr(11, 24), Fr(13, 24))
    assert IdentityResult("sum", 3, 0) == ("sum", 3, 0, None)
    for cls, fields, _, _ in SAMPLES:
        if cls in RECORDS:
            obj = cls(*fields.values())
            assert isinstance(obj, tuple) and obj == tuple(fields.values()) and len(obj) == len(fields)
