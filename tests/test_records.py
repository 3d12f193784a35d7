"""The record contract: every public record is an immutable NamedTuple whose
repr, equality, hashing and validation read as they did when the records
were frozen dataclasses.

The repr strings are pinned literals recorded from the dataclass records;
payloads and error messages embed them, so a change here shows up in the
CLI's output.
"""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

from oscillax.classify import CornerSpec, MinorWitness, ScanVerdict, classify
from oscillax.errors import (
    IndexOutOfRange,
    MalformedNumber,
    NotNormalizable,
    ShapeMismatch,
)
from oscillax.exponent import (
    ClassMatch,
    CornerZeroWitness,
    ProductFamilyResult,
    exponent_bruteforce,
    predict_exponent,
    recognize_class,
)
from oscillax.matrix import Matrix
from oscillax.planar import (
    PlanarNetwork,
    build_network,
    enumerate_path_families,
    export_dot,
    minor_via_paths,
)
from oscillax.seb import (
    EBFactor,
    SEBFactorization,
    ebd,
    ebl,
    ebu,
    neville_factorize,
    w_q_form,
)
from oscillax.verify import CaseResult, SuiteResult


def _records() -> dict:
    a = Matrix([[1, 1], [1, 2]])
    f = neville_factorize(a)
    tag = recognize_class((1, 1, 1), 3)
    net = build_network(f)
    suite = SuiteResult("demo")
    suite.add("passes", lambda: None)

    def fails():
        raise AssertionError("boom")

    suite.add("fails", fails)
    return {
        "ClassificationReport": classify(Matrix([[1, 2], [3, 1]])),
        "EBFactor-L": ebl(2, Fraction(1, 2)),
        "EBFactor-D": ebd((1, 2)),
        "SEBFactorization": f,
        "WQForm": w_q_form(f),
        "ClassMatch": ClassMatch("Z2", 3, (3,)),
        "ClassTag": tag,
        "Prediction": predict_exponent(tag, tag),
        "CornerZeroWitness": CornerZeroWitness("lower-left", 2, 1),
        "ExponentReport": exponent_bruteforce(a),
        "ProductFamilyResult": ProductFamilyResult(False, (0, 0)),
        # a network's layers are its factors: an L (down) and the D (scale)
        "Layer-down": net.layers[0],
        "Layer-scale": net.layers[1],
        "PlanarNetwork": net,
        "PathFamily": enumerate_path_families(net, (1,), (2,))[0],
        "CaseResult": CaseResult("x", False, "why"),
        "SuiteResult": suite,
        "MinorWitness": MinorWitness((1,), (2,), Fraction(-1, 2)),
        "ScanVerdict": ScanVerdict(True, None),
        "CornerSpec": CornerSpec("upper-right", 2),
    }


RECORDS = _records()

# Recorded from the dataclass records.
REPRS = {
    "ClassificationReport": (
        "ClassificationReport(n=2, is_tn=False, is_invertible=True, is_tp=False, "
        "is_oscillatory=False, is_basic_oscillatory=None, "
        "tn_witness=MinorWitness(rows=(1, 2), cols=(1, 2), value=Fraction(-5, 1)), "
        "tp_witness=MinorWitness(rows=(1, 2), cols=(1, 2), value=Fraction(-5, 1)))"
    ),
    "EBFactor-L": "EBFactor(kind='L', index=2, multiplier=Fraction(1, 2), diag=None)",
    "EBFactor-D": (
        "EBFactor(kind='D', index=None, multiplier=None, "
        "diag=(Fraction(1, 1), Fraction(2, 1)))"
    ),
    "SEBFactorization": (
        "SEBFactorization(n=2, l=(Fraction(1, 1),), d=(Fraction(1, 1), Fraction(1, 1)), "
        "u=(Fraction(1, 1),))"
    ),
    "WQForm": (
        "WQForm(n=2, w_groups=((2, (Fraction(1, 1),)),), d=(Fraction(1, 1), Fraction(1, 1)), "
        "q_groups=((2, (Fraction(1, 1),)),), show_d=False)"
    ),
    "ClassMatch": "ClassMatch(family='Z2', s=3, psi=(3,))",
    "ClassTag": (
        "ClassTag(n=3, family='Z1', s=3, psi_pattern=None, extras=(), "
        "exact=(ClassMatch(family='Z1', s=3, psi=None), ClassMatch(family='Z2', s=2, psi=None)), "
        "with_extras=((ClassMatch(family='Z1', s=2, psi=None), "
        "(EBFactor(kind='L', index=3, multiplier=Fraction(1, 1), diag=None),)), "
        "(ClassMatch(family='Z2', s=3, psi=()), "
        "(EBFactor(kind='L', index=3, multiplier=Fraction(1, 1), diag=None),))))"
    ),
    "Prediction": "Prediction(kind='exact', value=1)",
    "CornerZeroWitness": "CornerZeroWitness(side='lower-left', size=2, power=1)",
    "ExponentReport": (
        "ExponentReport(n=2, r=1, r_lower=1, r_upper=1, method='bruteforce', "
        "l_class=ClassTag(n=2, family='Z1', s=2, psi_pattern=None, extras=(), "
        "exact=(ClassMatch(family='Z1', s=2, psi=None), ClassMatch(family='Z2', s=2, psi=None)), "
        "with_extras=()), "
        "u_class=ClassTag(n=2, family='Z1', s=2, psi_pattern=None, extras=(), "
        "exact=(ClassMatch(family='Z1', s=2, psi=None), ClassMatch(family='Z2', s=2, psi=None)), "
        "with_extras=()), witness_power=Matrix(2x2: 1 1; 1 2), zero_witness=None)"
    ),
    "ProductFamilyResult": (
        "ProductFamilyResult(all_tp=False, counterexample=(0, 0))"
    ),
    "Layer-down": "EBFactor(kind='L', index=2, multiplier=Fraction(1, 1), diag=None)",
    "Layer-scale": (
        "EBFactor(kind='D', index=None, multiplier=None, diag=(Fraction(1, 1), Fraction(1, 1)))"
    ),
    "PlanarNetwork": (
        "PlanarNetwork(n=2, layers=(EBFactor(kind='L', index=2, multiplier=Fraction(1, 1), "
        "diag=None), EBFactor(kind='D', index=None, multiplier=None, "
        "diag=(Fraction(1, 1), Fraction(1, 1))), EBFactor(kind='U', index=2, "
        "multiplier=Fraction(1, 1), diag=None)))"
    ),
    "PathFamily": "PathFamily(paths=((1, 1, 1, 2),), weight=Fraction(1, 1))",
    "CaseResult": "CaseResult(name='x', ok=False, detail='why')",
    "SuiteResult": (
        "SuiteResult(suite='demo', cases=[CaseResult(name='passes', ok=True, detail=''), "
        "CaseResult(name='fails', ok=False, detail='boom')])"
    ),
    "MinorWitness": "MinorWitness(rows=(1,), cols=(2,), value=Fraction(-1, 2))",
    "ScanVerdict": "ScanVerdict(ok=True, witness=None)",
    "CornerSpec": "CornerSpec(side='upper-right', size=2)",
}

# Records holding a dict or a list were unhashable before too.  CaseResult,
# a mutable dataclass before, is the one record that became hashable.
UNHASHABLE = {"SuiteResult"}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_is_covered():
    assert RECORDS.keys() == REPRS.keys()
    public = set()
    for home in ("matrix", "classify", "seb", "exponent", "planar", "verify"):
        module = importlib.import_module("oscillax." + home)
        public |= {
            obj
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, tuple)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        }
    assert public == {type(r) for r in RECORDS.values()}


def test_distinct_records_are_unequal():
    records = list(RECORDS.values())
    for i, a in enumerate(records):
        assert all(a != b for b in records[i + 1 :]), a


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_matches_the_dataclass_record(name):
    assert repr(RECORDS[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_equality_and_hash(name):
    record = RECORDS[name]
    again = _records()[name]
    assert record == again and not record != again
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        # a frozen dataclass hashed the tuple of its field values
        assert hash(record) == hash(again) == hash(_fields(record))


def test_records_compare_as_tuples():
    assert CornerZeroWitness("lower-left", 2, 1) == ("lower-left", 2, 1)
    assert ClassMatch("Z1", 3, None) < ClassMatch("Z2", 2, None)
    assert sorted([ClassMatch("Z2", 3, (3,)), ClassMatch("Z2", 3, ())]) == [
        ClassMatch("Z2", 3, ()),
        ClassMatch("Z2", 3, (3,)),
    ]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_attribute_assignment_raises(name):
    record = RECORDS[name]
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(REPRS))
def test_pickle_and_copy_round_trip(name):
    record = RECORDS[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record, protocol
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == repr(record)


def test_replace_runs_the_validating_constructors():
    assert ebl(2, 1)._replace(multiplier="1/2").multiplier == Fraction(1, 2)
    f = RECORDS["SEBFactorization"]
    assert f._replace(l=("2",)).l == (Fraction(2),)
    with pytest.raises(NotNormalizable, match="multipliers must be nonnegative"):
        f._replace(u=(-1,))
    with pytest.raises(ValueError, match="unknown factor kind"):
        ebl(2, 1)._replace(kind="X")
    with pytest.raises(IndexOutOfRange, match=r"factor index 2 outside \[2, 1\]"):
        RECORDS["PlanarNetwork"]._replace(n=1)
    assert SuiteResult("s")._replace(suite="t") == SuiteResult("t", [])


def test_suite_results_do_not_share_their_case_lists():
    a, b = SuiteResult("a"), SuiteResult("b")
    a.add("one", lambda: None)
    assert len(a.cases) == 1 and b.cases == []


VALIDATION = [
    (lambda: EBFactor("L", 2), ValueError, "L/U factors need an index and a multiplier"),
    (lambda: EBFactor("U", multiplier=1), ValueError, "L/U factors need an index and a multiplier"),
    (lambda: EBFactor("D"), ValueError, "D factor needs diagonal entries"),
    (lambda: EBFactor("X"), ValueError, "unknown factor kind 'X'"),
    (lambda: EBFactor("L", 2, "x"), MalformedNumber, "not an integer, fraction, or finite decimal: 'x'"),
    # an L/U index that is not an int; its range is checked where n is known
    (lambda: ebl("3", 1).matrix(3), ValueError, "factor index must be an integer, got '3'"),
    (
        lambda: PlanarNetwork(3, (ebl("3", 1),)),
        ValueError,
        "factor index must be an integer, got '3'",
    ),
    (lambda: ebl(2.5, 1).matrix(3), ValueError, "factor index must be an integer, got 2.5"),
    (lambda: str(ebl(True, 1)), ValueError, "factor index must be an integer, got True"),
    (lambda: SEBFactorization(1, (), (1,), ()), ShapeMismatch, "factorizations require n >= 2"),
    (
        lambda: SEBFactorization(2, (1, 1), (1, 1), (1,)),
        ShapeMismatch,
        "flat multiplier vectors must have length 1",
    ),
    (lambda: SEBFactorization(2, (1,), (1,), (1,)), ShapeMismatch, "diagonal must have length 2"),
    # a short diagonal is reported before a negative multiplier
    (lambda: SEBFactorization(2, (-1,), (1,), (1,)), ShapeMismatch, "diagonal must have length 2"),
    (
        lambda: SEBFactorization(2, (-1,), (1, 1), (1,)),
        NotNormalizable,
        "multipliers must be nonnegative",
    ),
    (
        lambda: SEBFactorization(2, (1,), (1, 0), (1,)),
        NotNormalizable,
        "diagonal entries must be positive",
    ),
    (lambda: recognize_class((1,), 1), ShapeMismatch, "factorizations require n >= 2"),
    (lambda: recognize_class((1, 1), 3), ShapeMismatch, "flat multiplier vectors must have length 3"),
    (lambda: recognize_class((1, -1, 1), 3), NotNormalizable, "multipliers must be nonnegative"),
    (
        lambda: recognize_class(("x", 1, 1), 3),
        MalformedNumber,
        "not an integer, fraction, or finite decimal: 'x'",
    ),
    # layers that name a track the network does not have
    (
        lambda: minor_via_paths(PlanarNetwork(2, (ebu(3, 5), ebd((1,)))), (2,), (2,)),
        IndexOutOfRange,
        "factor index 3 outside [2, 2]",
    ),
    (
        lambda: minor_via_paths(PlanarNetwork(2, (ebu(3, 5),)), (2,), (2,)),
        IndexOutOfRange,
        "factor index 3 outside [2, 2]",
    ),
    (
        lambda: export_dot(PlanarNetwork(3, (ebl(1, 5),))),
        IndexOutOfRange,
        "factor index 1 outside [2, 3]",
    ),
    (
        lambda: minor_via_paths(PlanarNetwork(2, (ebd((1,)),)), (2,), (2,)),
        ShapeMismatch,
        "diagonal length does not match n",
    ),
]


@pytest.mark.parametrize("build, exc_type, message", VALIDATION)
def test_validation_errors_keep_type_and_message(build, exc_type, message):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


@pytest.mark.parametrize(
    "flat, n",
    [((1,), 1), ((1, 1), 3), ((1, -1, 1), 3), ((-1,), 2), (("x", 1, 1), 3)],
    ids=["n<2", "length", "sign", "sign-n=2", "number"],
)
def test_lower_vector_errors_match_the_factorization(flat, n):
    k = n * (n - 1) // 2
    errors = []
    for build in (
        lambda: recognize_class(flat, n),
        lambda: SEBFactorization(n, flat, (1,) * n, (0,) * k),
    ):
        with pytest.raises(ValueError) as info:
            build()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
