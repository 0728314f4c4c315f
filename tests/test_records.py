"""The contract of the package's five immutable records: construction,
validation, equality, hashing, repr, immutability, pickling and copying.

The records were frozen dataclasses; they are now plain slots classes on
partitions.FrozenRecord, and every behaviour pinned here is the one the
dataclasses had (their reprs byte for byte), except that assignment and
deletion raise a plain AttributeError.
"""

import copy
import pickle

import pytest

from plethtomo.partitions import FrozenRecord
from plethtomo.reductions import (
    KroneckerPlethysmTriple,
    PlethysmInstance,
    kronecker_plethysm_triple,
)
from plethtomo.restricted import PsiDecomposition, psi_decompose
from plethtomo.tomography import SymInstance, XRayInstance2D

INST = XRayInstance2D(1, (2, 1), (2, 1), (2, 1))
CHAIN = kronecker_plethysm_triple(INST)

# (record, the same record built with keywords, a different record of the
# same class, its repr as the frozen dataclass printed it)
CASES = {
    "XRayInstance2D": (
        XRayInstance2D(1, [2, 1, 0], (2, 1), (2, 1)),
        XRayInstance2D(rho=(2, 1), nu=(2, 1), mu=(2, 1), r=1),
        XRayInstance2D(1, (2, 1), (2, 1), (1, 2)),
        "XRayInstance2D(r=1, mu=(2, 1), nu=(2, 1), rho=(2, 1))",
    ),
    "SymInstance": (
        SymInstance([3, 2, 0], "closed", 4),
        SymInstance(grid_r=4, cone="closed", marginal=(3, 2)),
        SymInstance((3, 2), "closed"),
        "SymInstance(marginal=(3, 2), cone='closed', grid_r=4)",
    ),
    "PlethysmInstance": (
        PlethysmInstance((2, 1), 1, 3, "b"),
        PlethysmInstance(variant="b", m=3, n=1, lam=(2, 1)),
        PlethysmInstance((2, 1), 1, 3, "a"),
        "PlethysmInstance(lam=(2, 1), n=1, m=3, variant='b')",
    ),
    "PsiDecomposition": (
        psi_decompose((3, 2), "wedge"),
        PsiDecomposition(
            layer_parts=(0, 0, 0), pyramid_parts=(2, 2, 1), thresholds=(5, 5, 4), column_heights=(2, 2, 1), variant="wedge"
        ),
        psi_decompose((3, 2), "sym"),
        "PsiDecomposition(variant='wedge', column_heights=(2, 2, 1), thresholds=(5, 5, 4), pyramid_parts=(2, 2, 1), layer_parts=(0, 0, 0))",
    ),
    "KroneckerPlethysmTriple": (
        CHAIN,
        KroneckerPlethysmTriple(
            inst=INST, sym2d=CHAIN.sym2d, promise3d=CHAIN.promise3d, promise=CHAIN.promise, queries=CHAIN.queries, triple=CHAIN.triple
        ),
        kronecker_plethysm_triple(XRayInstance2D(1, (1, 1), (1, 1), (2,))),
        "KroneckerPlethysmTriple(inst=XRayInstance2D(r=1, mu=(2, 1), nu=(2, 1), rho=(2, 1)))",
    ),
}

records = pytest.mark.parametrize("name", sorted(CASES))


def fields(record):
    """Every field of a record, compared or not, by name."""
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_five_records_on_one_base():
    assert len(CASES) == 5
    assert {type(case[0]) for case in CASES.values()} == {cls for cls in FrozenRecord.__subclasses__() if cls.__module__.startswith("plethtomo")}
    assert all(type(case[0]).__name__ == name for name, case in CASES.items())


@records
def test_keyword_construction_equals_positional(name):
    record, by_keyword, other, _ = CASES[name]
    assert type(by_keyword) is type(record)
    assert fields(by_keyword) == fields(record)
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert record != other and not (record == other)


def test_sym_instance_grid_r_defaults_to_none():
    assert SymInstance((3,), "open").grid_r is None
    assert SymInstance((3,), "open") == SymInstance((3,), "open", None) == SymInstance(marginal=(3,), cone="open")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: XRayInstance2D(-1, (), (), ()), "grid range must be >= 0, got -1"),
        (lambda: XRayInstance2D(1, (1, -1), (1, 1, 1), ()), "negative entry -1 in composition [1, -1]"),
        (lambda: XRayInstance2D(1, (1, 1, 1), (), ()), "mu marginal longer than grid range [0,1]"),
        (lambda: XRayInstance2D(1, (), (), (0, 0, 1)), "rho marginal longer than grid range [0,1]"),
        (lambda: SymInstance((1, -2), "cone"), "negative entry -2 in composition [1, -2]"),
        (lambda: SymInstance((1,), "cone"), "unknown cone kind 'cone'"),
        (lambda: SymInstance((1,), "open", -1), "grid range must be >= 0, got -1"),
        (lambda: psi_decompose((2,), "cone"), "unknown variant 'cone', expected one of ['sym', 'wedge']"),
    ],
)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_fields_are_canonical():
    inst = XRayInstance2D(2, [1, 0, 0], (0, 1), (1,))
    assert (inst.mu, inst.nu, inst.rho) == ((1,), (0, 1), (1,))
    assert all(type(v) is tuple for v in (inst.mu, inst.nu, inst.rho))
    assert SymInstance([0, 2, 0], "open").marginal == (0, 2)


@records
def test_equality_is_class_strict(name):
    record = CASES[name][0]
    values = tuple(fields(record).values())
    assert record != values and values != record
    assert all(record != case[0] for other, case in CASES.items() if other != name)

    class Twin(FrozenRecord):
        # the same slots and values under another class
        __slots__ = type(record).__slots__

        def __init__(self, *values):
            for slot, value in zip(self.__slots__, values):
                object.__setattr__(self, slot, value)

    twin = Twin(*values)
    assert twin._values() == values
    assert record != twin and twin != record


@records
def test_repr_is_the_dataclass_repr(name):
    record, by_keyword, _, shown = CASES[name]
    assert repr(record) == repr(by_keyword) == str(record) == shown


@records
def test_assignment_and_deletion_raise(name):
    record = CASES[name][0]
    before = fields(record)
    for slot in (*type(record).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{slot}'"):
            setattr(record, slot, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{slot}'"):
            delattr(record, slot)
    assert fields(record) == before and not hasattr(record, "__dict__")


@records
def test_pickle_and_copies_round_trip(name):
    record = CASES[name][0]
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        assert fields(twin) == fields(record)
    assert copy.deepcopy(record) is not record


def test_kronecker_triple_compares_hashes_and_shows_by_inst_alone():
    stranger = kronecker_plethysm_triple(XRayInstance2D(1, (1, 1), (1, 1), (2,)))
    mixed = KroneckerPlethysmTriple(INST, *(getattr(stranger, name) for name in ("sym2d", "promise3d", "promise", "queries", "triple")))
    assert mixed == CHAIN and hash(mixed) == hash(CHAIN) and repr(mixed) == repr(CHAIN)
    assert mixed != stranger and mixed.triple == stranger.triple
    assert kronecker_plethysm_triple(XRayInstance2D(1, [2, 1], [2, 1], [2, 1])) == CHAIN
    assert len({CHAIN, mixed, kronecker_plethysm_triple(INST)}) == 1
