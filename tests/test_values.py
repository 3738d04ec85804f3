"""The small value classes: construction, equality, immutability, pickling."""
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import cloneops
from cloneops import (ArrowPlan, Domain, EnumerationStats, GeneratingSystem, PPFormula,
                      SeparationReport, SnowInstance, SynthesisResult, arrow_plan, dedup_rows,
                      snow_instance)
from cloneops.commutation import _CountLayout, _Grid
from cloneops.snow import CheckResult

_FORMULA = PPFormula(Domain(2), ("x", "z"), ("y",), (("R", ("x", "y")), ("R", ("y", "z"))),
                     (1, 2, 1))
_CHECK = CheckResult("soundness", "PASS", "all 9 graph tuples witnessed")


def _as_fields(value) -> dict:
    names = value._fields if isinstance(value, tuple) else type(value).__slots__
    return {name: getattr(value, name) for name in names}


# (class, its fields in order, immutable, hashable); the named tuples are
# immutable, SynthesisResult among them, which no code assigns to
CASES = [
    (Domain, {"k": 3}, True, True),
    (EnumerationStats, {"candidates": 10, "survivors": 4, "details": {"binary_slice": 65}},
     False, False),
    (PPFormula, _as_fields(_FORMULA), True, True),
    (ArrowPlan, _as_fields(arrow_plan(3)), True, True),
    (SnowInstance, _as_fields(snow_instance(3)), True, True),
    (CheckResult, _as_fields(_CHECK), True, True),
    (SeparationReport, {"k": 3, "mode": "witness", "params": {"seed": 0}, "checks": [_CHECK]},
     False, False),
    (GeneratingSystem, _as_fields(dedup_rows([(0, 1, 1), (1, 0, 1)], Domain(2))), True, False),
    (SynthesisResult, {"formula": _FORMULA, "row_count": 8, "atom_counts": {"R": 2},
                       "exist_count": 1, "free_count": 2, "unseen_rows": 0}, True, False),
]


@pytest.mark.parametrize("cls, fields, frozen, hashable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_construction_equality_and_mutability(cls, fields, frozen, hashable):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert _as_fields(by_position) == _as_fields(by_keyword) == fields
    assert by_position == by_keyword
    assert by_position != object()
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    name = next(iter(fields))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(by_position, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    else:
        setattr(by_position, name, None)
        assert getattr(by_position, name) is None and by_position != by_keyword


def test_defaults_and_fresh_containers():
    assert PPFormula(Domain(2), ("x",), (), ()).alpha is None
    stats, other = EnumerationStats(0, 0), EnumerationStats(candidates=0, survivors=0)
    stats.details["filters"] = []
    assert other.details == {}
    report = SeparationReport(3, "full")
    report.checks.append(_CHECK)
    assert SeparationReport(3, "full").checks == [] and report.params == {}
    assert repr(Domain(3)) == "Domain(k=3)"
    assert repr(other) == "EnumerationStats(candidates=0, survivors=0, details={})"


@pytest.mark.parametrize("value", [Domain(5), _FORMULA, snow_instance(3).f_op],
                         ids=["Domain", "PPFormula", "Operation"])
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value)
    assert type(copy) is type(value)


def test_pickles_through_the_constructor():
    # so unpickling checks its fields as construction does
    assert Domain(2).__reduce__() == (Domain, (2,))
    assert _FORMULA.__reduce__() == (PPFormula, tuple(_as_fields(_FORMULA).values()))


def test_undeclared_variable_names_the_first_offending_atom():
    atoms = (("R", ("x", "y")), ("S", ("y", "w")), ("T", ("v",)))
    with pytest.raises(ValueError) as err:
        PPFormula(Domain(2), ("x",), ("y",), atoms)
    assert str(err.value) == "atom over 'S' uses undeclared variable 'w'"


def test_grid_is_compared_by_identity_and_copied_with_changes():
    base = np.zeros((2, 9), dtype=np.uint8)
    ext = np.zeros((3, 1), dtype=np.uint8)
    grid = _Grid(base, ext, {4: 0}, np.arange(2), np.arange(3))
    assert grid.live is None and len(grid) == 6
    same = _Grid(base=base, ext=ext, slot={4: 0}, ti=grid.ti, ei=grid.ei, live=None)
    assert grid == grid and grid != same and len({grid, same}) == 2
    live = np.array([[True, False, False], [False, False, True]])
    masked = grid._replace(live=live)
    assert len(masked) == 2 and masked.base is base and masked.ti is grid.ti
    assert grid.live is None
    with pytest.raises(AttributeError):
        grid.live = live


def test_count_layout_is_an_immutable_triple():
    sides = np.ones((6, 1)), np.zeros((9, 1))
    layout = _CountLayout(*sides, {})
    assert _CountLayout(triple_side=sides[0], ext_side=sides[1], products={}).ext_side is sides[1]
    assert layout.triple_side is sides[0] and layout.products == {}
    with pytest.raises(AttributeError):
        layout.products = {}


def test_no_class_is_a_dataclass():
    modules = [importlib.import_module(f"cloneops.{info.name}")
               for info in pkgutil.iter_modules(cloneops.__path__)]
    classes = [obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__]
    assert len(classes) > 20
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
