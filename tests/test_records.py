"""The value-record contract: every record, the three run settings included,
is a ``Record`` and behaves as the frozen dataclass it replaces did."""

import copy
import dataclasses
import importlib
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import pytest

import tourval
from tourval import TriangularFuzzyNumber as TFN
from tourval.ahp import WeightCheck, WeightReport
from tourval.errors import ConfigError
from tourval.pipeline import (IngestResult, KdeSettings, PipelineOutput, RunConfig,
                              TourSettings, load_config)
from tourval.record import FrozenInstanceError, Record
from tourval.rescale import SourceRange, TargetRange
from tourval.spatial import DensityGrid, GeoPoint, HotSpot, ScoredPoint, Tour
from tourval.valuation import FactorCatalogue, FactorDefinition, Valuation

SOURCE_ROOT = Path(tourval.__file__).resolve().parents[1]


class Case(NamedTuple):
    cls: type
    fields: dict[str, Any]          # every __init__ argument, in order
    defaults: dict[str, Any]        # the arguments that may be left out, and their defaults
    text: str                       # the repr
    bad: tuple[dict, type, str]     # changes that __init__ refuses, the error, its message
    hashable: bool = True


POINT = GeoPoint(-75.8, 20.0)
SPOT = HotSpot(POINT, 2.5, "H1")
SOURCE = SourceRange(0.0, 5.0)
TARGET = TargetRange(0.0, 100.0)
FACTOR = FactorDefinition("f1", "Condition", SOURCE, 1.0)
CATALOGUE = FactorCatalogue((FACTOR,), TARGET)
ONE = TFN(1.0, 2.0, 3.0)
VALUATION = Valuation(("a1",), np.array([[1.0, 2.0, 3.0]]), np.array([2.0]), (33.0, 66.0))
POINT_TEXT = "GeoPoint(lon=-75.8, lat=20.0)"
SPOT_TEXT = f"HotSpot(center={POINT_TEXT}, score=2.5, label='H1')"
FACTOR_TEXT = ("FactorDefinition(id='f1', name='Condition', src=SourceRange(x=0.0, y=5.0), "
               "weight=1.0)")
ONE_TEXT = "TriangularFuzzyNumber(lo=1.0, mode=2.0, hi=3.0)"
VALUATION_TEXT = ("Valuation(ids=('a1',), ftv=array([[1., 2., 3.]]), crisp=array([2.]), "
                  "thresholds=(33.0, 66.0), printed=[2.0], tiers=('Low',), crisp_texts=['2'], "
                  "crisp_json=['2.0'])")
SPAN = "must increase by a finite span of at least 2.2250738585072014e-308 (negate a " \
       "descending scale)"

CASES = [
    Case(TFN, dict(lo=1.0, mode=2.0, hi=3.0), {}, ONE_TEXT,
         ({"mode": 4.0}, ValueError, "TFN components must be finite and satisfy "
                                     "lo <= mode <= hi, got (1.0, 4.0, 3.0)")),
    Case(SourceRange, dict(x=0.0, y=5.0), {}, "SourceRange(x=0.0, y=5.0)",
         ({"y": 0.0}, ValueError, f"source range [0.0, 0.0] {SPAN}")),
    Case(TargetRange, dict(m=0.0, M=100.0), {}, "TargetRange(m=0.0, M=100.0)",
         ({"M": math.inf}, ValueError, f"target range [0.0, inf] {SPAN}")),
    Case(WeightReport, dict(weights=(0.75, 0.25), lambda_max=2.0, consistency_index=0.0,
                            consistency_ratio=0.0), {},
         "WeightReport(weights=(0.75, 0.25), lambda_max=2.0, consistency_index=0.0, "
         "consistency_ratio=0.0)", None),
    Case(WeightCheck, dict(ok=False, detail="sum 2 differs"), {"detail": ""},
         "WeightCheck(ok=False, detail='sum 2 differs')", None),
    Case(GeoPoint, dict(lon=-75.8, lat=20.0), {}, POINT_TEXT,
         ({"lat": 91.0}, ValueError, "latitude must be in [-90, 90], got 91.0")),
    Case(ScoredPoint, dict(point=POINT, weight=80.5), {},
         f"ScoredPoint(point={POINT_TEXT}, weight=80.5)",
         ({"weight": -1.0}, ValueError, "weight must be finite and non-negative, got -1.0")),
    Case(HotSpot, dict(center=POINT, score=2.5, label="H1"), {}, SPOT_TEXT,
         ({"score": 0.0}, ValueError, "hotspot score must be positive, got 0.0")),
    Case(Tour, dict(stops=(SPOT,), length_km=1.5, duration_hours=(0.5, 0.75, 1.0)),
         {"duration_hours": None},
         f"Tour(stops=({SPOT_TEXT},), length_km=1.5, duration_hours=(0.5, 0.75, 1.0))",
         ({"duration_hours": (1.0, 0.5, 2.0)}, ValueError,
          "duration bounds must be ordered, got (1.0, 0.5, 2.0)")),
    Case(DensityGrid, dict(center=POINT, x0=-10.0, y0=-20.0, cell_m=5.0,
                           values=np.array([[0.5]])), {},
         f"DensityGrid(center={POINT_TEXT}, x0=-10.0, y0=-20.0, cell_m=5.0, "
         "values=array([[0.5]]), positive=array([0]))",
         ({"cell_m": 0.0}, ValueError, "cell size must be positive, got 0.0"), hashable=False),
    Case(FactorDefinition, dict(id="f1", name="Condition", src=SOURCE, weight=1.0), {},
         FACTOR_TEXT,
         ({"weight": 2.0}, ValueError, "factor 'f1': weight must be in [0, 1], got 2.0")),
    Case(FactorCatalogue, dict(factors=(FACTOR,), target=TARGET), {},
         f"FactorCatalogue(factors=({FACTOR_TEXT},), target=TargetRange(m=0.0, M=100.0))",
         ({"factors": (FACTOR, FACTOR)}, ValueError, "duplicate factor ids in catalogue: f1")),
    Case(Valuation, dict(ids=("a1",), ftv=VALUATION.ftv, crisp=VALUATION.crisp,
                         thresholds=(33.0, 66.0)), {}, VALUATION_TEXT, None, hashable=False),
    Case(IngestResult, dict(catalogue=CATALOGUE, scores=np.array([[[1.0, 2.0, 3.0]]]),
                            names={"a1": "First"}, locations={"a1": POINT},
                            weight_source="column", weight_report=None, judgements=1), {},
         f"IngestResult(catalogue=FactorCatalogue(factors=({FACTOR_TEXT},), "
         "target=TargetRange(m=0.0, M=100.0)), scores=array([[[1., 2., 3.]]]), "
         f"names={{'a1': 'First'}}, locations={{'a1': {POINT_TEXT}}}, weight_source='column', "
         "weight_report=None, judgements=1)", None, hashable=False),
    Case(PipelineOutput, dict(results=VALUATION, retained=("a1",), weight_source=None,
                              weight_report=None, hotspots=(SPOT,), tour=None, written=()), {},
         f"PipelineOutput(results={VALUATION_TEXT}, retained=('a1',), weight_source=None, "
         f"weight_report=None, hotspots=({SPOT_TEXT},), tour=None, written=())", None,
         hashable=False),
]
HERE = Path(__file__).resolve()
KDE_TEXT = ("KdeSettings(bandwidth_m=100.0, cell_m=10.0, hotspot_percentile=90.0, "
            "merge_radius_m=0.0)")
TOUR_TEXT = "TourSettings(walk_speed_kmh=4.0, dwell_minutes=(0.0, 0.0, 0.0))"
NUMBER = "must be a number within the float range, got"
# the run settings; RunConfig takes this file as each input, which must exist
SETTINGS = [
    Case(KdeSettings, dict(bandwidth_m=100.0, cell_m=10.0, hotspot_percentile=90.0,
                           merge_radius_m=0.0),
         dict(bandwidth_m=100.0, cell_m=10.0, hotspot_percentile=90.0, merge_radius_m=0.0),
         KDE_TEXT, ({"bandwidth_m": True}, ConfigError, f"kde.bandwidth_m {NUMBER} True")),
    Case(TourSettings, dict(walk_speed_kmh=4.0, dwell_minutes=(0.0, 0.0, 0.0)),
         dict(walk_speed_kmh=4.0, dwell_minutes=(0.0, 0.0, 0.0)), TOUR_TEXT,
         ({"dwell_minutes": [True] * 3}, ConfigError, "tour.dwell_minutes must be a list of "
                                                      "numbers within the float range, got "
                                                      "[True, True, True]")),
    Case(RunConfig, dict(factors=HERE, evaluations=HERE, attractions=HERE, pairwise=None,
                         target=(0.0, 100.0), defuzzify="centroid", range_policy="strict",
                         tier_thresholds=(33.0, 66.0), filter_threshold=66.0,
                         kde=KdeSettings(), tour=TourSettings(), out_dir=HERE.parent / "out"),
         dict(pairwise=None, target=(0.0, 100.0), defuzzify="centroid", range_policy="strict",
              tier_thresholds=(33.0, 66.0), filter_threshold=66.0, kde=KdeSettings(),
              tour=TourSettings(), out_dir=Path("out").resolve()),
         f"RunConfig(factors={HERE!r}, evaluations={HERE!r}, attractions={HERE!r}, "
         "pairwise=None, target=(0.0, 100.0), defuzzify='centroid', range_policy='strict', "
         f"tier_thresholds=(33.0, 66.0), filter_threshold=66.0, kde={KDE_TEXT}, "
         f"tour={TOUR_TEXT}, out_dir={HERE.parent / 'out'!r})",
         ({"filter_threshold": "66"}, ConfigError, f"filter_threshold {NUMBER} '66'")),
]
RECORDS = CASES + SETTINGS
IDS = [case.cls.__name__ for case in RECORDS]


def make(case: Case):
    return case.cls(*case.fields.values())


def same(a, b) -> bool:
    """Equal in type and field by field; arrays by their elements."""
    return type(a) is type(b) and repr(a) == repr(b)


def test_fifteen_records():
    assert len({case.cls for case in CASES}) == 15
    assert all(issubclass(case.cls, Record) for case in CASES)


@pytest.mark.parametrize("case", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(case):
    record = make(case)
    assert all(repr(getattr(record, name)) == repr(value) for name, value in case.fields.items())
    assert same(case.cls(**case.fields), record)
    required = {name: value for name, value in case.fields.items() if name not in case.defaults}
    for left_out in (case.cls(*required.values()), case.cls(**required)):
        for name, default in case.defaults.items():
            assert getattr(left_out, name) == default


@pytest.mark.parametrize("case", [case for case in RECORDS if case.bad],
                         ids=lambda c: c.cls.__name__)
def test_validation_messages(case):
    changes, error, message = case.bad
    with pytest.raises(error) as raised:
        case.cls(**{**case.fields, **changes})
    assert str(raised.value) == message


@pytest.mark.parametrize("case", RECORDS, ids=IDS)
def test_assignment_and_deletion_refused(case):
    record = make(case)
    for name in [*case.fields, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == case.text


@pytest.mark.parametrize("case", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(case):
    a, b = make(case), make(case)
    assert a == b and not a != b
    if case.hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    other = RECORDS[(RECORDS.index(case) + 1) % len(RECORDS)]
    assert a != make(other) and a.__eq__(make(other)) is NotImplemented
    plain = tuple(case.fields.values())
    assert a != plain and a.__eq__(plain) is NotImplemented


ARRAY_RECORDS = [
    pytest.param(lambda v: Valuation(("a1", "a2"), v.reshape(2, 3), v[:2].copy(), (33.0, 66.0)),
                 id="Valuation"),
    pytest.param(lambda v: DensityGrid(POINT, 0.0, 0.0, 5.0, v.reshape(2, 3)), id="DensityGrid"),
    pytest.param(lambda v: IngestResult(CATALOGUE, v.reshape(2, 1, 3), {"a1": "A", "a2": "B"},
                                        {"a1": POINT, "a2": POINT}, "column", None, 2),
                 id="IngestResult"),
    pytest.param(lambda v: PipelineOutput(Valuation(("a1", "a2"), v.reshape(2, 3), v[:2].copy(),
                                                    (33.0, 66.0)),
                                          ("a1",), None, None, (), None, ()),
                 id="PipelineOutput"),
]


@pytest.mark.parametrize("build", ARRAY_RECORDS)
def test_records_built_apart_compare_by_array_elements(build):
    values = np.arange(1.0, 7.0)
    a, b = build(values), build(values.copy())
    assert (a == b) is True and (a != b) is False
    changed = values.copy()
    changed[-1] = 9.0
    assert (a == build(changed)) is False and (a != build(changed)) is True
    assert a.__eq__(tuple(a._values())) is NotImplemented and a != tuple(a._values())


def test_array_fields_of_other_shapes_differ():
    grid = DensityGrid(POINT, 0.0, 0.0, 5.0, np.zeros((2, 3)))
    assert grid != grid.replace(values=np.zeros((3, 2)))
    assert grid != grid.replace(values=np.zeros((1, 6)))
    assert grid == grid.replace(values=np.zeros((2, 3)))


def test_equal_fields_of_another_class_differ():
    assert SourceRange(0.0, 5.0) != TargetRange(0.0, 5.0)
    assert SourceRange(1.0, 2.0) != GeoPoint(1.0, 2.0)
    assert ONE != TFN(1.0, 2.0, 3.5)


@pytest.mark.parametrize("case", RECORDS, ids=IDS)
def test_repr(case):
    assert repr(make(case)) == case.text


@pytest.mark.parametrize("case", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle(case):
    record = make(case)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 *(pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert twin is not record and same(twin, record)
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(case.fields)), 1)


@pytest.mark.parametrize("case", RECORDS, ids=IDS)
def test_replace_builds_again(case):
    record = make(case)
    assert same(record.replace(), record)
    name, value = next(iter(case.fields.items()))
    changed = record.replace(**{name: value})
    assert same(changed, record) and changed is not record
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)
    if case.bad:
        changes, error, message = case.bad
        with pytest.raises(error) as raised:
            record.replace(**changes)
        assert str(raised.value) == message


def test_replace_keeps_the_other_fields_and_coerces_again():
    tour = Tour([SPOT], 1.5)
    timed = tour.replace(duration_hours=(0.5, 0.75, 1.0))
    assert timed == Tour((SPOT,), 1.5, (0.5, 0.75, 1.0)) and tour.duration_hours is None
    assert tour.replace(stops=[SPOT, SPOT]).stops == (SPOT, SPOT)
    assert TFN(1, 2, 3).replace(hi=4).as_tuple() == (1.0, 2.0, 4.0)
    assert type(TFN(1, 2, 3).replace(hi=4).hi) is float
    assert FACTOR.replace(weight=0.5) == FactorDefinition("f1", "Condition", SOURCE, 0.5)
    heavier = FactorDefinition("f2", "Impact", SOURCE, 0.5)
    with pytest.raises(ConfigError, match="factor weights: sum 1.5 differs from 1"):
        CATALOGUE.replace(factors=[FACTOR, heavier])


def test_derived_and_coerced_fields():
    valuation = Valuation(("a", "b"), np.zeros((2, 3)), np.array([66.0000004, 1.5]),
                          (33.0, 66.0))
    assert (valuation.printed, valuation.tiers) == ([66.0, 1.5], ("Medium", "Low"))
    values = np.array([[0.5, 1.0]])
    grid = DensityGrid(POINT, 0.0, 0.0, 5.0, values)
    assert grid.values is not values and not grid.values.flags.writeable
    assert FactorCatalogue([FACTOR], TARGET).factors == (FACTOR,)


def test_no_class_is_a_dataclass():
    """Among the public names, and among all classes of the package's
    modules, no class is a dataclass: the run settings, the last three that
    were, are records now."""
    public = {name: getattr(tourval, name) for name in tourval.__all__}
    modules = [importlib.import_module(f"tourval.{name}") for name in (
        "ahp", "cli", "datasets", "errors", "fuzzy", "pipeline", "record", "render",
        "rescale", "rounding", "spatial", "valuation")]
    for module in modules:
        public.update((name, getattr(module, name)) for name in getattr(module, "__all__", ()))
    assert {"KdeSettings", "RunConfig", "TourSettings"} <= set(public)
    assert not [name for name, value in public.items()
                if isinstance(value, type) and dataclasses.is_dataclass(value)]
    assert not [name for name, value in tourval.__dict__.items()
                if isinstance(value, type) and dataclasses.is_dataclass(value)]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__}
    assert len(classes) > 20 and not [c for c in classes if dataclasses.is_dataclass(c)]


def test_import_makes_no_dataclass():
    """Counted in a fresh interpreter, where the import runs every class body:
    importing tourval.cli makes ``dataclasses`` process no class, the three run
    settings it once processed included."""
    counter = ("import dataclasses, sys\n"
               "made = []\n"
               "process = dataclasses._process_class\n"
               "def counted(cls, *args, **kwargs):\n"
               "    made.append(cls.__name__)\n"
               "    return process(cls, *args, **kwargs)\n"
               "dataclasses._process_class = counted\n"
               "import tourval.cli\n"
               "print(len(made), ' '.join(sorted(made)))\n")
    done = subprocess.run([sys.executable, "-c", counter], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT)})
    assert done.stdout.split() == ["0"]


def test_import_loads_no_dataclasses_module():
    """In a fresh interpreter that has imported numpy, importing tourval.cli
    does not load ``dataclasses`` (nor ``copy``, which it pulls in): a
    record's frozen-field error is the package's own ``AttributeError``.
    Nor does it load ``logging`` (nor ``traceback`` and ``string``, which it
    pulls in): the clamp line is printed where it is decided."""
    probe = ("import sys, numpy\n"
             "before = set(sys.modules)\n"
             "import tourval.cli\n"
             "probe = {'dataclasses', 'copy', 'logging', 'traceback', 'string'}\n"
             "print(' '.join(sorted(probe & (set(sys.modules) - before))))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT)})
    assert done.stdout.split() == []
    assert issubclass(FrozenInstanceError, AttributeError)
    assert not issubclass(FrozenInstanceError, dataclasses.FrozenInstanceError)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'lon'"):
        POINT.lon = 0.0
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'lat'"):
        del POINT.lat


def _build(key: str, value):
    """The settings record that holds ``key``, built in code with ``value`` there."""
    outer, _, name = key.rpartition(".")
    if outer:
        return {"kde": KdeSettings, "tour": TourSettings}[outer](**{name: value})
    return RunConfig(HERE, HERE, HERE, **{name: value})


REFUSED_NUMBERS = [pytest.param(value, id=name) for value, name in (
    (True, "true"), ("66", "'66'"), (10 ** 400, "10**400"), ("100", "'100'"))]
REFUSED_LISTS = REFUSED_NUMBERS + [pytest.param(66, id="scalar"),
                                   pytest.param([0, "100"], id="[0, '100']"),
                                   pytest.param([False, 10 ** 400], id="[false, 10**400]")]


@pytest.mark.parametrize("value", REFUSED_NUMBERS)
@pytest.mark.parametrize("key", ["kde.bandwidth_m", "kde.cell_m", "kde.hotspot_percentile",
                                 "kde.merge_radius_m", "tour.walk_speed_kmh",
                                 "filter_threshold"])
def test_settings_built_in_code_refuse_a_non_number(key, value):
    """A setting built in code meets the number rule that a config file
    meets: true is no number, though Python reads it as 1, nor is a string
    that ``float`` reads, nor an integer past the float range."""
    with pytest.raises(ConfigError) as raised:
        _build(key, value)
    assert str(raised.value) == f"{key} {NUMBER} {value!r}"


@pytest.mark.parametrize("value", REFUSED_LISTS)
@pytest.mark.parametrize("key", ["target", "tier_thresholds", "tour.dwell_minutes"])
def test_settings_built_in_code_refuse_a_non_list_of_numbers(key, value):
    with pytest.raises(ConfigError) as raised:
        _build(key, value)
    assert str(raised.value) == \
        f"{key} must be a list of numbers within the float range, got {value!r}"


@pytest.mark.parametrize("key, value", [
    ("kde.cell_m", "10"), ("tour.walk_speed_kmh", True),
    pytest.param("filter_threshold", 10 ** 400, id="filter_threshold-10**400"),
    ("target", 66), ("tour.dwell_minutes", [0, "5", 10])])
def test_load_config_prefixes_the_same_message(dataset_builder, key, value):
    """``load_config`` refuses by the records' own rule: the message is the
    record's, after the config's path."""
    outer, _, name = key.rpartition(".")
    path = dataset_builder(config_extra={outer: {name: value}} if outer else {name: value})
    with pytest.raises(ConfigError) as built:
        _build(key, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {built.value}')}$"):
        load_config(path)
