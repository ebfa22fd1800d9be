"""Every record class's rows, on a record the program builds: each row has a
kind read by content, each field's own value passes its row, and a record,
list or map field that is no such thing raises the class's own error with one
line naming the field."""

import importlib
import math
import pkgutil
import types
import typing

import numpy as np
import pytest

import urbanmix
from urbanmix import experiments
from urbanmix.classify import BinEdges, CategoryKey, ClassifyError, all_category_keys
from urbanmix.config import Benchmark, ConfigError, SimulationConfig, default_config
from urbanmix.generation import (AreaBudget, GenerationError, PvParams, SingleDiodeParams,
                                 TurbineParams)
from urbanmix.ingest import _SCALARS, Calendar, DstTransition, IngestError, WeatherFrame
from urbanmix.optimize import GAConfig, MixProblem, OptimizeError
from urbanmix.scaling import BuildingScalingSpec, OfficeBand, ScalingError, ScalingFixture
from urbanmix.synthdata import synthetic_weather_frame

ERRORS = {TurbineParams: GenerationError, SingleDiodeParams: GenerationError,
          PvParams: GenerationError, AreaBudget: GenerationError, GAConfig: OptimizeError,
          MixProblem: OptimizeError, Benchmark: ConfigError, SimulationConfig: ConfigError,
          OfficeBand: ScalingError, BuildingScalingSpec: ScalingError,
          ScalingFixture: ScalingError, Calendar: IngestError, DstTransition: IngestError,
          WeatherFrame: IngestError, CategoryKey: ClassifyError, BinEdges: ClassifyError}
RECORDS = {cls for info in pkgutil.iter_modules(urbanmix.__path__)
           for cls in vars(importlib.import_module(f"urbanmix.{info.name}")).values()
           if isinstance(cls, type) and hasattr(cls, "_rows")}
FIELDS = sorted(f"{cls.__name__}.{name}" for cls in ERRORS for name in cls._fields)


def holds_records_lists_or_maps(kind):
    """Whether a row of ``kind`` ("X | None" read as X) holds a record, a list or a map."""
    kind = typing.get_args(kind)[0] if typing.get_args(kind)[1:] == (type(None),) else kind
    return (isinstance(kind, list) or typing.get_origin(kind) is dict
            or hasattr(kind, "_rows"))


def read_by_content(kind) -> bool:
    """Whether `_field` reads a value of ``kind`` by its content: a scalar kind,
    a record class, [X], dict[str, X] or a union of these."""
    if isinstance(kind, types.UnionType):
        return all(read_by_content(other) for other in typing.get_args(kind)
                   if other is not type(None))
    if isinstance(kind, list):
        return read_by_content(kind[0])
    if typing.get_origin(kind) is dict:
        return typing.get_args(kind)[0] is str and read_by_content(typing.get_args(kind)[1])
    return kind in _SCALARS or hasattr(kind, "_rows")


# the records whose own __new__ and _rules check their array fields
ARRAY_RECORDS = {WeatherFrame, MixProblem}


@pytest.mark.parametrize("path", FIELDS)
def test_no_row_is_opaque(path):
    label, _, name = path.partition(".")
    cls = next(cls for cls in ERRORS if cls.__name__ == label)
    kind = cls._rows[cls._fields.index(name)][1]
    assert read_by_content(kind) or (kind is np.ndarray and cls in ARRAY_RECORDS)


NESTED = sorted(f"{cls.__name__}.{name}" for cls in ERRORS
                for name, kind, *_ in cls._rows if holds_records_lists_or_maps(kind))


@pytest.fixture(scope="module")
def built():
    """A record of each class, as the program builds it, by class name."""
    config = default_config()
    fixture = config.scaling_fixture
    records = [TurbineParams(), SingleDiodeParams(), PvParams(), AreaBudget(), GAConfig(),
               config, config.benchmarks[0], fixture, fixture.specs[0], fixture.office_bands[0],
               config.calendar, config.calendar.transitions[0],
               all_category_keys()[0],
               BinEdges(solar_edges=(10.0, 20.0, 30.0, 40.0), wind_edges=(5.0, 6.0, 7.0, 8.0)),
               synthetic_weather_frame(config.calendar, 0),
               experiments.build_problem(experiments.prepare(config))]
    return {type(record).__name__: record for record in records}


def same(a, b):
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


def test_every_record_class_is_covered(built):
    assert RECORDS == set(ERRORS)
    assert {type(record) for record in built.values()} == RECORDS


@pytest.mark.parametrize("path", FIELDS)
def test_each_field_takes_its_own_value(built, path):
    # no row rejects what the program builds
    label, _, name = path.partition(".")
    record = built[label]
    assert same(record._replace(**{name: getattr(record, name)}), record)


@pytest.mark.parametrize("path", NESTED)
def test_each_record_list_or_map_field_rejects_a_number(built, path):
    label, _, name = path.partition(".")
    record = built[label]
    with pytest.raises(ValueError) as raised:
        record._replace(**{name: 5})
    assert type(raised.value) is ERRORS[type(record)]
    message = str(raised.value)
    assert message.startswith(f"{name} ") and "\n" not in message


CONFIG = default_config()
ROOFS = CONFIG.scaling_fixture.roof_areas()
EDGES = (1.0, 2.0, 3.0, 4.0)
# a record, list or map field given something else, or a rule across two records
BUILT_IN_PYTHON = {
    "turbine": (lambda: CONFIG._replace(turbine=5), ConfigError,
                "turbine must be TurbineParams, got int"),
    "ga": (lambda: CONFIG._replace(ga={}), ConfigError, "ga must be GAConfig, got dict"),
    "calendar": (lambda: CONFIG._replace(calendar=None), ConfigError,
                 "calendar must be Calendar, got NoneType"),
    "benchmarks": (lambda: CONFIG._replace(benchmarks=[("PBL", 1.0)]), ConfigError,
                   "benchmarks[0] must be Benchmark, got tuple"),
    "documented_inconsistencies": (
        lambda: CONFIG.scaling_fixture._replace(documented_inconsistencies=(5,)), ScalingError,
        "documented_inconsistencies[0] must be a string, got 5"),
    "office_bands": (lambda: CONFIG.scaling_fixture._replace(office_bands=(1, 2)), ScalingError,
                     "office_bands[0] must be OfficeBand, got int"),
    "specs": (lambda: CONFIG.scaling_fixture._replace(specs=()), ScalingError,
              "buildings must list at least one building type"),
    "service_roofs-missing": (
        lambda: CONFIG._replace(area=AreaBudget(service_roofs={"office": 10.0})), ConfigError,
        "area.service_roofs.hospital is missing"),
    "service_roofs-unknown": (
        lambda: CONFIG._replace(area=AreaBudget(service_roofs={**ROOFS, "school": 1.0})),
        ConfigError, "area.service_roofs.school is not a building type of the scaling "
                     "fixture 'nl2014'"),
    "transitions-pair": (lambda: CONFIG.calendar._replace(transitions=((5, 1.0),)),
                         IngestError, "transitions[0] must be DstTransition, got tuple"),
    "transitions-number": (lambda: CONFIG.calendar._replace(transitions=(5,)), IngestError,
                           "transitions[0] must be DstTransition, got int"),
    "holiday_dates-set": (lambda: CONFIG.calendar._replace(holiday_dates=frozenset({5})),
                          IngestError, "holiday_dates must be a list, got frozenset({5})"),
    "holiday_dates-number": (lambda: CONFIG.calendar._replace(holiday_dates=(5,)), IngestError,
                             "holiday_dates[0] must be an ISO date, got 5"),
    "edges-strings": (lambda: BinEdges(("a", "b", "c", "d"), EDGES), ClassifyError,
                      "solar_edges[0] must be a finite number, got 'a'"),
    "edges-nan": (lambda: BinEdges((math.nan, 2.0, 3.0, 4.0), EDGES), ClassifyError,
                  "solar_edges[0] must be a finite number, got nan"),
    "edges-three": (lambda: BinEdges((1.0, 2.0, 3.0), EDGES), ClassifyError,
                    "solar_edges must be a list of 4 values, got (1.0, 2.0, 3.0)"),
}


@pytest.mark.parametrize("case", BUILT_IN_PYTHON)
def test_records_built_in_python_are_checked_by_their_rows(case):
    build, error, message = BUILT_IN_PYTHON[case]
    with pytest.raises(ValueError) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message
