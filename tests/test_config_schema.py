"""Configs drawn from the schema table and the records' rows: every valid draw
loads, and every draw with one fault is rejected with the one-line ConfigError
that names the fault; a config or scaling fixture built in Python is checked by
the same rows."""

import contextlib
import copy
import functools
import io
import json
import re
import tempfile
import typing
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmix import scaling
from urbanmix.cli import main
from urbanmix.config import (_BUILTIN_CALENDAR, _BUILTIN_SCALING, _SCHEMA, DEFAULT_BENCHMARKS,
                             ConfigError, GAConfig, SimulationConfig, default_config, load_config)
from urbanmix.generation import GenerationError, TurbineParams
from urbanmix.ingest import _CALENDAR_SCHEMA
from urbanmix.optimize import OptimizeError
from urbanmix.scaling import ScalingError, ScalingFixture

README = Path(__file__).resolve().parents[1] / "README.md"
ROWS = {path: (kind, constraint) for path, kind, constraint, _ in _SCHEMA}
RECORDS = {path: kind for path, (kind, _) in ROWS.items()
           if isinstance(kind, type) and issubclass(kind, tuple)}
# objects that only hold rows: "sweep", "mix_preset", "stats"
SECTIONS = sorted({path.split(".")[0] for path in ROWS if "." in path} - set(RECORDS))
INPUT_FILES = ("weather", "household_profile", "reference_profile_dir")
# Every scalar field of every record, by its config path: (record, kind,
# constraint), read from the record's row.
RECORD_FIELDS = {
    f"{path}.{name}": (record, kind, constraint)
    for path, record in RECORDS.items()
    for name, kind, constraint, *_ in record._rows if kind in (int, float, str)}
# A non-empty `area.service_roofs` must give every building type of the fixture.
BUILDING_TYPES = list(default_config().scaling_fixture.roof_areas())
NOUNS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
         Path: "a file name"}


def interval(constraint):
    """(low, high, bounds included) of an "in (low, high)" or "in [low, high]"
    constraint."""
    low, high = map(float, constraint[4:-1].split(","))
    return low, high, constraint[3] == "["


def numbers(kind, constraint):
    """Values of ``kind`` (int or float) that meet ``constraint``."""
    if constraint is None:
        return st.integers(-10 ** 6, 10 ** 6) if kind is int else st.floats(-1e6, 1e6)
    if constraint.startswith("in "):
        low, high, closed = interval(constraint)
        if kind is int:
            return st.integers(int(low) + (not closed), int(high) - (not closed))
        return st.floats(low, high, exclude_min=not closed, exclude_max=not closed)
    op, bound = constraint.split()
    strict = op in (">", "<")
    if op.startswith(">"):
        low = int(bound) + strict
        ints = st.integers(low, low + 200)  # a count or a number of sweep steps
        floats = st.floats(float(bound), 1e6, exclude_min=strict)
    else:
        high = int(bound) - strict
        ints = st.integers(high - 200, high)
        floats = st.floats(-1e6, float(bound), exclude_max=strict)
    return ints if kind is int else st.one_of(ints, floats)


def scalars(kind, constraint):
    """Values of ``kind`` that meet ``constraint``."""
    return st.sampled_from(constraint) if kind is str else numbers(kind, constraint)


def cross_field(record, values):
    """``values`` changed to keep the rules that relate two of ``record``'s fields."""
    merged = {**record()._asdict(), **values}
    if record is TurbineParams and not merged["cut_in_ms"] < merged["cut_out_ms"]:
        values["cut_out_ms"] = merged["cut_in_ms"] + 1.0
    if record is TurbineParams:  # a finite hub-speed factor; hub_height_m is at most 1e6
        try:
            (merged["hub_height_m"] / 10.0) ** merged["shear_exponent"]
        except OverflowError:
            values["shear_exponent"] = 1.0
    if record is GAConfig:  # 1 <= tournament_k <= population and 0 <= elite < population
        values["population"] = max(merged["population"], merged["tournament_k"],
                                   merged["elite"] + 1)
    return values


def record_fields(path):
    """Field values for the record at ``path``: a few of its fields, each drawn
    from its row, then made to keep its cross-field rules."""
    names = [key.rpartition(".")[2] for key in RECORD_FIELDS if key.rpartition(".")[0] == path]
    record = RECORDS[path]

    @st.composite
    def draw_fields(draw):
        values = {}
        for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=3)):
            _, kind, constraint = RECORD_FIELDS[f"{path}.{name}"]
            values[name] = draw(scalars(kind, constraint))
        if path == "area" and draw(st.booleans()):
            values["service_roofs"] = draw(st.just({}) | st.fixed_dictionaries(
                dict.fromkeys(BUILDING_TYPES, numbers(float, ">= 0"))))
        return cross_field(record, values)
    return draw_fields()


def valid_value(path, kind, constraint):
    if path in RECORDS:
        return record_fields(path)
    if kind is Path:
        if path == "calendar":
            return st.just(str(_BUILTIN_CALENDAR))
        if path == "scaling":
            return st.just(str(_BUILTIN_SCALING))
        return st.sampled_from(["input.csv", "inputs/profiles"])
    if path == "seed":
        return st.integers(0, 2 ** 63)  # SimulationConfig's row checks it is >= 0
    if kind is bool:
        return st.booleans()
    if kind in (int, float, str):
        return scalars(kind, constraint)
    if kind == [float]:  # the weights: p_pos > 0, p_neg > 0, p_ren < 0
        return st.tuples(numbers(float, "> 0"), numbers(float, "> 0"),
                         st.floats(-1e6, 0, exclude_max=True)).map(list)
    return st.lists(st.fixed_dictionaries({"name": st.text(max_size=5),
                                           "twh": numbers(float, "> 0")}),
                    max_size=3, unique_by=lambda bench: bench["name"])


def put(config, path, value):
    """Set ``path`` in ``config``; a dict value adds to the fields already there."""
    *parents, key = path.split(".")
    for name in parents:
        if not isinstance(config.get(name), dict):
            config[name] = {}
        config = config[name]
    if isinstance(value, dict) and isinstance(config.get(key), dict):
        value = {**config[key], **value}
    config[key] = value


@st.composite
def valid_configs(draw, input_files=True):
    paths = [path for path in ROWS if input_files or path not in INPUT_FILES]
    config = {}
    # children after parents, so a record's own rows land inside its fields
    for path in sorted(draw(st.lists(st.sampled_from(paths), unique=True)), key=len):
        put(config, path, draw(valid_value(path, *ROWS[path])))
    if "calendar" in config and "year" in config:
        config["year"] = 2014  # the built-in calendar's year
    for section in SECTIONS + sorted(RECORDS):
        if "." not in section and section not in config and draw(st.booleans()):
            config[section] = None  # a null object reads as an empty one
    return config


NOT_NUMBERS = [True, "x", None, float("nan"), float("inf"), float("-inf"), [1.0], 10 ** 400]
WRONG = {int: [1.5, *NOT_NUMBERS], float: NOT_NUMBERS, bool: [0, 1, "true", None],
         str: [3, None, ["magnitude-neg"]], Path: [3, None, ["a.csv"], {"a": 1}]}


def out_of_range(kind, constraint):
    if isinstance(constraint, tuple):
        return ["bogus"]
    if constraint.startswith("in "):
        low, high, closed = interval(constraint)
        if closed:
            return [kind(low) - 1, kind(high) + 1]
        return [kind(low), kind(high)]
    op, bound = constraint.split()
    bound = kind(float(bound))
    return [bound] if op in (">", "<") else [bound - 1] if op == ">=" else [bound + 1]


def scalar_faults(name, kind, constraint):
    """(value, the whole message) of each fault of a ``kind`` value that the
    message calls ``name``: a wrong type, and, under ``constraint``, out of range."""
    faults = [(value, f"{name} must be {NOUNS[kind]}, got {value!r}") for value in WRONG[kind]]
    if isinstance(constraint, (str, tuple)) and kind in (int, float, str):
        allowed = f"one of {constraint}" if isinstance(constraint, tuple) else constraint
        faults += [(value, f"{name} must be {allowed}, "
                           f"got {float(value) if kind is float else value!r}")
                   for value in out_of_range(kind, constraint)]
    return faults


CROSS_FIELD_FAULTS = {  # (fields, the message after "config: <record>.")
    "turbine": [({"cut_in_ms": 30.0, "cut_out_ms": 25.0},
                 "cut_in_ms must be < cut_out_ms, got 30.0 >= 25.0"),
                ({"hub_height_m": 50.0, "shear_exponent": 442.0},
                 "hub_height_m / 10 to the power shear_exponent must be finite, "
                 "got (50.0 / 10) ** 442.0")],
    "ga": [({"population": 4, "tournament_k": 5, "elite": 0},
            "tournament_k must be <= population, got 5 > 4"),
           ({"population": 4, "tournament_k": 1, "elite": 4},
            "elite must be < population, got 4 >= 4")],
}


def fault_paths(input_files=True):
    """Where a fault can sit: each row, each record field, the service roofs,
    each section and, as "unknown_key", the top level."""
    rows = [path for path in ROWS if input_files or path not in INPUT_FILES]
    return [*rows, *RECORD_FIELDS, "area.service_roofs", *SECTIONS, "unknown_key"]


def faults_at(path):
    """(value at ``path``, the whole message it must raise) of each fault there."""
    if path == "unknown_key":
        return [(1, "config: unknown keys ['unknown_key']")]
    if path in RECORD_FIELDS:
        _, kind, constraint = RECORD_FIELDS[path]
    else:
        kind, constraint = ROWS.get(path, (dict if path in SECTIONS else None, None))
    faults = []
    if isinstance(kind, type) and kind in WRONG:
        faults += scalar_faults(f"config: {path}", kind, constraint)
    if kind is dict or path in RECORDS:
        faults += [(value, f"config: {path} must be an object") for value in (5, "x", [])]
        faults.append(({"unknown_key": 1}, f"config: unknown keys ['{path}.unknown_key']"))
    faults += [(value, f"config: {path}.{message}")
               for value, message in CROSS_FIELD_FAULTS.get(path, [])]
    if path == "area.service_roofs":
        faults += [(5, "config: area.service_roofs must map names to numbers, got 5"),
                   ({"office": -1.0}, "config: area.service_roofs.office must be >= 0, got -1.0"),
                   ({"office": "x"},
                    "config: area.service_roofs.office must be a finite number, got 'x'"),
                   ({"office": 10}, "config: area.service_roofs.hospital is missing"),
                   ({**dict.fromkeys(BUILDING_TYPES, 1.0), "school": 1.0},
                    "config: area.service_roofs.school is not a building type of the "
                    "scaling fixture 'nl2014'")]
    if kind == [float]:
        faults += [("x", "config: weights must be a list of 3 values, got 'x'"),
                   ([1.0, 2.0], "config: weights must be a list of 3 values, got [1.0, 2.0]"),
                   ([1.0, float("nan"), 0.0], "config: weights[1] must be a finite number, got nan"),
                   ([1.0, 1.0, 5.0], "config: weights must satisfy p_pos > 0, p_neg > 0, "
                                     "p_ren < 0, got (1.0, 1.0, 5.0)")]
    if path == "benchmarks":
        faults += [({"name": "X"}, "config: benchmarks must be a list, got {'name': 'X'}"),
                   ([{"name": "X"}], "config: benchmarks[0].twh is missing"),
                   ([{"name": 3, "twh": 1.0}],
                    "config: benchmarks[0].name must be a string, got 3"),
                   ([{"name": "X", "twh": False}],
                    "config: benchmarks[0].twh must be a finite number, got False"),
                   ([{"name": "X", "twh": 0}], "config: benchmarks[0].twh must be > 0, got 0.0"),
                   ([{"name": "CBS", "twh": -30.6}],
                    "config: benchmarks[0].twh must be > 0, got -30.6"),
                   ([{"name": "PBL", "twh": 33.6}, {"name": "PBL", "twh": 1.0}],
                    "config: benchmarks lists 'PBL' twice")]
    return faults


def with_fault(config, path, value):
    """A copy of ``config`` with ``value`` at ``path``."""
    config = copy.deepcopy(config)
    if not (isinstance(value, dict) and path in RECORDS):
        put(config, path, None)  # the fault replaces the value; bad fields join the others
    put(config, path, value)
    return config


@st.composite
def faulty_configs(draw, input_files=True):
    """A valid config with one fault, and the whole error message it must raise."""
    config = draw(valid_configs(input_files))
    path = draw(st.sampled_from(fault_paths(input_files)))
    value, message = draw(st.sampled_from(faults_at(path)))
    return with_fault(config, path, value), message


def load(config):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(config))
        return load_config(path)


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_every_valid_draw_loads(config):
    loaded = load(config)
    for path, kind, _, target in _SCHEMA:
        parent, _, key = path.rpartition(".")
        holder = config.get(parent) if parent else config
        if kind in (int, float, bool, str) and isinstance(holder, dict) and key in holder:
            record = loaded.calendar if target == "year" else loaded  # the year is the calendar's
            assert getattr(record, target) == holder[key]
    for path, (_, kind, _) in RECORD_FIELDS.items():
        *parents, name = path.split(".")
        holder = functools.reduce(lambda obj, key: (obj or {}).get(key), parents, config)
        if holder and name in holder:
            record = functools.reduce(getattr, parents, loaded)
            assert getattr(record, name) == holder[name], path


@settings(max_examples=40, deadline=None)
@given(valid_configs(), st.data())
def test_every_faulty_draw_raises_one_config_error_line(config, data):
    # every place gets one fault drawn for it, so none goes untried
    for path in fault_paths():
        value, expected = data.draw(st.sampled_from(faults_at(path)), label=path)
        try:
            load(with_fault(config, path, value))
        except ConfigError as exc:
            assert str(exc) == expected
        else:
            raise AssertionError(f"{path} = {value!r} loaded")


@settings(max_examples=6, deadline=None)
@given(st.one_of(valid_configs(input_files=False).map(lambda c: (c, None)),
                 faulty_configs(input_files=False)))
def test_scale_on_drawn_configs_exits_0_or_1(draw):
    config, expected = draw
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", str(path), "--out", str(Path(directory) / "out"), "scale"])
    if expected is None:
        assert code == 0 and stderr.getvalue() == ""
    else:
        assert code == 1
        assert stderr.getvalue() == f"error: {expected}\n"


def test_every_record_field_has_one_rule():
    # each scalar row's default is a value of its kind that meets its constraint
    for path, record in RECORDS.items():
        default = record()
        for (name, kind, *_), value in zip(record._rows, default):
            assert kind not in (int, float, bool, str) or type(value) is kind, (path, name)
        assert default._asdict() == record._field_defaults, path


def without_none(kind):
    """(``kind``, an "X | None" kind read as X; whether it was one)."""
    args = typing.get_args(kind)
    return (args[0], True) if args[1:] == (type(None),) else (kind, False)


# Each record a file fills, built with its defaults, and its error class: the
# config's records by their config path, and the records the config and
# scaling files fill whole by their names.
BUILT = {**{path: (record(), OptimizeError if record is GAConfig else GenerationError)
            for path, record in RECORDS.items()},
         "SimulationConfig": (default_config(), ConfigError),
         "Benchmark": (DEFAULT_BENCHMARKS[0], ConfigError),
         "ScalingFixture": (default_config().scaling_fixture, ScalingError)}
BUILT_FIELDS = sorted(f"{label}.{name}" for label, (built, _) in BUILT.items()
                      for name, kind, *_ in built._rows if without_none(kind)[0] in (int, float, str))


@pytest.mark.parametrize("path", BUILT_FIELDS)
def test_every_record_field_rejects_its_faults(path):
    # from Python, each record raises its own error class, naming only the
    # field; `_replace` builds through the constructor, so a derived config or
    # scaling fixture is checked by the same rows as a file
    label, _, name = path.rpartition(".")
    built, error = BUILT[label]
    _, kind, constraint, *_ = built._rows[built._fields.index(name)]
    kind, optional = without_none(kind)
    for value, message in scalar_faults(name, kind, constraint):
        if not (optional and value is None):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                built._replace(**{name: value})


# The rows that fill a scalar SimulationConfig field: config path -> field
SCALAR_ROWS = {path: target for path, kind, _, target in _SCHEMA
               if kind in (int, float, bool, str) and target in SimulationConfig._fields}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_file_and_constructor_agree(data):
    # a valid draw gives one config either way; a fault is rejected either way,
    # by the file with its key path and from Python with its field
    config, fields = {}, {}
    for path in data.draw(st.lists(st.sampled_from(sorted(SCALAR_ROWS)), unique=True)):
        value = fields[SCALAR_ROWS[path]] = data.draw(valid_value(path, *ROWS[path]), label=path)
        put(config, path, value)
    assert load(config) == default_config()._replace(**fields)
    path = data.draw(st.sampled_from(sorted(SCALAR_ROWS)))
    field = SCALAR_ROWS[path]
    faults = list(zip(scalar_faults(path, *ROWS[path]), scalar_faults(field, *ROWS[path])))
    (value, from_file), (_, from_python) = data.draw(st.sampled_from(faults))
    with pytest.raises(ConfigError) as raised:
        load(with_fault(config, path, value))
    assert str(raised.value) == f"config: {from_file}"
    with pytest.raises(ConfigError) as raised:
        default_config()._replace(**{**fields, field: value})
    assert str(raised.value) == from_python


# The keys that fill a field with what `_resolve` reads from the file they name
FILE_KEYS = {"calendar", "scaling"}


def test_every_key_that_fills_a_field_reads_as_its_row():
    # the tables only place keys: a key that fills a field states no kind or
    # constraint of its own
    for rows, record in ((_SCHEMA, SimulationConfig), (scaling._SCHEMA, ScalingFixture)):
        for path, kind, constraint, target in rows:
            if target in record._fields and path not in FILE_KEYS:
                _, field_kind, field_constraint, *_ = record._rows[record._fields.index(target)]
                assert (kind, constraint) == (without_none(field_kind)[0], field_constraint), path


def as_json(value):
    """``value``, a default, as the JSON that sets it; a record field whose
    default is None (no file, no diode) is left out, as JSON has no value for it."""
    if hasattr(value, "_asdict"):
        return {name: as_json(field) for name, field in value._asdict().items()
                if field is not None}
    if isinstance(value, tuple):
        return [as_json(item) for item in value]
    return dict(value) if isinstance(value, Mapping) else value


def test_writing_every_default_out_changes_nothing():
    # every key, from the schema rows and SimulationConfig's defaults; the two
    # files and the year are what `_resolve` reads when none is given
    defaults = {**SimulationConfig._field_defaults, "year": default_config().calendar.year,
                "calendar": str(_BUILTIN_CALENDAR),
                "scaling_fixture": str(_BUILTIN_SCALING)}
    config, written = {}, set()
    for path, _, _, target in _SCHEMA:
        if target in defaults and defaults[target] is not None:
            put(config, path, as_json(defaults[target]))
            written.add(path)
    assert set(ROWS) - written == set(INPUT_FILES) | {"pv.diode"}
    for path in written & RECORDS.keys():  # each record field, unless its default is None
        given = functools.reduce(dict.get, path.split("."), config)
        assert given.keys() >= {field for field, default in RECORDS[path]._field_defaults.items()
                                if default is not None}, path
    assert load(config) == default_config()


def row_keys(rows):
    """The key of each row, and each field of a record, or of a list of
    records, that a row reads."""
    keys = set()
    for path, kind, _, _ in rows:
        keys.add(path)
        record = kind[0] if isinstance(kind, list) else kind
        if isinstance(record, type) and issubclass(record, tuple):
            keys |= {f"{path}.{name}" for name in record._fields}
    return keys


def test_readme_names_every_config_key():
    # the keys of the config, calendar and scaling files
    documented = set(re.findall(r"`([a-z_][a-z0-9_.]*)`", README.read_text()))
    for rows in (_SCHEMA, _CALENDAR_SCHEMA, scaling._SCHEMA):
        missing = sorted(row_keys(rows) - documented)
        assert not missing, f"README does not name {missing}"
