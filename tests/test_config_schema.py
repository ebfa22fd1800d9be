"""Configs drawn from the schema table: every valid draw loads, and every draw
with one fault is rejected with a one-line ConfigError that names the fault."""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmix.cli import main
from urbanmix.config import _BUILTIN_CALENDAR, _SCHEMA, ConfigError, load_config
from urbanmix.scaling import default_fixture_path

README = Path(__file__).resolve().parents[1] / "README.md"
ROWS = {path: (kind, constraint) for path, kind, constraint, _ in _SCHEMA}
RECORDS = {path: kind for path, (kind, _) in ROWS.items() if dataclasses.is_dataclass(kind)}
# objects that only hold rows: "sweep", "mix_preset", "stats"
SECTIONS = sorted({path.split(".")[0] for path in ROWS if "." in path} - set(RECORDS))
INPUT_FILES = ("weather", "household_profile", "reference_profile_dir")


def interval(constraint):
    """(low, high, bounds included) of an "in (low, high)" or "in [low, high]"
    constraint."""
    low, high = map(float, constraint[4:-1].split(","))
    return low, high, constraint[3] == "["


def numbers(kind, constraint):
    """Values of ``kind`` (int or float) that meet ``constraint``."""
    if constraint is None:
        return st.floats(-1e6, 1e6)
    if constraint.startswith("in "):
        low, high, closed = interval(constraint)
        if kind is int:
            return st.integers(int(low) + (not closed), int(high) - (not closed))
        return st.floats(low, high, exclude_min=not closed, exclude_max=not closed)
    op, bound = constraint.split()
    low = int(bound) + (op == ">")
    ints = st.integers(low, low + 200)  # a count or a number of sweep steps
    if kind is int:
        return ints
    return st.one_of(ints, st.floats(float(bound), 1e6, exclude_min=op == ">"))


def record_fields(record):
    """Field values for ``record``: a few of its numeric defaults, each scaled
    by a factor that keeps every sign and ordering the records check."""
    names = [f.name for f in dataclasses.fields(record) if type(f.default) in (int, float)]
    chosen = st.lists(st.sampled_from(names), unique=True, max_size=3) if names else st.just([])
    defaults = record()

    @st.composite
    def draw_fields(draw):
        values = {}
        for name in draw(chosen):
            default = getattr(defaults, name)
            scale = 1 if isinstance(default, int) else draw(st.floats(0.9, 1.1))
            values[name] = default * scale
        return values
    return draw_fields()


def valid_value(path, kind, constraint):
    if path in RECORDS:
        return record_fields(kind)
    if kind is Path:
        if path == "calendar":
            return st.just(str(_BUILTIN_CALENDAR))
        if path == "scaling":
            return st.just(str(default_fixture_path()))
        return st.sampled_from(["input.csv", "inputs/profiles"])
    if path == "seed":
        return st.integers(0, 2 ** 63)  # SimulationConfig checks it is >= 0
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.sampled_from(constraint)
    if kind in (int, float):
        return numbers(kind, constraint if isinstance(constraint, str) else None)
    if kind == [float]:  # the weights: p_pos > 0, p_neg > 0, p_ren < 0
        return st.tuples(numbers(float, "> 0"), numbers(float, "> 0"),
                         st.floats(-1e6, 0, exclude_max=True)).map(list)
    return st.lists(st.fixed_dictionaries({"name": st.text(max_size=5),
                                           "twh": numbers(float, "> 0")}), max_size=3)


def put(config, path, value):
    """Set ``path`` in ``config``; a dict value adds to the fields already there."""
    parent, _, key = path.rpartition(".")
    if parent:
        if not isinstance(config.get(parent), dict):
            config[parent] = {}
        config = config[parent]
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
    return [bound] if op == ">" else [bound - 1]


@st.composite
def faulty_configs(draw, input_files=True):
    """A valid config with one fault, and the start of the error it must raise."""
    config = draw(valid_configs(input_files))
    paths = [path for path in ROWS if input_files or path not in INPUT_FILES]
    path = draw(st.sampled_from([*paths, *SECTIONS, ""]))
    kind, constraint = ROWS.get(path, (dict, None))
    faults = []  # (value at path, the start of the error)
    if path == "":  # the top level
        config["unknown_key"] = 1
        return config, "config: unknown keys ['unknown_key']"
    if isinstance(kind, type) and kind in WRONG:
        faults += [(value, f"config: {path} must be ") for value in WRONG[kind]]
    if isinstance(constraint, (str, tuple)) and kind in (int, float, str):
        faults += [(value, f"config: {path} must be ") for value in out_of_range(kind, constraint)]
    if kind is dict or path in RECORDS:
        faults += [(value, f"config: {path} must be an object") for value in (5, "x", [])]
    if kind is dict:
        faults.append(({"unknown_key": 1}, f"config: unknown keys ['{path}.unknown_key']"))
    if path in RECORDS:
        faults.append(({"unknown_key": 1}, f"config: bad {path} options: "))
        numeric = [f.name for f in dataclasses.fields(kind) if type(f.default) in (int, float)]
        faults += [({name: value}, f"config: bad {path} options: {name} must be ")
                   for name in numeric for value in (True, "x", float("nan"), float("inf"))]
    if kind == [float]:
        faults += [("x", "config: weights must be a list"),
                   ([1.0, 2.0], "config: weights must be a list"),
                   ([1.0, float("nan"), 0.0], "config: weights[1] must be a finite number"),
                   ([1.0, 1.0, 5.0], "config: weights must satisfy p_pos > 0, p_neg > 0, "
                                     "p_ren < 0")]
    if path == "benchmarks":
        faults += [({"name": "X"}, "config: benchmarks must be a list"),
                   ([{"name": "X"}], "config: benchmarks[0] must have the keys name and twh"),
                   ([{"name": 3, "twh": 1.0}], "config: benchmarks[0].name must be a string"),
                   ([{"name": "X", "twh": False}], "config: benchmarks[0].twh must be ")]
    value, prefix = draw(st.sampled_from(faults))
    if not (isinstance(value, dict) and path in RECORDS):
        put(config, path, None)  # the fault replaces the value; a bad field joins the others
    put(config, path, value)
    return config, prefix


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
            assert getattr(loaded, target) == holder[key]


@settings(max_examples=300, deadline=None)
@given(faulty_configs())
def test_every_faulty_draw_raises_one_config_error_line(draw):
    config, prefix = draw
    try:
        load(config)
    except ConfigError as exc:
        message = str(exc)
    else:
        raise AssertionError(f"{config} loaded")
    assert message.startswith(prefix), message
    assert "\n" not in message


@settings(max_examples=6, deadline=None)
@given(st.one_of(valid_configs(input_files=False).map(lambda c: (c, None)),
                 faulty_configs(input_files=False)))
def test_scale_on_drawn_configs_exits_0_or_1(draw):
    config, prefix = draw
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", str(path), "--out", str(Path(directory) / "out"), "scale"])
    if prefix is None:
        assert code == 0 and stderr.getvalue() == ""
    else:
        assert code == 1
        assert stderr.getvalue().startswith(f"error: {prefix}")
        assert len(stderr.getvalue().splitlines()) == 1


def test_readme_names_every_config_key():
    documented = set(re.findall(r"`([a-z_][a-z0-9_.]*)`", README.read_text()))
    keys = set(ROWS)
    for path, record in RECORDS.items():
        keys |= {f"{path}.{field.name}" for field in dataclasses.fields(record)}
    missing = sorted(keys - documented)
    assert not missing, f"README does not name {missing}"
