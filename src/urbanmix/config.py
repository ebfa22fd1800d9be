"""Run configuration: JSON loading, defaults, and input assembly."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import ingest
from .generation import AreaBudget, PvParams, SingleDiodeParams, TurbineParams
from .ingest import Calendar, IngestError, ValidationError, WeatherFrame, checked_record
from .scaling import ScalingError, ScalingFixture, build_service_mix, load_scaling_fixture


class ConfigError(ValueError):
    pass


# The optimizer's settings live here, with the rest of the run configuration,
# so that loading a configuration does not import the optimizer.
SIGN_CONVENTIONS = ("magnitude-neg", "signed-neg")


class OptimizeError(ValidationError):
    pass


def check_weights(weights, error: type[Exception]) -> None:
    """Raise ``error`` unless the three objective weights penalise both
    mismatches and reward utilisation."""
    p_pos, p_neg, p_ren = weights
    if p_pos <= 0 or p_neg <= 0 or p_ren >= 0:
        raise error(f"weights must satisfy p_pos > 0, p_neg > 0, p_ren < 0, got {weights}")


class GAConfig(checked_record(OptimizeError,
                             ("population", int, ">= 4", 50),
                             ("tournament_k", int, ">= 1", 3),
                             ("blend_alpha", float, ">= 0", 0.5),
                             ("mutation_sigma_frac", float, ">= 0", 0.02),
                             ("mutation_rate", float, "in [0, 1]", 0.9),
                             ("elite", int, ">= 0", 2),
                             ("stall_generations", int, ">= 1", 20),
                             ("stall_rel_tol", float, ">= 0", 1e-6),
                             ("max_generations", int, ">= 0", 400))):
    __slots__ = ()

    def _rules(self):
        if not self.tournament_k <= self.population:
            raise OptimizeError(f"tournament_k must be <= population, "
                                f"got {self.tournament_k} > {self.population}")
        if not self.elite < self.population:
            raise OptimizeError(f"elite must be < population, "
                                f"got {self.elite} >= {self.population}")


class Benchmark(checked_record(ConfigError, ("name", str, None), ("twh", float, "> 0"))):
    __slots__ = ()


DEFAULT_BENCHMARKS = (
    # national statistics reference totals for annual service-sector
    # electricity demand in the Netherlands, TWh
    Benchmark(name="PBL", twh=33.6),
    Benchmark(name="CBS", twh=30.6),
)


class SimulationConfig(checked_record(ConfigError,
                                     ("calendar", Calendar, None),
                                     ("scaling_fixture", ScalingFixture, None),
                                     ("weather_path", Path | None, None, None),
                                     ("household_profile_path", Path | None, None, None),
                                     ("reference_profile_dir", Path | None, None, None),
                                     ("households", int, "> 0", 100_000),
                                     ("household_annual_kwh", float, "> 0", 3500.0),
                                     ("real_inputs", bool, None, False),
                                     # numpy's generators take no negative seed
                                     ("seed", int, ">= 0", 0),
                                     ("holidays_as_weekend", bool, None, True),
                                     ("turbine", TurbineParams, None, TurbineParams()),
                                     ("pv", PvParams, None, PvParams()),
                                     ("area", AreaBudget, None, AreaBudget()),
                                     ("roof_only_pv", bool, None, False),
                                     ("sweep_max_mw", float, "> 0", 525.0),
                                     ("sweep_steps", int, ">= 2", 11),
                                     ("mix_pv_mw", float, ">= 0", 399.0),
                                     ("mix_wind_mw", float, ">= 0", 30.0),
                                     ("alpha", float, "in (0, 1)", 0.05),
                                     ("pooled", bool, None, False),
                                     ("weights", [float], 3, (1.0, 1.0, -5.0)),
                                     ("sign_convention", str, SIGN_CONVENTIONS, "magnitude-neg"),
                                     ("ga", GAConfig, None, GAConfig()),
                                     ("benchmarks", [Benchmark], None, DEFAULT_BENCHMARKS))):
    """A run's settings, each field checked by its row; the weights' signs, the
    benchmark names and the service roofs' building types by `_rules`."""

    __slots__ = ()

    def _rules(self):
        check_weights(self.weights, ConfigError)
        names = [bench.name for bench in self.benchmarks]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"benchmarks lists {name!r} twice")
        # an empty map means the fixture's roof areas; any other gives exactly its building types
        roofs, buildings = self.area.service_roofs, self.scaling_fixture.roof_areas()
        missing = [name for name in buildings if name not in roofs]
        if roofs and missing:
            raise ConfigError(f"area.service_roofs.{missing[0]} is missing")
        unknown = [name for name in roofs if name not in buildings]
        if unknown:
            raise ConfigError(f"area.service_roofs.{unknown[0]} is not a building type of "
                              f"the scaling fixture {self.scaling_fixture.name!r}")

    def with_seed(self, seed: int) -> "SimulationConfig":
        return self._replace(seed=seed)


_BUILTIN_CALENDAR = Path(__file__).parent / "data" / "calendar_nl2014.json"
_BUILTIN_SCALING = Path(__file__).parent / "data" / "scaling_nl2014.json"

# Where each config key sits and the SimulationConfig field it fills, read by
# `ingest._read_rows` with that field's kind and constraint.
_SCHEMA = ingest._field_rows(
    SimulationConfig,
    # not a field: the calendar's year, checked against the calendar
    *ingest._field_rows(Calendar, "year"),
    # the two files `_resolve` reads
    ("calendar", Path, None, "calendar"), ("scaling", Path, None, "scaling_fixture"),
    ("weather", "weather_path"), ("household_profile", "household_profile_path"),
    "reference_profile_dir", "households", "household_annual_kwh", "real_inputs", "seed",
    "holidays_as_weekend", "turbine",
    ("pv.diode", SingleDiodeParams, None, None), "pv",  # a record's own keys come first
    "area.roof_only_pv", "area",
    ("sweep.max_mw", "sweep_max_mw"), ("sweep.steps", "sweep_steps"),
    ("mix_preset.pv_mw", "mix_pv_mw"), ("mix_preset.wind_mw", "mix_wind_mw"),
    "stats.alpha", "stats.pooled", "weights", "sign_convention", "ga", "benchmarks")


@contextmanager
def _config_error(prefix: str, errors=OSError):
    """Raise any of ``errors`` as a one-line ConfigError that starts with ``prefix``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _resolve(raw: dict, base_dir: Path) -> SimulationConfig:
    """The configuration a parsed JSON object sets, each row read and checked once;
    file names resolve against ``base_dir``."""
    with _config_error("config", ConfigError):
        kwargs = ingest._read_rows(raw, _SCHEMA, ConfigError, base_dir)
    year = kwargs.pop("year", None)
    calendar_file = kwargs.get("calendar", _BUILTIN_CALENDAR if year in (None, 2014) else None)
    with _config_error(f"cannot read calendar file {calendar_file}", IngestError):
        calendar = kwargs["calendar"] = (Calendar(year=year) if calendar_file is None
                                         else ingest.load_calendar_config(calendar_file))
    if year is not None and year != calendar.year:
        raise ConfigError(f"config year {year} does not match calendar year {calendar.year}")
    scaling_file = kwargs.get("scaling_fixture", _BUILTIN_SCALING)
    with _config_error(f"cannot read scaling file {scaling_file}", ScalingError):
        kwargs["scaling_fixture"] = load_scaling_fixture(scaling_file)
    with _config_error("config", ConfigError):
        return SimulationConfig(**kwargs)


def load_config(path) -> SimulationConfig:
    """Parse a JSON run configuration; relative paths resolve against its directory."""
    path = Path(path)
    with _config_error(f"cannot read config {path}", (OSError, UnicodeDecodeError)):
        text = path.read_text()
    with _config_error(f"config {path} is not valid JSON", json.JSONDecodeError):
        raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return _resolve(raw, path.parent)


def default_config() -> SimulationConfig:
    """Built-in 2014 calendar and scaling fixture, no input files attached."""
    return _resolve({}, Path())


def assemble_weather(config: SimulationConfig) -> WeatherFrame:
    """The configuration's weather file, or the synthetic year from its seed."""
    if config.weather_path is None:
        from . import synthdata
        return synthdata.synthetic_weather_frame(config.calendar, config.seed)
    with _config_error(f"cannot read weather file {config.weather_path}"):
        return ingest.load_weather(config.weather_path, config.calendar)


def assemble_demand(config: SimulationConfig) -> tuple[dict, np.ndarray, np.ndarray]:
    """The service mix and the household and service demand, read-only kW columns.

    Each profile comes from the file the configuration names, or from the
    synthetic generator when it names none.
    """
    from .demand import synthesize_service_profile

    calendar = config.calendar
    annual = config.household_annual_kwh * config.households
    if config.household_profile_path is not None:
        with _config_error(f"cannot read household profile {config.household_profile_path}"):
            household = ingest.load_profile(config.household_profile_path, annual, calendar)
    else:
        from . import synthdata
        weights = synthdata.household_weights(calendar, config.holidays_as_weekend)
        household = ingest._read_only(weights * (annual / weights.sum()))

    mix = build_service_mix(config.scaling_fixture)
    profiles = {}
    for name in mix:
        if config.reference_profile_dir is not None:
            profile_path = config.reference_profile_dir / f"{name}.csv"
            with _config_error(f"cannot read reference profile {profile_path}"):
                profiles[name] = ingest.read_series(profile_path, calendar, value_column="kw")
        else:
            from . import synthdata
            profiles[name] = synthdata.reference_profile_values(
                name, calendar, holidays_as_weekend=config.holidays_as_weekend)
    return mix, household, synthesize_service_profile(mix, profiles)


def assemble(config: SimulationConfig) -> tuple[WeatherFrame, dict, np.ndarray, np.ndarray]:
    """The weather, the service mix and the household and service demand
    (read-only kW columns) of a configuration.

    File-backed inputs are used when the configuration names them; any input
    left unspecified falls back to the deterministic synthetic generator so a
    bare configuration is still runnable end to end. The weather comes first,
    so a faulty weather file is reported before a faulty profile.
    """
    return (assemble_weather(config), *assemble_demand(config))
