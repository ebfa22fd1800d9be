"""Run configuration: JSON loading, defaults, and input assembly."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from . import ingest
from .generation import AreaBudget, PvParams, SingleDiodeParams, TurbineParams, _require_numbers
from .ingest import Calendar, HourlySeries, IngestError, ValidationError, WeatherFrame
from .scaling import (ScalingFixture, ServiceMix, build_service_mix, load_default_fixture,
                      load_scaling_fixture)


class ConfigError(ValueError):
    pass


# The optimizer's settings live here, with the rest of the run configuration,
# so that loading a configuration does not import the optimizer.
SIGN_CONVENTIONS = ("magnitude-neg", "signed-neg")


class OptimizeError(ValidationError):
    pass


@dataclass(frozen=True)
class GAConfig:
    population: int = 50
    tournament_k: int = 3
    blend_alpha: float = 0.5
    mutation_sigma_frac: float = 0.02
    mutation_rate: float = 0.9
    elite: int = 2
    stall_generations: int = 20
    stall_rel_tol: float = 1e-6
    max_generations: int = 400

    def __post_init__(self):
        _require_numbers(self, ("population", "tournament_k", "elite", "stall_generations",
                                "max_generations"), OptimizeError, kinds=int)
        _require_numbers(self, ("blend_alpha", "mutation_sigma_frac", "mutation_rate",
                                "stall_rel_tol"), OptimizeError)
        if self.population < 4:
            raise OptimizeError("population must be at least 4")
        if not 1 <= self.tournament_k <= self.population:
            raise OptimizeError("tournament size must be within the population")
        if self.elite < 0 or self.elite >= self.population:
            raise OptimizeError("elite count must be smaller than the population")
        if not 0 <= self.mutation_rate <= 1:
            raise OptimizeError(f"mutation_rate must lie in [0, 1], got {self.mutation_rate}")
        for name in ("blend_alpha", "mutation_sigma_frac", "stall_rel_tol"):
            if getattr(self, name) < 0:
                raise OptimizeError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.stall_generations < 1:
            raise OptimizeError(f"stall_generations must be >= 1, got {self.stall_generations}")
        if self.max_generations < 0:
            raise OptimizeError(f"max_generations must be >= 0, got {self.max_generations}")


class Benchmark(NamedTuple):
    name: str
    twh: float


DEFAULT_BENCHMARKS = (
    # national statistics reference totals for annual service-sector
    # electricity demand in the Netherlands, TWh
    Benchmark(name="PBL", twh=33.6),
    Benchmark(name="CBS", twh=30.6),
)


_TOP_LEVEL_KEYS = {
    "year", "calendar", "weather", "household_profile", "reference_profile_dir",
    "scaling", "households", "household_annual_kwh", "real_inputs", "seed",
    "holidays_as_weekend", "turbine", "pv", "area", "sweep", "mix_preset",
    "stats", "ga", "weights", "sign_convention", "benchmarks",
}


@dataclass(frozen=True)
class SimulationConfig:
    calendar: Calendar
    scaling_fixture: ScalingFixture
    weather_path: Path | None = None
    household_profile_path: Path | None = None
    reference_profile_dir: Path | None = None
    households: int = 100_000
    household_annual_kwh: float = 3500.0
    real_inputs: bool = False
    seed: int = 0
    holidays_as_weekend: bool = True
    turbine: TurbineParams = field(default_factory=TurbineParams)
    pv: PvParams = field(default_factory=PvParams)
    area: AreaBudget = field(default_factory=AreaBudget)
    roof_only_pv: bool = False
    sweep_max_mw: float = 525.0
    sweep_steps: int = 11
    mix_pv_mw: float = 399.0
    mix_wind_mw: float = 30.0
    alpha: float = 0.05
    pooled: bool = False
    weights: tuple = (1.0, 1.0, -5.0)
    sign_convention: str = "magnitude-neg"
    ga: GAConfig = field(default_factory=GAConfig)
    benchmarks: tuple = DEFAULT_BENCHMARKS

    def __post_init__(self):
        # numpy's generators take no negative seed; reject it before any run
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def year(self) -> int:
        return self.calendar.year

    def with_seed(self, seed: int) -> "SimulationConfig":
        return replace(self, seed=seed)


def _require(mapping: dict, key: str, kind, context: str):
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{context}: {key} must be {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{context}: {key} must be finite, got {value}")
    return value


def _load_calendar(raw: dict, base_dir: Path) -> Calendar:
    if "calendar" in raw:
        path = base_dir / raw["calendar"]
        try:
            return ingest.load_calendar_config(path)
        except (OSError, IngestError) as exc:
            raise ConfigError(f"cannot read calendar file {path}: {exc}") from exc
    year = raw.get("year", 2014)
    if not isinstance(year, int) or isinstance(year, bool):
        raise ConfigError("config: year must be an integer")
    if year == 2014:
        builtin = Path(__file__).parent / "data" / "calendar_nl2014.json"
        return ingest.load_calendar_config(builtin)
    return ingest.build_calendar(year, holidays=())


def _load_fixture(raw: dict, base_dir: Path) -> ScalingFixture:
    if "scaling" in raw:
        path = base_dir / raw["scaling"]
        try:
            return load_scaling_fixture(path)
        except (OSError, TypeError, ValueError) as exc:  # ScalingError or a bad number
            raise ConfigError(f"cannot read scaling file {path}: {exc}") from exc
    return load_default_fixture()


def _params_from(raw: dict, key: str, factory, label: str | None = None):
    label = label or key
    section = raw.get(key)
    if section is None:
        return factory()
    if not isinstance(section, dict):
        raise ConfigError(f"config: {label} must be an object")
    try:
        return factory(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: bad {label} options: {exc}") from exc


def _section(raw: dict, key: str, allowed: set) -> dict:
    """A flat config section: an object (or absent/null) with only known keys."""
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config: {key} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"config: unknown {key} keys {sorted(unknown)}")
    return section


def _bool(value, label: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config: {label} must be true or false")
    return value


def _benchmark(entry, context: str) -> Benchmark:
    if not isinstance(entry, dict) or set(entry) != {"name", "twh"}:
        raise ConfigError(f"{context}: must be an object with keys name and twh")
    return Benchmark(_require(entry, "name", str, context), _require(entry, "twh", float, context))


def load_config(path) -> SimulationConfig:
    """Parse a JSON run configuration; relative paths resolve against its directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")

    base_dir = path.parent
    calendar = _load_calendar(raw, base_dir)
    if "year" in raw and raw["year"] != calendar.year:
        raise ConfigError(f"config year {raw['year']} does not match calendar year {calendar.year}")
    fixture = _load_fixture(raw, base_dir)

    def resolve(key: str) -> Path | None:
        if key not in raw:
            return None
        return base_dir / raw[key]

    kwargs: dict = {
        "calendar": calendar,
        "scaling_fixture": fixture,
        "weather_path": resolve("weather"),
        "household_profile_path": resolve("household_profile"),
        "reference_profile_dir": resolve("reference_profile_dir"),
    }
    if "households" in raw:
        kwargs["households"] = _require(raw, "households", int, "config")
    if "household_annual_kwh" in raw:
        kwargs["household_annual_kwh"] = _require(raw, "household_annual_kwh", float, "config")
    if "real_inputs" in raw:
        kwargs["real_inputs"] = _bool(raw["real_inputs"], "real_inputs")
    if "seed" in raw:
        kwargs["seed"] = _require(raw, "seed", int, "config")
    if "holidays_as_weekend" in raw:
        kwargs["holidays_as_weekend"] = _bool(raw["holidays_as_weekend"], "holidays_as_weekend")

    kwargs["turbine"] = _params_from(raw, "turbine", TurbineParams)
    pv_raw = raw.get("pv")
    if isinstance(pv_raw, dict) and "diode" in pv_raw:
        pv_raw = dict(pv_raw, diode=_params_from(pv_raw, "diode", SingleDiodeParams,
                                                 label="pv.diode"))
    kwargs["pv"] = _params_from({"pv": pv_raw}, "pv", PvParams)
    area_raw = dict(raw.get("area") or {})
    if "roof_only_pv" in area_raw:
        kwargs["roof_only_pv"] = _bool(area_raw.pop("roof_only_pv"), "area.roof_only_pv")
    kwargs["area"] = _params_from({"area": area_raw} if area_raw else {}, "area", AreaBudget)

    sweep = _section(raw, "sweep", {"max_mw", "steps"})
    if "max_mw" in sweep:
        kwargs["sweep_max_mw"] = _require(sweep, "max_mw", float, "config: sweep")
    if "steps" in sweep:
        kwargs["sweep_steps"] = _require(sweep, "steps", int, "config: sweep")
    preset = _section(raw, "mix_preset", {"pv_mw", "wind_mw"})
    if "pv_mw" in preset:
        kwargs["mix_pv_mw"] = _require(preset, "pv_mw", float, "config: mix_preset")
    if "wind_mw" in preset:
        kwargs["mix_wind_mw"] = _require(preset, "wind_mw", float, "config: mix_preset")
    stats_raw = _section(raw, "stats", {"alpha", "pooled"})
    if "alpha" in stats_raw:
        kwargs["alpha"] = _require(stats_raw, "alpha", float, "config: stats")
    if "pooled" in stats_raw:
        kwargs["pooled"] = _bool(stats_raw["pooled"], "stats.pooled")
    if "weights" in raw:
        w = raw["weights"]
        if not isinstance(w, (list, tuple)) or len(w) != 3:
            raise ConfigError("config: weights must be a list of three numbers")
        entries = {f"weights[{i}]": v for i, v in enumerate(w)}
        kwargs["weights"] = tuple(_require(entries, key, float, "config") for key in entries)
    if "sign_convention" in raw:
        convention = _require(raw, "sign_convention", str, "config")
        if convention not in SIGN_CONVENTIONS:
            raise ConfigError(f"config: sign_convention must be one of {SIGN_CONVENTIONS}, "
                              f"got {convention!r}")
        kwargs["sign_convention"] = convention
    kwargs["ga"] = _params_from(raw, "ga", GAConfig)
    if "benchmarks" in raw:
        if not isinstance(raw["benchmarks"], list):
            raise ConfigError("config: bad benchmarks: must be a list of objects")
        kwargs["benchmarks"] = tuple(_benchmark(entry, f"config: bad benchmarks entry {i}")
                                     for i, entry in enumerate(raw["benchmarks"]))

    try:
        config = SimulationConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"config: {exc}") from None
    if config.sweep_steps < 2:
        raise ConfigError("config: sweep steps must be at least 2")
    if not config.sweep_max_mw > 0:
        raise ConfigError(f"config: sweep max_mw must be positive, got {config.sweep_max_mw}")
    if not 0 < config.alpha < 1:
        raise ConfigError(f"config: stats alpha must lie in (0, 1), got {config.alpha}")
    if not (config.mix_pv_mw >= 0 and config.mix_wind_mw >= 0):
        raise ConfigError("config: mix_preset capacities must be non-negative, got "
                          f"pv_mw={config.mix_pv_mw}, wind_mw={config.mix_wind_mw}")
    if config.households <= 0:
        raise ConfigError("config: households must be positive")
    if config.household_annual_kwh <= 0:
        raise ConfigError("config: household_annual_kwh must be positive")
    return config


def default_config() -> SimulationConfig:
    """Built-in 2014 calendar and scaling fixture, no input files attached."""
    builtin = Path(__file__).parent / "data" / "calendar_nl2014.json"
    return SimulationConfig(calendar=ingest.load_calendar_config(builtin),
                            scaling_fixture=load_default_fixture())


@dataclass(frozen=True)
class ModelInputs:
    """Everything the experiments need, assembled from one configuration."""
    config: SimulationConfig
    calendar: Calendar
    weather: WeatherFrame
    service_mix: ServiceMix
    household: HourlySeries
    service: HourlySeries

    @property
    def seed(self) -> int:
        return self.config.seed


def assemble(config: SimulationConfig) -> ModelInputs:
    """Load (or synthesize) weather and demand inputs for a configuration.

    File-backed inputs are used when the configuration names them; any input
    left unspecified falls back to the deterministic synthetic generator so a
    bare configuration is still runnable end to end.
    """
    from . import synthdata
    from .demand import synthesize_service_profile

    calendar = config.calendar
    if config.weather_path is not None:
        try:
            weather = ingest.load_weather(config.weather_path, calendar)
        except OSError as exc:
            raise ConfigError(f"cannot read weather file {config.weather_path}: {exc}") from exc
    else:
        weather = synthdata.synthetic_weather_frame(calendar, config.seed)

    annual = config.household_annual_kwh * config.households
    if config.household_profile_path is not None:
        try:
            household = ingest.load_profile(config.household_profile_path, annual, calendar)
        except OSError as exc:
            raise ConfigError(
                f"cannot read household profile {config.household_profile_path}: {exc}") from exc
    else:
        weights = synthdata.household_weights(calendar, config.holidays_as_weekend)
        household = HourlySeries(weights * (annual / weights.sum()), unit="kW",
                                 year=calendar.year)

    mix = build_service_mix(config.scaling_fixture.specs,
                            households_per_100k=config.scaling_fixture.households_per_100k)
    profiles: dict[str, HourlySeries] = {}
    for name in mix.names:
        if config.reference_profile_dir is not None:
            profile_path = config.reference_profile_dir / f"{name}.csv"
            try:
                profiles[name] = ingest.read_series(profile_path, unit="kW",
                                                    year=calendar.year,
                                                    value_column="kw")
            except OSError as exc:
                raise ConfigError(f"cannot read reference profile {profile_path}: {exc}") from exc
        else:
            values = synthdata.reference_profile_values(name, calendar,
                                                        holidays_as_weekend=config.holidays_as_weekend)
            profiles[name] = HourlySeries(values, unit="kW", year=calendar.year)
    service = synthesize_service_profile(mix, profiles)

    return ModelInputs(config=config, calendar=calendar, weather=weather,
                       service_mix=mix, household=household, service=service)
