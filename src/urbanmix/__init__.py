"""Urban electricity mix simulation toolkit.

Synthesizes hourly household and service-sector demand for a 100 000-resident
area from reference-building data, models PV and wind generation from hourly
weather, and quantifies how well different installed mixes match the load:
mismatch, utilisation, self-consumption, category statistics, and an
area-constrained search for the best mix.
"""

from .config import ConfigError, ModelInputs, SimulationConfig, assemble, default_config, load_config
from .demand import MIXED, RESIDENTIAL_ONLY, LoadCase, build_load_cases, compute_phi
from .generation import (AreaBudget, PvParams, TurbineParams, capacity_coefficients, generation_mw,
                         pv_unit_series, wind_unit_series)
from .ingest import (Calendar, HourlySeries, IngestError, WeatherFrame, WeatherRecord, build_calendar,
                     load_profile, load_weather)
from .metrics import AggregateMetrics, HourlySplit, annual_metrics, delta_mismatch, hourly_split
from .optimize import GAConfig, MixProblem, MixSolution, ga_optimize, grid_oracle
from .scaling import ScalingFixture, ServiceMix, build_service_mix, load_default_fixture, round_half_away
from .stats import TestResult, holm_bonferroni, welch_t_test
from .validation import reconcile_published, render_reconciliation

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics", "AreaBudget", "Calendar", "ConfigError", "GAConfig",
    "HourlySeries", "HourlySplit", "IngestError", "LoadCase", "MIXED",
    "MixProblem", "MixSolution", "ModelInputs", "PvParams", "RESIDENTIAL_ONLY",
    "ScalingFixture", "ServiceMix", "SimulationConfig", "TestResult",
    "TurbineParams", "WeatherFrame", "WeatherRecord", "annual_metrics", "assemble",
    "build_calendar", "build_load_cases", "build_service_mix",
    "capacity_coefficients", "compute_phi", "default_config", "delta_mismatch",
    "ga_optimize", "generation_mw", "grid_oracle", "holm_bonferroni",
    "hourly_split", "load_config", "load_default_fixture", "load_profile",
    "load_weather", "pv_unit_series", "reconcile_published",
    "render_reconciliation", "round_half_away", "welch_t_test",
    "wind_unit_series",
]
