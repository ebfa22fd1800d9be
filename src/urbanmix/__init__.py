"""Urban electricity mix simulation toolkit.

Synthesizes hourly household and service-sector demand for a 100 000-resident
area from reference-building data, models PV and wind generation from hourly
weather, and quantifies how well different installed mixes match the load:
mismatch, utilisation, self-consumption, category statistics, and an
area-constrained search for the best mix.

The names below are loaded on first access (PEP 562), so `import urbanmix`
imports none of the submodules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ConfigError", "ModelInputs", "SimulationConfig", "assemble",
               "assemble_demand", "assemble_weather", "default_config", "load_config",
               "GAConfig"),
    "demand": ("MIXED", "RESIDENTIAL_ONLY", "build_load_cases"),
    "generation": ("AreaBudget", "PvParams", "TurbineParams", "capacity_coefficients",
                   "generation_mw", "pv_unit_series", "wind_unit_series"),
    "ingest": ("Calendar", "IngestError", "WeatherFrame", "load_profile", "load_weather"),
    "metrics": ("AggregateMetrics", "HourlySplit", "annual_metrics", "delta_mismatch",
                "hourly_split"),
    "optimize": ("MixProblem", "MixSolution", "ga_optimize", "grid_oracle"),
    "scaling": ("ScalingFixture", "build_service_mix", "round_half_away"),
    "stats": ("TestResult", "apply_holm", "welch_t_test"),
    "validation": ("reconcile_published", "render_reconciliation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
