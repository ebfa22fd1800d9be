"""Urban electricity mix simulation toolkit.

Synthesizes hourly household and service-sector demand for a 100 000-resident
area from reference-building data, models PV and wind generation from hourly
weather, and quantifies how well different installed mixes match the load:
mismatch, utilisation, self-consumption, category statistics, and an
area-constrained search for the best mix.

Each name is imported from its module (`from urbanmix import experiments`);
`import urbanmix` alone imports none of the submodules.
"""

__version__ = "0.1.0"
