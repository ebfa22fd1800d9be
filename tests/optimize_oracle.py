"""The GA's acceptance check against an exhaustive-grid optimum."""


def tournament_comparison(ga, oracle, rel_tol: float = 0.02) -> bool:
    """True when the GA objective is within rel_tol of the oracle's."""
    scale = max(abs(oracle.objective), 1e-12)
    return ga.objective <= oracle.objective + rel_tol * scale
