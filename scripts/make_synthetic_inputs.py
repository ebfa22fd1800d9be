#!/usr/bin/env python3
"""Write a runnable synthetic input set (weather, profiles, config)."""

import argparse
from pathlib import Path

from urbanmix.config import SimulationConfig, default_config
from urbanmix.synthdata import DEFAULT_SEED, write_input_set


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path, help="directory to write into")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--households", type=int,
                        default=SimulationConfig._field_defaults["households"])
    args = parser.parse_args()

    calendar = default_config().calendar
    config_path = write_input_set(args.out_dir, calendar, seed=args.seed,
                                  households=args.households)
    print(f"wrote input set; run e.g.: urbanmix --config {config_path} sweep")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
