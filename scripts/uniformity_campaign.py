#!/usr/bin/env python3
"""Sweep sampled campaigns over a range of seeds and report the chi-square
uniformity statistics per seed. Exits nonzero if any sweep run fails the
fidelity floor or shows resource violations."""
from __future__ import annotations

import argparse
import sys

from teleportsim import CampaignConfig, run_campaign
from teleportsim.cli import resolve_input


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=4000)
    p.add_argument("--seeds", type=int, default=10, help="number of seeds, starting at --seed0")
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--input", default="random")
    args = p.parse_args(argv)
    try:
        return sweep(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def sweep(args: argparse.Namespace) -> int:
    # Every config, and a non-random input, is checked before the header.
    # An empty sweep checks nothing, so it must not read as a pass.
    if args.seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {args.seeds}")
    configs = [
        CampaignConfig(n=args.n, trials=args.trials, seed=seed, input=args.input)
        for seed in range(args.seed0, args.seed0 + args.seeds)
    ]
    if args.input != "random":
        resolve_input(configs[0], None)
    failures = 0
    for cfg in configs:
        report = run_campaign(cfg)
        if cfg is configs[0]:
            # Only a sweep whose first campaign ran gets a header.
            print(f"n={args.n} trials={args.trials} input={args.input}")
            print(f"{'seed':>6} {'chi2':>10} {'p':>8} {'min fid':>22}")
        flag = ""
        if report.failed:
            failures += 1
            flag = "  FAIL"
        print(
            f"{cfg.seed:>6} {report.chi_square_statistic:>10.3f} "
            f"{report.chi_square_p_value:>8.4f} {report.fidelity_min:>22.17f}{flag}"
        )
    if failures:
        print(f"{failures} failing seed(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
