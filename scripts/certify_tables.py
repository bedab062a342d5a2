#!/usr/bin/env python3
"""Derive correction tables from scratch and certify them row by row.

Widths with a shipped fixture (up to MAX_REFERENCE_WIDTH) are certified
against it; wider tables are certified against the composed single-pair
rule. Disagreements are printed with the oracle-verified correction
alongside the fixture row, and the exit status is 1.
"""
from __future__ import annotations

import argparse
import sys

from teleportsim import certify_table, composed_table, derive_corrections, reference_table
from teleportsim.teleport import MAX_PROTOCOL_WIDTH, MAX_REFERENCE_WIDTH, VERDICT_MATCH, check_width


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("widths", nargs="*", type=int, default=[1, 2, 3])
    p.add_argument("--all-rows", action="store_true", help="print matching rows too")
    args = p.parse_args(argv)
    try:
        return certify(args.widths, args.all_rows)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def certify(widths: list[int], all_rows: bool) -> int:
    # Every width is checked before the first table is derived and printed.
    for n in widths:
        check_width(n, MAX_PROTOCOL_WIDTH, "table derivation")
    any_disagreement = False
    for n in widths:
        derived = derive_corrections(n)
        against = "fixture" if n <= MAX_REFERENCE_WIDTH else "composed rule"
        ref = reference_table(n) if n <= MAX_REFERENCE_WIDTH else composed_table(n)
        report = certify_table(derived, ref)
        print(f"width {n} vs {against}: {dict(report.counts)}")
        for row in report.rows:
            if row.verdict == VERDICT_MATCH and not all_rows:
                continue
            print(f"  {row.code} [{row.verdict}] oracle: {row.derived:<24} {against}: {row.reference}")
        if not report.all_match:
            any_disagreement = True
    return 1 if any_disagreement else 0


if __name__ == "__main__":
    sys.exit(main())
