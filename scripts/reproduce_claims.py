#!/usr/bin/env python3
"""Run every registered reference check (C1..C13) in process and summarize.

Usage: python scripts/reproduce_claims.py [--ids C1,C4]

Exit status is the number of mismatched claims.  C13 needs SRCFG_DATA_DIR;
when the data is absent it is reported as unavailable, not as a failure.
"""

import argparse
import sys
import time

from srcfg import claims


def run_claim(claim: claims.Claim) -> str:
    started = time.perf_counter()
    try:
        expected, observed, _details = claim.run(claims.Context())
    except claims.DataUnavailable as exc:
        return f"unavailable: {exc}"
    if expected != observed:
        return "MISMATCH"
    return f"match ({time.perf_counter() - started:.2f}s)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ids", default=None,
                    help="comma-separated claim ids (default: all)")
    args = ap.parse_args()
    ids = ([i.strip() for i in args.ids.split(",")] if args.ids
           else list(claims.CLAIMS))
    try:
        selected = [claims.get(claim_id) for claim_id in ids]
    except ValueError as exc:
        ap.error(str(exc))
    failures = 0
    for claim in selected:
        outcome = run_claim(claim)
        print(f"{claim.id:>4}  {outcome}")
        if outcome == "MISMATCH":
            failures += 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
