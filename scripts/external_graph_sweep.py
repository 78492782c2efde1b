#!/usr/bin/env python3
"""Clique census over external strongly regular graph lists.

Reads every *.g6 / *.graph6 file under a directory (default SRCFG_DATA_DIR),
buckets the graphs by srg parameters, and for each graph reports the number
of k-cliques with k(k-1) = d and the number of configurations carried.

Usage: python scripts/external_graph_sweep.py [--data-dir DIR]
"""

import argparse
import math
import os
import sys
from pathlib import Path

from srcfg.claims import srg_buckets
from srcfg.classify import find_configurations
from srcfg.graphs import k_cliques


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data-dir", default=os.environ.get("SRCFG_DATA_DIR"))
    args = ap.parse_args()
    if not args.data_dir or not Path(args.data_dir).is_dir():
        print("error: no data directory (set SRCFG_DATA_DIR or --data-dir)",
              file=sys.stderr)
        return 1

    buckets, non_srg = srg_buckets(args.data_dir)
    for path in non_srg:
        print(f"warning: non-srg graph in {path}", file=sys.stderr)

    for params in sorted(buckets):
        v, d, lam, mu = params
        k = (1 + math.isqrt(1 + 4 * d)) // 2
        if k * (k - 1) != d:
            print(f"srg{params}: d is not k(k-1), skipped")
            continue
        graphs = buckets[params]
        print(f"srg{params}: {len(graphs)} graphs, line size k={k}")
        clique_counts = []
        config_total = 0
        for i, g in enumerate(graphs):
            cliques = len(k_cliques(g, k))
            configs = len(find_configurations(g, k))
            clique_counts.append(cliques)
            config_total += configs
            print(f"  graph {i:3d}: {cliques:4d} {k}-cliques, "
                  f"{configs} configurations")
        print(f"  clique count range [{min(clique_counts)}, "
              f"{max(clique_counts)}], configurations total {config_total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
