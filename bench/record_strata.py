"""Record the latpow strata: their scan-length edges and shares.

    python3 bench/record_strata.py

Draws REFERENCE_DRAWS pairs per dimension with `inputs.random_pair` at
REFERENCE_SEED and sorts each into its stratum (`workloads.pair_stratum`,
computed from the input alone) on the finest edges, `workloads.EDGES`.
A stratum with fewer than MIN_DRAWS draws is merged into the next shorter
one of its kind (the shortest into the next longer), so that every
stratum can be filled in a few hundred draws.  Writes each dimension's
edges and shares to bench/latpow_strata.json, from which latpow-scan sets
each stratum's count and weight.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

import inputs as I
import workloads as W

REFERENCE_SEED = 0
REFERENCE_DRAWS = 3000
MIN_DRAWS = 10


def merge(edges: tuple[int, ...], counts: dict[int, int]) -> list[list[int]]:
    """[low edge, draws] of the merged strata of one kind."""
    kept: list[list[int]] = []
    for low in edges:
        c = counts.get(low, 0)
        if kept and (c < MIN_DRAWS or kept[-1][1] < MIN_DRAWS):
            kept[-1][1] += c
        else:
            kept.append([low, c])
    return [k for k in kept if k[1]]


def main() -> int:
    rng = random.Random(REFERENCE_SEED)
    dims = {}
    for n in (2, 3, 4):
        counts = Counter(W.pair_stratum(I.random_pair(rng, n)) for _ in range(REFERENCE_DRAWS))
        edges, draws = {}, {}
        for kind, fine in W.EDGES.items():
            merged = merge(fine, {low: counts.pop(f"{kind}-{low}", 0) for low in fine})
            edges[kind] = [low for low, _ in merged]
            draws.update({f"{kind}-{low}": c for low, c in merged})
        draws.update(counts)  # obstruction and scan-300k+
        dims[str(n)] = {"edges": edges, "shares": {name: c / REFERENCE_DRAWS for name, c in sorted(draws.items())}}
        print(f"dim {n}: " + ", ".join(f"{name} {c}" for name, c in sorted(draws.items())))
    data = {"seed": REFERENCE_SEED, "draws_per_dim": REFERENCE_DRAWS, "min_draws": MIN_DRAWS, "dims": dims}
    W.STRATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {W.STRATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
