"""Seeded inputs for the benchmark workloads.

Every workload is cut into blocks; one block is the work of one sample (one
fresh interpreter, like one ``hardy`` CLI call).  A block is a stratified
draw from the distributions in NOTES.md: each parameter range is split into
equal strata and every stratum contributes one point per block.  The
position inside a stratum moves from block to block along a golden-ratio
sequence started at a seeded offset, so a run of a few blocks covers each
stratum evenly.  Stratifying keeps the share of expensive inputs (the
``log_tail`` band, large ``m``, long sequences) the same in every block, so a
run's figures do not swing with how many expensive points the seed drew.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# 29 strata put the log_tail band edges beta = 2 and beta = 3 on stratum
# boundaries (width 0.1 over [1.1, 4]).
CONT_STRATA = 29
SPARSE_BLOCK = 100
DENSE_BLOCK = 100
EM_MAX = 4000
DENSE_LEN = (20, 400)


def _rng(*key) -> random.Random:
    # str seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED
    return random.Random(":".join(str(k) for k in key))


def _strata(workload: str, seed: int, block: int, name: str, n: int) -> list[float]:
    """n numbers in [0, 1), one per stratum of width 1/n."""
    base = _rng(workload, seed, name)
    out = []
    for i in range(n):
        u = (base.random() + block * GOLDEN) % 1.0
        out.append((i + u) / n)
    return out


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _paired(workload: str, seed: int, block: int, name: str, n: int):
    """Two stratified coordinates; stratum i of the first goes with stratum
    i * round(GOLDEN * n) mod n of the second (a rank-1 lattice), so the
    joint spread is the same for every seed."""
    first = _strata(workload, seed, block, name, n)
    second = _strata(workload, seed, block, name + ".2", n)
    step = round(GOLDEN * n)
    return [(first[i], second[i * step % n]) for i in range(n)]


def cont_block(seed: int, block: int) -> list[tuple[str, str, float, dict]]:
    """Points (family, param, value, fixed) for ``harness.sweep_cont``."""
    w = "cont-sweep"
    n = CONT_STRATA
    pts = []
    for u in _strata(w, seed, block, "power_tail", n):
        pts.append(("power_tail", "beta", 1.05 + u * (4.0 - 1.05), {}))
    for u in _strata(w, seed, block, "log_tail", n):
        pts.append(("log_tail", "beta", 1.1 + u * (4.0 - 1.1), {}))
    for u, v in _paired(w, seed, block, "box", n):
        lo = _log_uniform(u, 1e-2, 10.0)
        pts.append(("box", "lo", lo, {"hi": lo * (1.0 + 0.05 + v * (3.0 - 0.05))}))
    for u, v in _paired(w, seed, block, "power_cutoff", n):
        pts.append(("power_cutoff", "alpha", u * 0.95, {"T": _log_uniform(v, 0.1, 10.0)}))
    _rng(w, seed, block).shuffle(pts)
    return pts


def sparse_block(seed: int, block: int) -> list[int]:
    """Impulse positions m for ``em(m)``, m in [1, EM_MAX]."""
    w = "disc-sparse"
    ms = [min(EM_MAX, 1 + int(u * EM_MAX))
          for u in _strata(w, seed, block, "m", SPARSE_BLOCK)]
    _rng(w, seed, block).shuffle(ms)
    return ms


def dense_block(seed: int, block: int) -> list[list[Fraction]]:
    """Nonnegative rational sequences drawn like those of the
    ``disc.split.exact_identities`` claim, with lengths in DENSE_LEN."""
    w = "disc-dense"
    rng = _rng(w, seed, block)
    lo, hi = DENSE_LEN
    lengths = [lo + int(u * (hi - lo + 1))
               for u in _strata(w, seed, block, "length", DENSE_BLOCK)]
    rng.shuffle(lengths)
    seqs = []
    for n in lengths:
        values = [Fraction(rng.randint(0, 1000), rng.randint(1, 1000)) for _ in range(n)]
        # a trailing zero would shorten the sequence; keep its drawn length
        if values[-1] == 0:
            values[-1] = Fraction(1, 3)
        seqs.append(values)
    return seqs
