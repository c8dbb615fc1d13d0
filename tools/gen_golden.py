#!/usr/bin/env python3
"""Regenerate src/hardy/data/golden.json.

Every [frozen] number the test suite compares against is produced here, by
routes independent of the library's main code paths wherever an independent
route exists:

* L(lambda): direct fsum of 10^6 terms plus an integral-test bracket whose
  endpoints come from the alternating series int_N^inf ln(1+1/x)/x dx =
  sum_j (-1)^(j-1) N^-j / j^2; certified to 1e-12 and cross-checked with
  mpmath.nsum.
* discrete sharpness ratios: compensated (Kahan) scalar loops, independent
  of the numpy cumsum path used by the library.
* continuous box-weight integral: mpmath.quad at 30 digits, cross-checked
  against the closed form 6 ln(3/2) - 1.
* em ratio interval: the closed form ||Gm e_m||_1 = H_m - 1 + 1/m with its
  own exact harmonic sum, cross-checked by direct float summation.
* power-tail ratio interval: recorded from a reference run and frozen as a
  regression value (its own first run is the oracle).

Usage: python tools/gen_golden.py
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hardy import cont_ops, funcspace  # noqa: E402

OUT = SRC / "hardy" / "data" / "golden.json"

EULER_GAMMA = 0.57721566490153286061


def tail_integral(n: float) -> float:
    """int_n^inf ln(1+1/x)/x dx = sum_j (-1)^(j-1) n^-j / j^2."""
    total = 0.0
    term_base = 1.0
    for j in range(1, 60):
        term_base /= n
        term = term_base / (j * j)
        total += term if j % 2 == 1 else -term
        if term < 1e-20:
            break
    return total


def l_lambda() -> dict:
    # sum_k ln(k+1)/(k(k+1)) rewritten as sum_k ln(1+1/k)/k (absolutely
    # convergent regrouping), summed exactly by fsum with a bracket tail
    n = 10 ** 6
    head = math.fsum(math.log1p(1.0 / k) / k for k in range(1, n + 1))
    hi = tail_integral(n)
    lo = tail_integral(n + 1)
    value = head + 0.5 * (hi + lo)
    half_width = 0.5 * (hi - lo)

    # Euler-Maclaurin summation; the default Richardson acceleration
    # mishandles the logarithmic factor in these terms
    mpmath.mp.dps = 25
    check = mpmath.nsum(lambda k: mpmath.log(k + 1) / (k * (k + 1)),
                        [1, mpmath.inf], method="e")
    assert abs(float(check) - value) < 5e-12, (value, float(check))
    return {"value": value, "abs_err": max(half_width, 1e-15) + 1e-15}


class Kahan:
    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float):
        y = x - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def sharpness_ratios() -> dict:
    """Direct-summation oracle for a_k = k^(-1/p), ratio at N checkpoints."""
    checkpoints = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
    out = {}
    for p in (1.25, 1.5, 2.0, 3.0, 10.0):
        prefix, num, den = Kahan(), Kahan(), Kahan()
        marks = {}
        for k in range(1, checkpoints[-1] + 1):
            a = float(k) ** (-1.0 / p)
            prefix.add(a)
            num.add((prefix.total / k) ** p)
            den.add(a ** p)
            if k in checkpoints:
                marks[str(k)] = num.total / den.total
        out[f"{p:g}"] = marks
    return out


def em_ratio_interval(m_max: int = 1000) -> dict:
    """R(e_m) over m <= m_max from the closed form ||Gm e_m||_1 = H_m - 1 + 1/m,
    with H_m summed here as an exact rational, and a direct float-summation
    cross-check at a 10^5 horizon."""
    lo, hi = math.inf, -math.inf
    h = Fraction(0)
    for m in range(1, m_max + 1):
        h += Fraction(1, m)
        norm = h - 1 + Fraction(1, m)
        ratio = (float(norm) + 1.0) / (EULER_GAMMA + math.log(m + 1.0))
        lo, hi = min(lo, ratio), max(hi, ratio)
        if m in (1, 7, 100, 1000):
            n_chk = 10 ** 5
            direct = math.fsum(
                abs((1.0 / n if n >= m else 0.0) - 1.0 / (n + 1))
                for n in range(1, n_chk + 1)) + 1.0 / (n_chk + 1)
            assert abs(direct - float(norm)) < 1e-10, (m, direct, float(norm))
    return {"min": lo, "max": hi, "m_max": m_max}


def w_box() -> dict:
    mpmath.mp.dps = 30
    val = mpmath.quad(lambda t: mpmath.log(2 + t + 1 / t), [1, 2])
    closed = 6.0 * math.log(1.5) - 1.0
    assert abs(float(val) - closed) < 1e-14
    return {"value": float(val), "abs_err": 1e-12}


def power_tail_ratio_interval() -> dict:
    lo, hi = math.inf, -math.inf
    beta = 1.1
    while beta < 4.05:
        f = funcspace.catalog("power_tail", beta=round(beta, 10))
        r = cont_ops.equivalence_ratio(f)
        lo, hi = min(lo, r), max(hi, r)
        beta += 0.1
    return {"min": lo, "max": hi, "betas": [1.1, 4.0, 0.1]}


def hardy_ratio_cutoff() -> dict:
    out = {}
    for alpha in (0.35, 0.40, 0.45):
        f = funcspace.catalog("power_cutoff", alpha=alpha, T=1.0)
        val = cont_ops.cont_hardy_ratio(f, 2.0)
        closed = 2.0 / (1.0 - alpha)
        assert abs(val - closed) < 1e-8, (alpha, val, closed)
        out[f"{alpha:g}"] = val
    return out


def main():
    golden = {
        "meta": {
            "generator": "tools/gen_golden.py",
            "note": "frozen oracle values; regenerate with the script above",
        },
        "disc": {
            "l1_log_weight_lambda": l_lambda(),
            "sharpness": sharpness_ratios(),
            "em_ratio_interval": em_ratio_interval(),
            "equivalence_e1": 2.0 / (EULER_GAMMA + math.log(2.0)),
        },
        "cont": {
            "weighted_norm_box12": w_box(),
            "power_tail_ratio_interval": power_tail_ratio_interval(),
            "hardy_ratio_cutoff_p2": hardy_ratio_cutoff(),
        },
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
