#!/usr/bin/env python3
"""Regenerate src/hardy/data/golden.json.

The file holds the oracle values that have no closed form; the claims
compute every other expected value from its formula.  Both entries come
from routes that import nothing from the library they check:

* L(lambda): direct fsum of 10^6 terms plus an integral-test bracket whose
  endpoints come from the alternating series int_N^inf ln(1+1/x)/x dx =
  sum_j (-1)^(j-1) N^-j / j^2; certified to 1e-12 and cross-checked with
  mpmath.nsum.
* discrete sharpness ratios: compensated (Kahan) scalar loops, independent
  of the numpy cumsum path used by the library.

Usage: python tools/gen_golden.py
"""

import json
import math
from pathlib import Path

import mpmath

OUT = Path(__file__).resolve().parent.parent / "src" / "hardy" / "data" / "golden.json"


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


def golden_text() -> str:
    """The text of golden.json."""
    golden = {
        "meta": {
            "generator": "tools/gen_golden.py",
            "note": "frozen oracle values; regenerate with the script above",
        },
        "disc": {
            "l1_log_weight_lambda": l_lambda(),
            "sharpness": sharpness_ratios(),
        },
    }
    return json.dumps(golden, indent=2, sort_keys=True) + "\n"


def main():
    OUT.write_text(golden_text())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
