"""Sharp constants and the corrected norm comparison, empirically.

Two experiments:

1. the averaging inequality with constant (p/(p-1))^p is sharp: on the
   truncated family a_k = k^(-1/p) the p-power ratio climbs toward the
   constant as the truncation grows (and never crosses it);

2. the corrected comparison (||corrected image|| + ||input||) / (weighted
   norm) stays inside a fixed positive interval across parameter sweeps,
   while the uncorrected quotient collapses on the annihilated kernels.

Run:  python demos/03_sharpness_and_sweeps.py
"""

from hardy import catalog
from hardy import cont_ops as co
from hardy import seq_ops as so
from hardy.harness import SuiteConfig, sweep_cont, sweep_disc, sweep_to_csv

print("== discrete sharpness: a_k = k^(-1/p) truncated at N ==")
for p in (1.5, 2.0, 3.0):
    bound = (p / (p - 1.0)) ** p
    seq = so.catalog_seq("powcut", alpha=1.0 / p, N=10 ** 6)
    ratios = [so.hardy_ratio(seq, p, n) for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    path = " -> ".join(f"{r:.4f}" for r in ratios)
    print(f"  p={p:4.2f}: {path}   (bound {bound:.4f})")

print("\n== continuous near-extremal family: t^(-alpha) on (0,1], p = 2 ==")
for alpha in (0.30, 0.40, 0.45, 0.49):
    f = catalog("power_cutoff", alpha=alpha, T=1.0)
    print(f"  alpha={alpha:.2f}: ratio {co.cont_hardy_ratio(f, 2.0):.4f}"
          f"   (closed form {2.0 / (1.0 - alpha):.4f}, bound 4)")

cfg = SuiteConfig()
print("\n== equivalence-ratio sweep over power tails (CSV) ==")
rows, footer = sweep_cont("power_tail", "beta",
                          [1.1, 1.5, 2.0, 2.5, 3.0, 4.0], cfg)
print(sweep_to_csv(rows, footer))

print("== equivalence-ratio sweep over unit impulses ==")
rows, footer = sweep_disc("em", "m", [1, 3, 10, 100, 1000], cfg)
for row in rows:
    print(f"  m={row['m']:>5d}  ratio {row['equivalence_ratio']:.6f}")
print(f"  interval: [{footer['ratio_min']:.6f}, {footer['ratio_max']:.6f}]")

print("\n== why the plain quotient cannot work ==")
theta = catalog("theta")
print(f"  ||H theta||_1 = {co.l1_norm_modified(theta).value:.2e} while "
      f"W(theta) = {co.log_weight_norm(theta).value:.6f}")
lam = so.catalog_seq("lambda")
print(f"  ||corrected lambda||_1 = {so.l1_norm_mod(lam).value:.1f} while "
      f"gamma*sum + L = {so.EULER_GAMMA + so.l1_log_weight(lam).value:.6f}")
print("  (hence the input norm joins the left side of the comparison)")
