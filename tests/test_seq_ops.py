import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from hardy import seq_ops as so

GAMMA = so.EULER_GAMMA


@pytest.fixture(scope="module")
def lam():
    return so.catalog_seq("lambda")


@pytest.fixture(scope="module")
def e1():
    return so.catalog_seq("em", m=1)


def test_cesaro_examples(lam, e1):
    for n in (1, 5, 100):
        assert so.cesaro(lam, n) == Fraction(1, n + 1)
    for n in (1, 3, 17):
        assert so.cesaro(e1, n) == Fraction(1, n)
    ones = so.finite_sequence("ones", [1] * 50)
    for n in (1, 10, 50):
        assert so.cesaro(ones, n) == 1
    with pytest.raises(so.SequenceError):
        so.cesaro(lam, 0)


def test_modified_cesaro_exact(lam, e1):
    for n in (1, 2, 3, 10, 100, 1000):
        assert so.modified_cesaro(lam, n) == 0
    for n in (1, 4, 9):
        assert so.modified_cesaro(e1, n) == Fraction(1, n * (n + 1))
    e3 = so.catalog_seq("em", m=3)
    assert so.modified_cesaro(e3, 1) == Fraction(-1, 2)


def test_decomposition_termwise(lam, e1):
    for seq in (lam, e1, so.finite_sequence("mix", [2, 0, Fraction(1, 3), 5])):
        for n in (1, 2, 5, 20):
            assert so.modified_cesaro(seq, n) == so.j1_term(seq, n) - so.j2_term(seq, n)


def test_pointwise_operators_are_exact_only():
    pw = so.catalog_seq("power", alpha=1.5)
    built = []
    counting = so.SeqSpec(
        name="counting", gen=lambda k: built.append(k) or float(k) ** -1.5,
        decay=so.TailClass("power", coeff=1.0, alpha=1.5, valid_from=3, lower=1.0))
    built.clear()  # the decay spot-check at construction reads terms
    for op in (so.cesaro, so.modified_cesaro, so.j1_term, so.j2_term):
        for seq in (pw, counting):
            with pytest.raises(so.SequenceError, match="need exact terms"):
                op(seq, 10)
    assert built == []  # refused before any term is built


def test_rearranged_forms_are_finite_only(lam):
    for op in (so.j1_sum_by_weights, so.j2_sum_by_weights):
        with pytest.raises(so.SequenceError, match="finite sequences only"):
            op(lam)


def test_j_sums_unit_impulse(e1):
    assert so.j1_sum(e1).exact == 1
    assert so.j2_sum(e1).exact == 0
    e3 = so.catalog_seq("em", m=3)
    assert so.j2_sum_by_weights(e3).exact == Fraction(5, 6)  # H_3 - 1


def test_j_sums_lambda_truncated():
    lam100 = so.finite_sequence(
        "lam100", [Fraction(1, k * (k + 1)) for k in range(1, 101)])
    expected = sum((Fraction(1, k * k * (k + 1)) for k in range(1, 101)), Fraction(0))
    assert so.j1_sum(lam100).exact == expected
    assert so.j1_sum_by_weights(lam100).exact == expected
    assert so.j2_sum(lam100).exact == so.j2_sum_by_weights(lam100).exact


def test_exact_identities_random():
    rng = random.Random(99)
    for i in range(50):
        support = rng.randint(1, 40)
        values = [Fraction(rng.randint(0, 100), rng.randint(1, 100))
                  for _ in range(support)]
        values[rng.randrange(support)] += Fraction(1, 7)
        seq = so.finite_sequence(f"r{i}", values)
        assert so.j1_sum(seq).exact == so.j1_sum_by_weights(seq).exact
        assert so.j2_sum(seq).exact == so.j2_sum_by_weights(seq).exact


def test_j_sums_require_nonnegative():
    signed = so.finite_sequence("signed", [1, -1])
    with pytest.raises(so.SequenceError):
        so.j1_sum(signed)


def test_l1_norm_mod_exact(lam, e1):
    assert so.l1_norm_mod(e1).exact == 1
    e3 = so.catalog_seq("em", m=3)
    assert so.l1_norm_mod(e3).exact == Fraction(7, 6)
    res = so.l1_norm_mod(lam, horizon=2000)
    assert res.verdict == "converged"
    assert res.value == 0.0
    # bound is dominated by the log-weighted remainder ~ 1.7 (ln H + 1)/H
    assert res.err <= 1e-2


def _per_index_sums(values):
    """Reference (sum |Gm a|_n, sum J1, sum J2) walked one index at a time;
    past the support (Gm a)_n = J1(n) = m/(n(n+1)) and J2(n) = 0, which
    telescope to m/(N+1)."""
    pre = list(itertools.accumulate(values, initial=Fraction(0)))
    n0, m = len(values), pre[-1]
    ns = range(1, n0 + 1)
    l1 = sum((abs(pre[n] / n - m / (n + 1)) for n in ns), abs(m) / (n0 + 1))
    j1 = sum((pre[n] / (n * (n + 1)) for n in ns), m / (n0 + 1))
    j2 = sum(((m - pre[n]) / (n + 1) for n in ns), Fraction(0))
    return l1, j1, j2


def test_l1_norm_mod_em_closed_form():
    # sum |Gm e_m| = H_m - 1 + 1/m, with H_m summed here
    h = Fraction(0)
    for m in range(1, 301):
        h += Fraction(1, m)
        assert so.l1_norm_mod(so.catalog_seq("em", m=m)).exact == h - 1 + Fraction(1, m)
    h = sum((Fraction(1, k) for k in range(1, 4001)), Fraction(0))
    assert so.l1_norm_mod(so.catalog_seq("em", m=4000)).exact == h - 1 + Fraction(1, 4000)


def test_run_sums_match_per_index_walk():
    # a sign change of (Gm a)_n inside a run: S = 5 on n = 1..9 with total
    # 6 turns at n = 5; the negative mirror turns at the same place
    cases = [[5] + [0] * 8 + [1], [-5] + [0] * 8 + [-1]]
    rng = random.Random(31)
    for _ in range(150):
        cases.append([0 if rng.random() < 0.6 else
                      Fraction(rng.randint(-40, 60), rng.randint(1, 25))
                      for _ in range(rng.randint(1, 60))])
    for values in cases:
        if not any(values):
            values[-1] = 1
        seq = so.finite_sequence("r", values)
        l1, j1, j2 = _per_index_sums(seq.values)
        assert so.l1_norm_mod(seq).exact == l1
        if all(v >= 0 for v in seq.values):
            assert so.j1_sum(seq).exact == j1
            assert so.j2_sum(seq).exact == j2


def test_l1_norm_mod_generator_and_divergent():
    pw = so.catalog_seq("power", alpha=2.0)
    res = so.l1_norm_mod(pw)
    assert res.verdict == "converged" and res.value > 0.0
    for beta in (1.5, 2.0):
        assert so.l1_norm_mod(so.catalog_seq("logdecay", beta=beta)).verdict == \
            "divergent"


def test_l1_log_weight(lam, e1):
    assert so.l1_log_weight(e1).value == pytest.approx(math.log(2.0), rel=1e-15)
    res = so.l1_log_weight(lam, horizon=10 ** 6)
    assert res.verdict == "converged"
    assert res.value == pytest.approx(1.2577468869443698, abs=res.err + 1e-12)
    assert so.l1_log_weight(so.catalog_seq("logdecay", beta=2.0)).verdict == \
        "divergent"


def test_total_sum_tail_bound():
    pw = so.catalog_seq("power", alpha=1.5)
    res = so.total_sum(pw, horizon=10 ** 5)
    zeta_15 = 2.612375348685488  # zeta(3/2)
    assert res.verdict == "converged"
    assert abs(res.value - zeta_15) <= res.err


def test_float_term_arrays_are_capped():
    # one guard in terms_float, raised before any array is built
    n = so.MAX_FLOAT_TERMS + 1
    big = so.catalog_seq("powcut", alpha=0.5, N=n)
    for op in (lambda: big.terms_float(n), lambda: so.total_sum(big),
               lambda: so.l1_log_weight(big), lambda: so.l1_norm_mod(big),
               lambda: so.hardy_ratio(so.catalog_seq("lambda"), 2.0, n),
               lambda: so.catalog_seq("em", m=10 ** 9)):
        with pytest.raises(so.SequenceError, match="exceed the cap"):
            op()


def test_exact_sequence_builders_check_the_cap_first(tmp_path, monkeypatch):
    monkeypatch.setattr(so, "MAX_FLOAT_TERMS", 3)
    path = tmp_path / "seq.txt"
    path.write_text("1\n2\n3\n4\n")
    for op in (lambda: so.catalog_seq("em", m=4),
               lambda: so.finite_sequence("four", [1, 2, 3, 4]),
               lambda: so.load_rational_file(path)):
        with pytest.raises(so.SequenceError, match="exceed the cap"):
            op()
    assert so.catalog_seq("em", m=3).values[-1] == 1


def test_harmonic_exact():
    assert so.harmonic(1) == 1
    assert so.harmonic(4) == Fraction(25, 12)
    assert so.harmonic(10) == sum((Fraction(1, k) for k in range(1, 11)), Fraction(0))
    with pytest.raises(so.SequenceError):
        so.harmonic(0)


def test_gamma_residual():
    assert so.gamma_residual(1) == pytest.approx(1.0 - GAMMA, abs=1e-15)
    assert so.gamma_residual(10 ** 6) == pytest.approx(5e-7, rel=1e-2)


def test_gamma_residual_bounds_sampled():
    ok, worst_lo, worst_hi = so.scan_gamma_residual(2, 20000)
    assert ok and worst_lo > 0.0 and worst_hi > 0.0


def test_lp_norm_and_ratio(lam, e1):
    assert so.lp_norm(e1, 2.0, 100) == 1.0
    assert so.lp_norm(lam, 1.0, 10 ** 4) == pytest.approx(1.0, abs=1e-4)
    r = so.hardy_ratio(lam, 2.0, 10 ** 6)
    closed = (math.pi ** 2 / 6.0 - 1.0) / (math.pi ** 2 / 3.0 - 3.0)
    assert r == pytest.approx(closed, rel=1e-5)
    assert r <= 4.0
    # Basel-type bound for the impulse
    r = so.hardy_ratio(e1, 2.0, 10 ** 5)
    assert r < math.pi ** 2 / 6.0


def test_hardy_ratio_rejects_bad_input(lam):
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(lam, 1.0, 100)
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(so.finite_sequence("signed", [1, -1]), 2.0, 100)
    zero_then = so.catalog_seq("em", m=50)
    with pytest.raises(so.SequenceError):
        so.hardy_ratio(zero_then, 2.0, 10)  # empty truncation


def test_hardy_ratio_sharpness_trend():
    n = 10 ** 5
    seq = so.catalog_seq("powcut", alpha=0.5, N=n)
    ratios = [so.hardy_ratio(seq, 2.0, m) for m in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert ratios == sorted(ratios)
    assert all(r < 4.0 for r in ratios)


def test_disc_mean_check(lam):
    rep = so.disc_mean_check(lam, max_power=18)
    assert rep.target == pytest.approx(math.log(2.0), rel=1e-12)
    assert rep.rate_ok
    assert all(abs(inc - rep.target) <= 0.1 * rep.target for inc in rep.increments)
    pair = so.finite_sequence("pair", [1, -1])
    rep = so.disc_mean_check(pair, max_power=12)
    assert rep.zero_sum and rep.rate_ok


def test_disc_equivalence_ratio(lam, e1):
    assert so.disc_equivalence_ratio(e1) == pytest.approx(
        2.0 / (GAMMA + math.log(2.0)), rel=1e-12)
    r = so.disc_equivalence_ratio(lam)
    assert r == pytest.approx(1.0 / (GAMMA + 1.2577468869443698), rel=1e-4)
    with pytest.raises(so.SequenceError):
        so.disc_equivalence_ratio(so.catalog_seq("logdecay", beta=1.5))


def test_sequence_parsing():
    assert so.parse_sequence("lambda").name == "lambda"
    seq = so.parse_sequence("powcut(alpha=0.5,N=1000)")
    assert seq.support_end == 1000
    assert so.parse_sequence("em(m=7)").values[6] == 1
    with pytest.raises(so.SequenceError):
        so.parse_sequence("nosuch")
    with pytest.raises(so.SequenceError):
        so.parse_sequence("power(alpha=0.5)")
    with pytest.raises(so.SequenceError):
        so.parse_sequence("em(q=2)")


def test_load_rational_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1/3\n-2/7\n# comment\n5\n0/9\n")
    seq = so.load_rational_file(path)
    # trailing zeros are only the implicit continuation and are normalized off
    assert seq.values == (Fraction(1, 3), Fraction(-2, 7), Fraction(5))
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n")
    with pytest.raises(so.SequenceError):
        so.load_rational_file(bad)  # float round-trips are refused


def test_trailing_zeros_trim_in_linear_time():
    # re-slicing a tuple once per trailing zero is quadratic: ~20 s at this size
    start = time.perf_counter()
    assert so.finite_sequence("tail", [1] + [0] * 10 ** 5).values == (Fraction(1),)
    assert time.perf_counter() - start < 5.0


def test_decay_spot_check_rejects_lies():
    with pytest.raises(so.SequenceError):
        so.SeqSpec(name="liar", gen=lambda k: 1.0 / k,
                   decay=so.TailClass("power", coeff=1.0, alpha=2.0, valid_from=3))


def test_generator_requires_decay():
    with pytest.raises(so.SequenceError):
        so.SeqSpec(name="bare", gen=lambda k: 0.0)


def test_build_report(lam):
    rep = so.build_report(lam)
    d = rep.to_dict()
    assert d["total_sum"]["exact"] == "1"
    assert d["log_weighted_sum"]["verdict"] == "converged"
    assert d["equivalence_ratio"] == pytest.approx(
        1.0 / (GAMMA + 1.2577468869443698), rel=1e-4)
