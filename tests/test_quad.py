import math
import random

import pytest

from hardy import funcspace as fs
from hardy.envelopes import Envelope
from hardy import quad
from hardy.quad import (
    DEFAULT_CONFIG, EvaluationError, QuadConfig,
    integrate, integrate_halfline, probe_divergence,
)

E = math.e


def test_integrate_smooth():
    res = integrate(lambda t: 1.0 / (1.0 + t) ** 2, 0.001, 1000.0)
    exact = 1000.0 / 1001.0 - 0.001 / 1.001
    assert res.converged
    assert abs(res.value - exact) <= max(res.err_est, 1e-12)


def test_integrate_respects_breakpoints():
    f0 = fs.catalog("f0")
    res = integrate(f0.eval, 1.0, 2.0, breakpoints=f0.breakpoints)
    assert res.value == pytest.approx(math.log(2.0), rel=1e-12)
    # straddling the jump at 2 without declaring it still works, only slower
    res2 = integrate(f0.eval, 1.5, 2.5, breakpoints=f0.breakpoints)
    assert res2.value == pytest.approx(math.log(2.0 / 1.5), rel=1e-12)


def test_integrate_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda t: t, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda t: t, 1.0, math.inf)


def test_integrate_nan_is_an_error():
    with pytest.raises(EvaluationError):
        integrate(lambda t: math.nan, 1.0, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=bad)
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=bad)


def test_additivity():
    rng = random.Random(5)
    theta = fs.catalog("theta")
    for _ in range(25):
        a = rng.uniform(0.05, 5.0)
        b = a + rng.uniform(0.1, 10.0)
        c = b + rng.uniform(0.1, 10.0)
        whole = integrate(theta.eval, a, c)
        left = integrate(theta.eval, a, b)
        right = integrate(theta.eval, b, c)
        assert abs(whole.value - left.value - right.value) <= (
            whole.err_est + left.err_est + right.err_est + 1e-14)


def test_error_estimate_covers_truth():
    rng = random.Random(17)
    f0 = fs.catalog("f0")
    for _ in range(200):
        a = 10.0 ** rng.uniform(-2, 1.5)
        b = a + 10.0 ** rng.uniform(-2, 1.5)
        exact = fs.exact_antiderivative(f0, a, b)
        res = integrate(f0.eval, a, b, breakpoints=f0.breakpoints)
        assert abs(res.value - exact) <= res.err_est + 1e-13 * (1.0 + abs(exact))


def _fsum_panel(g, lo, hi):
    """The GK15 panel with every pair summed by math.fsum: the reference
    formulation that quad._panel must reproduce bit for bit."""
    xgk, wgk, wg = quad._XGK, quad._WGK, quad._WG
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = []
    for x in xgk:
        if x == 0.0:
            fv.append((g(c),))
        else:
            fv.append((g(c - h * x), g(c + h * x)))
    k15 = g7 = resabs = 0.0
    for i, vals in enumerate(fv):
        s = math.fsum(vals)
        if math.isnan(s):
            raise EvaluationError(f"integrand returned NaN in [{lo}, {hi}]")
        k15 += wgk[i] * s
        resabs += wgk[i] * math.fsum(abs(v) for v in vals)
        if i % 2 == 1 or i == 7:
            g7 += wg[i // 2] * s
    k15 *= h
    g7 *= h
    resabs *= h
    mean = k15 / (hi - lo)
    resasc = h * math.fsum(
        wgk[i] * math.fsum(abs(v - mean) for v in vals) for i, vals in enumerate(fv))
    diff = abs(k15 - g7)
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    err = max(err, 50.0 * quad._EPS * resabs)
    return k15, err, resabs


def _outcome(panel, g, lo, hi):
    calls = []

    def logged(x):
        calls.append(x)
        return g(x)

    try:
        out = tuple(v.hex() for v in panel(logged, lo, hi))  # NaN and -0.0 compare too
    except (ArithmeticError, ValueError, EvaluationError) as exc:
        out = type(exc)
    return out, calls


def _random_integrands(rng):
    a, k, jump, scale = rng.uniform(-3, 3), rng.uniform(1, 400), rng.uniform(-2, 2), \
        10.0 ** rng.uniform(-300, 300)
    return (
        lambda x: scale * math.exp(-a * x * x) / (1.0 + x * x),
        lambda x: scale * math.sin(k * x + a),
        lambda x: scale if x < jump else -0.5 * scale,
        lambda x: abs(x - jump) ** 0.3,
        lambda x: -0.0,
    )


def test_panel_matches_the_fsum_formulation_bit_for_bit():
    rng = random.Random(20261020)
    for _ in range(2100):
        lo = rng.uniform(-5.0, 5.0) if rng.random() < 0.8 else rng.uniform(-1e6, 1e6)
        hi = lo + 10.0 ** rng.uniform(-12, 1)
        for g in _random_integrands(rng):
            assert _outcome(quad._panel, g, lo, hi) == _outcome(_fsum_panel, g, lo, hi)


@pytest.mark.parametrize("g, raised", [
    (lambda x: math.nan if x > 0.7 else 1.0, EvaluationError),
    (lambda x: math.nan if x == 0.5 else 1.0, EvaluationError),  # the centre
    (lambda x: math.inf if x < 0.5 else -math.inf, ValueError),
    (lambda x: 1e308, OverflowError),
    # finite pair sums, but one spread |a - mean| + |b - mean| overflows
    (lambda x: 8.5e307 if abs(x - 0.5) > 0.49 else (-1.7e308 if x == 0.5 else 0.0),
     OverflowError),
    (lambda x: math.inf, None),
    (lambda x: 1e308 if x < 0.5 else -1e308, None),
])
def test_panel_fails_as_the_fsum_formulation_does(g, raised):
    new, ref = _outcome(quad._panel, g, 0.0, 1.0), _outcome(_fsum_panel, g, 0.0, 1.0)
    assert new == ref
    if raised is not None:
        assert new[0] is raised


def _abs_density(f):
    # |f(e^v)| e^v, the density of int |f| dt in v = ln t
    return lambda v: math.exp(f.log_eval(v)[0] + v)


def test_halfline_theta():
    theta = fs.catalog("theta")
    res = integrate_halfline(
        _abs_density(theta),
        origin_envs=(theta.origin,),
        tail_envs=(theta.tail,))
    assert res.verdict == "converged"
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.total_error <= 1e-9


def test_halfline_weighted_theta():
    # int theta(t) ln(1+t) dt = 1 after the shift to t >= 1
    theta = fs.catalog("theta")

    def density(v):
        t = math.exp(v)
        return theta.eval(t) * math.log1p(t) * t

    env_t = theta.tail.weighted_log()
    env_o = theta.origin
    res = integrate_halfline(density, origin_envs=(env_o,), tail_envs=(env_t,))
    assert res.verdict == "converged"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_halfline_requires_envelopes():
    with pytest.raises(ValueError):
        integrate_halfline(lambda t: t)


def test_halfline_divergent_by_certificate():
    # |running average of fe| = 1/(t ln t) beyond e: certified divergent
    env = Envelope(1.0, 1.0, -1.0, valid_from=E, lower=1.0)
    res = integrate_halfline(
        lambda v: 1.0 / v if v > 1.0 else 0.0,
        origin_envs=(Envelope.compact(E),),
        tail_envs=(env,))
    assert res.verdict == "divergent"
    assert res.divergent_side == "tail"


def test_halfline_rejects_false_divergence_certificate():
    # claiming a harmonic lower bound for a convergent integrand must fail
    env = Envelope(1.0, 1.0, 0.0, valid_from=E, lower=0.9)
    with pytest.raises(ValueError):
        integrate_halfline(
            lambda v: math.exp(-2.0 * v),  # t**-3
            origin_envs=(Envelope.compact(E),),
            tail_envs=(env,))


def test_halfline_without_certificate_is_inconclusive():
    # no usable upper envelope and no certificate: the integrand is 1/t
    # beyond e and does diverge, but only a lower envelope may say so
    env = Envelope(2.0, 1.0, 0.0, valid_from=E)  # not integrable, no lower
    res = integrate_halfline(
        lambda v: 1.0 if v > 1.0 else 0.0,  # 1/t beyond e
        origin_envs=(Envelope.compact(E),),
        tail_envs=(env,))
    assert res.verdict == "inconclusive"
    assert res.divergent_side == "tail"


def _record_walks(monkeypatch) -> list:
    """The [a, b] of every adaptive walk from here on."""
    walks = []
    core = quad._integrate_core

    def recording(g, a, b, **kw):
        walks.append((a, b))
        return core(g, a, b, **kw)

    monkeypatch.setattr(quad, "_integrate_core", recording)
    return walks


@pytest.mark.parametrize("x_tail,tail_value", [(2.0, 1.0 / 3.0), (8.0, 1.0 / 9.0)])
def test_closed_ends_end_the_middle_or_are_walked_up_to(monkeypatch, x_tail, tail_value):
    # int_0^inf (1+t)**-2 dt = 1: the origin closed before t = 1/2 and the tail
    # past x_tail, as 1/3 and 1/(1+x_tail).  A cut inside the middle ends the
    # middle there; one past ln B0 = 0 is walked from 0 up to it
    walks = _record_walks(monkeypatch)
    env = Envelope(1.0, 2.0)
    res = integrate_halfline(lambda v: math.exp(v) / (1.0 + math.exp(v)) ** 2,
                             origin_envs=(env,), tail_envs=(env,),
                             breakpoints=(0.5, 2.0),
                             closed_origin=(-math.log(0.5), 1.0 / 3.0, 0.0, 0.0),
                             closed_tail=(math.log(x_tail), tail_value, 0.0, 0.0))
    assert res.verdict == "converged" and res.tail_bound == 0.0
    assert abs(res.value - 1.0) <= res.total_error
    assert min(a for a, _ in walks) == math.log(0.5)
    assert max(b for _, b in walks) == math.log(x_tail)


def test_a_value_past_the_float_range_is_never_converged():
    # one middle panel of width 8 sums past the float range: the value and its
    # error are inf, which the tolerance inf * rel_tol used to let through
    env = Envelope(1.0, 2.0)
    res = integrate_halfline(lambda v: 8e307 if abs(v) <= 4.0 else 0.0,
                             origin_envs=(env,), tail_envs=(env,),
                             breakpoints=(math.exp(-4.0), math.exp(4.0)))
    assert res.value == math.inf and res.verdict == "not-converged"


def test_substitution_consistency():
    # int_0^inf g(t) dt = int_0^inf g(1/u)/u^2 du with sides exchanged; in
    # v = ln u the density of the mirrored integrand is the density of g at -v
    beta = 3.0
    g = fs.catalog("power_tail", beta=beta)
    density = _abs_density(g)
    direct = integrate_halfline(
        density,
        origin_envs=(g.origin,),
        tail_envs=(g.tail,))

    res = integrate_halfline(
        lambda v: density(-v),
        origin_envs=(Envelope(1.0, 2.0, 0.0),),       # u(1+u)^-3 <= u^-2 near 0
        tail_envs=(Envelope(1.0, 2.0, 0.0),))         # and <= u^-2 at infinity
    assert direct.verdict == res.verdict == "converged"
    assert abs(direct.value - res.value) <= 10.0 * (
        direct.total_error + res.total_error)


def test_probe_harmonic_tail():
    res = probe_divergence(lambda x: 1.0 / (1.0 + x), 1.0)
    assert res.verdict == "divergent-log"
    assert res.last_increment == pytest.approx(math.log(2.0), rel=1e-4)


def test_probe_convergent_tail():
    theta = fs.catalog("theta")
    assert probe_divergence(theta.eval, 1.0).verdict == "convergent"
    # every late increment below the floor
    assert probe_divergence(lambda x: 0.0, 1.0).verdict == "convergent"


def test_probe_f0_increment():
    # |running average of f0| has harmonic tail with increment ln(3/2) ln 2
    f0 = fs.catalog("f0")

    def qf0_abs(x: float) -> float:
        return abs(fs.exact_antiderivative(f0, 0.0, x)) / x

    res = probe_divergence(qf0_abs, 4.0, breakpoints=f0.breakpoints)
    assert res.verdict == "divergent-log"
    assert res.last_increment == pytest.approx(
        math.log(1.5) * math.log(2.0), rel=1e-3)


def test_probe_partials_monotone_for_nonnegative():
    res = probe_divergence(lambda x: 1.0 / (1.0 + x) ** 1.5, 1.0)
    partials = res.partials
    assert all(b >= a for a, b in zip(partials, partials[1:]))


def test_probe_inconclusive_between_rates():
    # increments grow geometrically (integrand ~ x^-0.5): neither harmonic
    # nor summable; the three-way rule must not overclaim
    res = probe_divergence(lambda x: x ** -0.5, 1.0)
    assert res.verdict == "inconclusive"
    # an integrand that is not eventually nonnegative is not classified
    res = probe_divergence(lambda x: -1.0 / x, 1.0)
    assert res.verdict == "inconclusive"
    assert res.last_increment == pytest.approx(-math.log(2.0), rel=1e-9)


def test_quadresult_converged_invariant():
    # converged implies err_est + tail_bound <= SAFETY * tolerance
    from hardy.quad import SAFETY
    theta = fs.catalog("theta")
    res = integrate_halfline(
        _abs_density(theta),
        origin_envs=(theta.origin,),
        tail_envs=(theta.tail,))
    tol = max(DEFAULT_CONFIG.rel_tol * abs(res.value), DEFAULT_CONFIG.abs_tol)
    assert res.verdict == "converged"
    assert res.total_error <= SAFETY * tol


@pytest.mark.parametrize("g,cuts", [
    (lambda v: math.inf if v > 0.5 else 1.0, ()),
    (lambda v: math.inf, ()),
    (lambda v: -math.inf if v > 0.5 else 1.0, (0.25, 0.75)),
])
def test_a_walk_with_a_total_that_is_not_finite_stops_at_once(g, cuts):
    res = quad._integrate_core(g, 0.0, 1.0, breakpoints=cuts)
    assert res.subdivisions == len(cuts) + 1  # the seed panels, none bisected
    assert math.isinf(res.value) and not res.converged


@pytest.mark.parametrize("g,a,b,exact,converged", [
    # bisection reaches depth 60 at the singular point v = 0, a panel edge
    pytest.param(lambda v: abs(v) ** -0.5 if v else 0.0, -1.0, 1.0, 4.0, True, id="depth"),
    # 1/3 is no float, so the panels around it shrink to 4 eps wide first
    pytest.param(lambda v: abs(v - 1 / 3) ** -0.5 if v != 1 / 3 else 0.0, 0.0, 1.0,
                 2.0 * (math.sqrt(1 / 3) + math.sqrt(2 / 3)), False, id="width"),
])
def test_a_walk_ends_at_its_first_worst_panel_that_cannot_be_split(g, a, b, exact, converged):
    res = quad._integrate_core(g, a, b)
    assert res.converged is converged
    assert abs(res.value - exact) <= res.err_est
    assert res.subdivisions < QuadConfig.max_panels // 20  # not run to the budget
