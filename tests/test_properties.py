"""Property tests over random add/scale/absolute trees of catalog members."""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hardy import cont_ops
from hardy import funcspace as fs
from hardy.quad import integrate_halfline

_LEAVES = st.one_of(
    st.sampled_from(("theta", "f0", "fe")).map(lambda name: ("catalog", name, {})),
    st.builds(lambda a, T: ("catalog", "power_cutoff", {"alpha": a, "T": T}),
              st.floats(0.0, 0.95), st.floats(0.1, 10.0)),
    st.builds(lambda b: ("catalog", "power_tail", {"beta": b}), st.floats(1.01, 5.0)),
    st.builds(lambda b: ("catalog", "log_tail", {"beta": b}), st.floats(1.01, 5.0)),
    st.builds(lambda lo, w: ("catalog", "box", {"lo": lo, "hi": lo + w}),
              st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
)

_FACTORS = st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("add"), children, children),
        st.tuples(st.just("scale"), children, _FACTORS),
        st.tuples(st.just("abs"), children),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=4)


def _build(tree) -> fs.TestFunction:
    op = tree[0]
    if op == "catalog":
        return fs.catalog(tree[1], **tree[2])
    if op == "add":
        return fs.add(_build(tree[1]), _build(tree[2]))
    if op == "scale":
        return fs.scale(_build(tree[1]), tree[2])
    inner = _build(tree[1])
    # absolute is defined for functions whose pieces all carry a sign; a sum
    # of opposite signs has none, and stays as it is
    if all(p.sign is not None for p in inner.pieces):
        return fs.absolute(inner)
    return inner


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_TREES)
def test_algebra_trees_construct_and_integrate_exactly(tree):
    f = _build(tree)  # construction runs both decay spot-checks

    def density(v):  # f(e^v) e^v, signed
        la, s = f.log_eval(v)
        return s * math.exp(la + v)

    res = integrate_halfline(density,
                             origin_envs=(f.origin,),
                             tail_envs=(f.tail,),
                             breakpoints=f.breakpoints)
    exact = fs.total_integral_exact(f)
    assert res.verdict in ("converged", "not-converged")
    assert abs(res.value - exact) <= res.total_error, (f.name, res)


def _decades(start: float, n: int = 25) -> list[float]:
    """n log-spaced points over six decades from start.  Further out the
    exact cumulatives lose digits to cancellation."""
    return [start * 10.0 ** (6.0 * i / (n - 1)) for i in range(n)]


def _lower_value(env, x: float) -> float:
    return env.value(x) * env.lower / env.coeff


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_TREES)
def test_averaged_envelopes_bound_the_exact_cumulatives(tree):
    f = _build(tree)
    assume(all(p.sign is not None for p in f.pieces))
    cum = cont_ops._Cumulative(f, of_abs=True)  # T and F of |f|, exact per piece
    tail = f.tail.averaged()
    for t in _decades(tail.valid_from):
        T = cum.tail(t)
        assert T / t <= tail.value(t) * (1.0 + 1e-6), (f.name, t)
        if tail.lower is not None:
            assert T / (t + 1.0) >= _lower_value(tail, t) * (1.0 - 1e-6), (f.name, t)
    origin = f.origin.averaged()  # in u = 1/t
    for u in _decades(origin.valid_from):
        F = cum.value(1.0 / u)
        assert F / u <= origin.value(u) * (1.0 + 1e-6), (f.name, u)
        if origin.lower is not None:
            assert F / (1.0 + u) >= _lower_value(origin, u) * (1.0 - 1e-6), (f.name, u)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_TREES)
def test_tail_remainder_matches_closed_forms(tree):
    tail = _build(tree).tail
    if tail.is_compact:  # valid from its support end, and no bound inside it
        assert tail.remainder_past(tail.support_end / 2.0) == math.inf
    for x in _decades(tail.valid_from):
        if tail.is_compact:
            assert tail.remainder_past(x) == 0.0
            continue
        if tail.logpow == 0.0:
            expected = tail.coeff * x ** (1.0 - tail.power) / (tail.power - 1.0)
        else:
            beta = -tail.logpow
            expected = tail.coeff * math.log(x) ** (1.0 - beta) / (beta - 1.0)
        assert math.isclose(tail.remainder_past(x), expected, rel_tol=1e-12), (tail, x)
