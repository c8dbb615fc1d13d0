"""Property tests over random add/scale/absolute trees of catalog members."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
                             origin_envs=(f.origin.envelope_reciprocal(),),
                             tail_envs=(f.tail.envelope(),),
                             breakpoints=f.breakpoints)
    exact = fs.total_integral_exact(f)
    assert res.verdict in ("converged", "not-converged")
    assert abs(res.value - exact) <= res.total_error, (f.name, res)
