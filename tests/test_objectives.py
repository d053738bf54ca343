import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psdalloc.objectives import (
    NotPSD,
    PARAMS,
    RangeError,
    TraceObjective,
    h_conj,
    h_conj_prime,
    h_eval,
    h_inverse,
    h_prime,
    h_prime_drop,
    make_objective,
    param,
)
from reference import (grad_trace_lift, h_conj_prime_by_kind, h_prime_by_kind,
                       h_prime_drop_by_kind, trace_lift)

ALL = [
    make_objective("linear"),
    make_objective("dopt"),
    make_objective("aopt"),
    TraceObjective("pmean", 0.5),
    TraceObjective("pmean", 2.0),
]
SMOOTH = ALL[1:]

us = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)
objs = st.sampled_from(ALL)
smooth_objs = st.sampled_from(SMOOTH)

# frozen oracle values: grid search + bounded scalar minimization of
# y*u - h(u) over u >= 0 (2e6 grid points on [0, 2000], then local refine)
CONJ_ORACLE = [
    ("dopt", 1.0, 1.0, 0.0),
    ("dopt", 1.0, 0.5, -0.1931471805599453),
    ("dopt", 1.0, 0.2, -0.8094379124341003),
    ("aopt", 1.0, 0.25, -0.25),
    ("aopt", 1.0, 0.09, -0.49),
    ("pmean", 2.0, 1.0, -0.11011842515769027),
    ("pmean", 2.0, 0.5, -0.3094492110238504),
]


def test_make_objective_parsing():
    assert make_objective("pmean2.0") == TraceObjective("pmean", 2.0)
    assert make_objective("pmean0.5").p == 0.5
    assert make_objective("DOPT").kind == "dopt"
    assert make_objective("linear").label == "linear"
    assert make_objective("pmean2").label == "pmean2"
    with pytest.raises(ValueError):
        make_objective("quadratic")
    with pytest.raises(ValueError):
        make_objective("pmean-1")


def test_h_closed_forms():
    assert h_eval(make_objective("dopt"), 0.0) == 0.0
    assert h_eval(make_objective("dopt"), np.e - 1.0) == pytest.approx(1.0, abs=1e-14)
    assert h_eval(make_objective("aopt"), 1.0) == pytest.approx(0.5, abs=1e-14)
    assert h_eval(make_objective("linear"), 3.5) == 3.5
    assert h_eval(make_objective("pmean2"), 1.0) == pytest.approx(0.75, abs=1e-14)


def test_h_prime0_values():
    assert [o.h_prime0 for o in ALL] == [1.0, 1.0, 1.0, 0.5, 2.0]


def test_aopt_is_pmean_at_p_one():
    aopt, pm1 = make_objective("aopt"), make_objective("pmean1")
    u = np.array([0.0, 1e-8, 0.3, 1.0, 7.0, 1e4])
    v = np.array([0.0, 1e-9, 0.25, 0.5, 0.9, 0.999])
    y = np.array([1e-12, 0.01, 0.25, 0.5, 0.999999, 1.0])
    # the closed forms of the shifted inverse-trace criterion 1 - 1/(1+u)
    closed = [(h_eval, u, u / (1.0 + u)), (h_prime, u, (1.0 + u) ** -2.0),
              (h_inverse, v, v / (1.0 - v)), (h_conj, y, -(1.0 - np.sqrt(y)) ** 2),
              (h_conj_prime, y, y ** -0.5 - 1.0)]
    for fn, x, expected in closed:
        np.testing.assert_allclose(fn(aopt, x), fn(pm1, x), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(fn(aopt, x), expected, rtol=1e-14, atol=1e-14)
    assert h_conj(aopt, 0.0) == h_conj(pm1, 0.0) == -1.0
    assert aopt.label == "aopt" and aopt.sup_h == 1.0
    with pytest.raises(ValueError, match="p = 3"):
        TraceObjective("aopt", 3.0)


@pytest.mark.parametrize("p,label", [(2.0, "pmean2"), (0.5, "pmean0.5"), (1e-7, "pmean1e-07"),
                                     (0.1234567, "pmean0.1234567"),
                                     (123456789.0, "pmean123456789.0"), (0.1 + 0.2, None)])
def test_a_label_names_its_objective(p, label):
    # %g keeps six digits; past them the label is p's repr, which reads back to p
    obj = TraceObjective("pmean", p)
    assert label is None or obj.label == label
    assert make_objective(obj.label) == obj


@pytest.mark.parametrize("label", ["pmean", "pmeanx", "foo", "pmean0", "pmean-1", "pmeaninf",
                                   "pmeannan", "aopt3"])
def test_make_objective_refuses_a_label_naming_objective(label):
    with pytest.raises(ValueError, match="^--objective %r " % label):
        make_objective(label)


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_param_takes_each_end_of_its_range_and_refuses_past_it_by_flag(key):
    p = PARAMS[key]
    lo, hi = p.span
    ends = [lo] + ([hi] if hi != math.inf else []) + ([p.default] if p.default is not None else [])
    assert [param(key, v) for v in ends] == ends
    # a value just past an end, of the wrong JSON type, or read from a JSON bool or string
    past = [] if p.cast is str else [lo - 1 if type(lo) is int else math.nextafter(lo, -math.inf),
                                     hi + 1 if type(hi) is int else math.nextafter(hi, math.inf)]
    for value in past + [None, [lo], True, str(lo) if p.cast is not str else lo.upper()]:
        with pytest.raises(ValueError, match="^%s must be " % p.flag):
            param(key, value)


def test_param_casts_a_whole_number_without_loss():
    assert param("q", 40.0) == 40 and type(param("q", 40.0)) is int
    assert param("seed", 10 ** 308) == 10 ** 308        # no upper end
    with pytest.raises(ValueError, match="^--q "):
        param("q", 40.5)


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt"])
def test_every_kind_but_pmean_has_p_one(kind):
    assert TraceObjective(kind, 1).h_prime0 == 1.0
    with pytest.raises(ValueError, match="got p = 3"):
        TraceObjective(kind, 3.0)


@pytest.mark.parametrize("obj", ALL, ids=lambda o: o.label)
def test_h_prime_log_form(obj):
    # h'(u) = h'(0) exp(-h_prime_drop(u)), the form the budget kernel uses
    pos = np.concatenate([[0.0], np.geomspace(1e-12, 1e12, 300)])
    np.testing.assert_allclose(obj.h_prime0 * np.exp(-h_prime_drop(obj, pos)),
                               h_prime(obj, pos), rtol=1e-13, atol=0.0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@given(obj=objs, u=st.lists(st.floats(min_value=-1.0, max_value=1e300), min_size=1,
                            max_size=8))
def test_h_prime_is_the_per_kind_form_bit_for_bit(obj, u):
    # h'(0) (1 + u)^(-k) is 1/(1 + u) at k = 1 and 1 at k = 0 on arrays, where numpy's
    # power takes its exact paths at exponents -1 and 0
    u = np.array(u)
    assert _bits(h_prime(obj, u)) == _bits(h_prime_by_kind(obj, u))
    for v in u.tolist():
        new, old = h_prime(obj, v), h_prime_by_kind(obj, v)
        if obj.kind == "dopt":
            # a float's power is the C library's pow, within an ulp of 1/(1 + u)
            assert new == old or abs(new - old) <= np.spacing(old)
        else:
            assert _bits(new) == _bits(old)


@given(obj=objs, u=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1,
                            max_size=8))
def test_h_prime_drop_is_the_per_kind_form_bit_for_bit(obj, u):
    u = np.array(u)
    assert _bits(h_prime_drop(obj, u)) == _bits(np.broadcast_to(h_prime_drop_by_kind(obj, u),
                                                                 u.shape))
    for v in u.tolist():
        assert _bits(h_prime_drop(obj, v)) == _bits(h_prime_drop_by_kind(obj, v))


@given(obj=smooth_objs, t=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                                   max_size=8))
def test_h_conj_prime_is_the_per_kind_form_bit_for_bit(obj, t):
    # y spans [1e-12, h'(0)], log-uniform
    y = obj.h_prime0 * 1e-12 ** np.array(t)
    assert _bits(h_conj_prime(obj, y)) == _bits(h_conj_prime_by_kind(obj, y))
    for v in y.tolist():
        assert _bits(h_conj_prime(obj, v)) == _bits(h_conj_prime_by_kind(obj, v))


@given(obj=objs, u=us)
def test_h_nonnegative_and_monotone(obj, u):
    assert h_eval(obj, u) >= 0.0
    assert h_eval(obj, u + 0.5) >= h_eval(obj, u)


@given(obj=objs, u=us)
def test_h_prime_nonincreasing_and_concavity(obj, u):
    assert h_prime(obj, u) >= 0.0
    assert h_prime(obj, u + 0.5) <= h_prime(obj, u) + 1e-15
    # chord below tangent at u
    chord = h_eval(obj, u + 1.0) - h_eval(obj, u)
    assert chord <= h_prime(obj, u) * 1.0 + 1e-12


@given(obj=objs, u=st.floats(min_value=-10.0, max_value=-1e-6))
def test_linear_extension_below_zero(obj, u):
    assert h_eval(obj, u) == pytest.approx(obj.h_prime0 * u, rel=1e-12, abs=0.0)
    assert h_prime(obj, u) == obj.h_prime0


@given(obj=objs, u=st.floats(min_value=0.0, max_value=50.0))
def test_h_inverse_round_trip(obj, u):
    v = h_eval(obj, u)
    assert h_inverse(obj, v) == pytest.approx(u, rel=1e-9, abs=1e-9)


def test_h_inverse_range_error():
    with pytest.raises(RangeError):
        h_inverse(make_objective("aopt"), 1.0)
    with pytest.raises(RangeError):
        h_inverse(make_objective("dopt"), -0.1)


@pytest.mark.parametrize("kind,p,y,expected", CONJ_ORACLE)
def test_h_conj_frozen_oracle(kind, p, y, expected):
    assert h_conj(TraceObjective(kind, p), y) == pytest.approx(expected, abs=1e-12)


def test_h_conj_piecewise_boundaries():
    lin = make_objective("linear")
    assert h_conj(lin, 1.0) == 0.0
    assert h_conj(lin, 0.999) == -np.inf
    assert h_conj(lin, 1.001) == -np.inf
    dopt = make_objective("dopt")
    assert h_conj(dopt, 2.0) == 0.0
    assert h_conj(dopt, 0.0) == -np.inf
    assert h_conj(dopt, -1.0) == -np.inf
    aopt = make_objective("aopt")
    assert h_conj(aopt, 0.0) == -1.0
    assert h_conj(aopt, 1.5) == 0.0
    assert h_conj(aopt, -0.01) == -np.inf
    pm = make_objective("pmean2")
    assert h_conj(pm, 0.0) == -1.0
    assert h_conj(pm, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert h_conj(pm, 2.5) == 0.0


@given(obj=objs, mixed=st.booleans(), data=st.data())
def test_array_h_conj_is_the_scalar_h_conj_bit_for_bit(obj, mixed, data):
    # arrays entirely in the domain and arrays mixed with points below and above it:
    # every entry must come out with the bits the scalar gives it
    p = obj.h_prime0
    inside = st.floats(0.0, p, exclude_min=obj.kind == "dopt")
    outside = st.one_of(st.floats(-4.0 * p, 0.0), st.floats(p, 4.0 * p, exclude_min=True),
                        st.sampled_from([0.0, -0.0, np.nextafter(p, np.inf)]))
    ys = data.draw(st.lists(st.one_of(inside, outside) if mixed else inside,
                            min_size=1, max_size=12))
    out = h_conj(obj, np.array(ys))
    assert out.dtype == np.float64 and out.shape == (len(ys),)
    for y, v in zip(ys, out):
        assert np.float64(h_conj(obj, y)).tobytes() == v.tobytes(), y


@given(obj=smooth_objs, y=st.floats(min_value=1e-3, max_value=3.0), u=us)
def test_fenchel_inequality(obj, y, u):
    # h*(y) <= y*u - h(u) for all u >= 0 whenever h* is finite
    val = h_conj(obj, y)
    if np.isfinite(val):
        assert val <= y * u - h_eval(obj, u) + 1e-10


@given(obj=smooth_objs, y=st.floats(min_value=1e-3, max_value=3.0))
def test_h_conj_prime_attains_infimum(obj, y):
    ustar = h_conj_prime(obj, y)
    assert ustar >= 0.0
    val = h_conj(obj, y)
    attained = y * ustar - h_eval(obj, ustar)
    assert attained == pytest.approx(val, rel=1e-9, abs=1e-9)


@given(obj=smooth_objs, y=st.floats(min_value=1e-3, max_value=0.99))
def test_h_conj_prime_inverts_slope(obj, y):
    y = y * obj.h_prime0
    ustar = h_conj_prime(obj, y)
    if ustar > 0.0:
        assert h_prime(obj, ustar) == pytest.approx(y, rel=1e-9, abs=0.0)


def test_h_conj_prime_errors():
    with pytest.raises(ValueError):
        h_conj_prime(make_objective("linear"), 1.0)
    with pytest.raises(RangeError):
        h_conj_prime(make_objective("dopt"), 0.0)


def test_vectorized_consistency():
    u = np.linspace(0.0, 20.0, 97)
    for obj in ALL:
        vec = h_eval(obj, u)
        assert np.allclose(vec, [h_eval(obj, x) for x in u], atol=1e-14)
        vecp = h_prime(obj, u)
        assert np.allclose(vecp, [h_prime(obj, x) for x in u], atol=1e-14)


def test_trace_lift_identity_cases():
    obj = make_objective("dopt")
    assert trace_lift(obj, np.eye(3)) == pytest.approx(3.0 * np.log(2.0), abs=1e-12)
    assert trace_lift(obj, np.zeros((2, 2))) == 0.0


def test_trace_lift_aopt_inverse_trace_oracle(rng):
    # independent oracle: 3 - trace((I+M)^-1) via a linear solve
    B = rng.standard_normal((3, 3))
    M = B @ B.T
    expected = 3.0 - np.trace(np.linalg.solve(np.eye(3) + M, np.eye(3)))
    assert trace_lift(make_objective("aopt"), M) == pytest.approx(expected, abs=1e-9)


def test_trace_lift_rejects_indefinite():
    with pytest.raises(NotPSD):
        trace_lift(make_objective("dopt"), np.diag([1.0, -1.0]))


def test_grad_trace_lift_finite_difference(rng):
    # central finite differences of H along random symmetric directions
    obj = make_objective("dopt")
    B = rng.standard_normal((4, 4))
    M = B @ B.T + 0.5 * np.eye(4)
    G = grad_trace_lift(obj, M)
    eps = 1e-6
    for _ in range(5):
        D = rng.standard_normal((4, 4))
        D = 0.5 * (D + D.T)
        fd = (trace_lift(obj, M + eps * D) - trace_lift(obj, M - eps * D)) / (2.0 * eps)
        assert fd == pytest.approx(float(np.sum(G * D)), rel=1e-5, abs=1e-7)


def test_grad_trace_lift_at_zero_is_slope_times_identity():
    for obj in SMOOTH:
        G = grad_trace_lift(obj, np.zeros((3, 3)))
        assert np.allclose(G, obj.h_prime0 * np.eye(3), atol=1e-12)
