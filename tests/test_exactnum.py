"""Q(sqrt2) arithmetic against a plain (Fraction, Fraction) pair oracle, and
the value-object contract of Sqrt2Scalar, ExactAmplitude and the records
built on the same base (epiq.Record).  An ExactAmplitude has no arithmetic
of its own; the amplitude tests check the per-entry reference in
`exact_oracle`, and with it the amplitudes' construction, `complex()` and
canonical coordinates."""
import copy
import inspect
import pickle
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiq import Knowability
from epiq.context import (ContextNetwork, Distribution, Layer, propagate,
                          reduce_by_observation)
from epiq.exactnum import ONE, ZERO, ExactAmplitude, Sqrt2Scalar, _make, parse_exact
from epiq.scenario import Scenario, bundled_scenario_path, load_scenario_file
from exact_oracle import abs2, add, mul, neg, sub

ROOT2 = 2 ** 0.5

# Large numerators and denominators, plus small ones that share denominators
# and cancel to zero.
fractions = st.one_of(
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    st.builds(F, st.integers(-4, 4), st.integers(1, 4)),
)
pairs = st.tuples(fractions, fractions)
rationals = st.one_of(st.integers(-10**20, 10**20), fractions)


def scalar(pair):
    return Sqrt2Scalar(*pair)


def amplitude(re, im):
    return ExactAmplitude(scalar(re), scalar(im))


def coords(x):
    assert type(x) is Sqrt2Scalar
    return x.p, x.q


def o_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def o_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def o_mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def o_cmul(z, w):
    return o_sub(o_mul(z[0], w[0]), o_mul(z[1], w[1])), o_add(o_mul(z[0], w[1]), o_mul(z[1], w[0]))


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_scalar_arithmetic_matches_pair_oracle(x, y):
    a, b = scalar(x), scalar(y)
    assert coords(a + b) == o_add(x, y)
    assert coords(a - b) == o_sub(x, y)
    assert coords(a * b) == o_mul(x, y)
    assert coords(-a) == (-x[0], -x[1])
    assert coords(a - a) == (0, 0)


@given(pairs, rationals)
@settings(max_examples=300, deadline=None)
def test_mixed_int_and_fraction_operands(x, r):
    a, o = scalar(x), (F(r), F(0))
    assert coords(r + a) == coords(a + r) == o_add(x, o)
    assert coords(r * a) == coords(a * r) == o_mul(x, o)
    assert coords(a - r) == o_sub(x, o)
    assert Sqrt2Scalar.of(r) == Sqrt2Scalar(F(r))


@given(pairs, pairs, rationals, pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_reflected_subtraction(x, y, r, u, v):
    """k - x == -(x - k) for an int or Fraction k and for an exact k of x's
    type: a scalar's operators, and the oracle's sub and neg for amplitudes."""
    value = scalar(x)
    for k in (r, scalar(u)):
        got = k - value
        assert type(got) is Sqrt2Scalar
        assert got == -(value - k)
    value = amplitude(x, y)
    for k in (r, amplitude(u, v)):
        got = sub(k, value)
        assert type(got) is ExactAmplitude
        assert got == neg(sub(value, k))
    assert 1 - Sqrt2Scalar(1, 1) == Sqrt2Scalar(0, -1)
    assert sub(1, ExactAmplitude(ONE, ONE)) == ExactAmplitude(ZERO, -ONE)


_A, _S = parse_exact("1/sqrt2"), Sqrt2Scalar(1, 1)


@pytest.mark.parametrize("expression, mirror", [
    (lambda: 2 * _A, lambda: _A * 2),
    (lambda: _S + _A, lambda: _A + _S),
    (lambda: _S - _A, lambda: -(_A - _S)),
    (lambda: _S * _A, lambda: _A * _S),
], ids=["int*a", "s+a", "s-a", "s*a"])
def test_reflected_mixed_operands(expression, mirror):
    """An amplitude has no arithmetic: an int or scalar on either side of it
    is refused."""
    for operation in (expression, mirror):
        with pytest.raises(TypeError):
            operation()


@given(pairs, pairs, pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_amplitude_arithmetic_matches_pair_oracle(zr, zi, wr, wi):
    z, w = amplitude(zr, zi), amplitude(wr, wi)
    for got, want in ((add(z, w), (o_add(zr, wr), o_add(zi, wi))),
                      (sub(z, w), (o_sub(zr, wr), o_sub(zi, wi))),
                      (neg(z), ((-zr[0], -zr[1]), (-zi[0], -zi[1]))),
                      (mul(z, w), o_cmul((zr, zi), (wr, wi)))):
        assert type(got) is ExactAmplitude
        assert (coords(got.re), coords(got.im)) == want
    assert coords(abs2(z)) == o_add(o_mul(zr, zr), o_mul(zi, zi))
    assert add(0, z) == add(z, 0) == z


def o_float(x):
    return float(x[0]) + float(x[1]) * ROOT2


def bits(*values):
    return tuple(v.hex() for v in values)


@given(pairs, pairs, pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_amplitude_floats_match_pair_oracle(zr, zi, wr, wi):
    z, w = amplitude(zr, zi), amplitude(wr, wi)
    for got, (re, im) in ((add(z, w), (o_add(zr, wr), o_add(zi, wi))),
                          (sub(z, w), (o_sub(zr, wr), o_sub(zi, wi))),
                          (mul(z, w), o_cmul((zr, zi), (wr, wi)))):
        c = complex(got)
        assert bits(c.real, c.imag) == bits(float(got.re), float(got.im)) == \
            bits(o_float(re), o_float(im))
    assert bits(float(abs2(z))) == bits(o_float(o_add(o_mul(zr, zr), o_mul(zi, zi))))


@given(pairs, pairs, st.integers(1, 10**12))
@settings(max_examples=200, deadline=None)
def test_equal_amplitudes_by_different_routes_share_coordinates(x, y, k):
    z, w = amplitude(x, y), amplitude(y, x)
    routes = [
        add(ExactAmplitude.of(scalar(x)), ExactAmplitude(ZERO, scalar(y))),
        sub(add(z, w), w),
        add(mul(z, ExactAmplitude.of(ONE)), 0),
        mul(mul(z, k), ExactAmplitude.of(F(1, k))),
        mul(mul(z, ExactAmplitude(ZERO, ONE)), ExactAmplitude(ZERO, -ONE)),
        neg(neg(z)),
        ExactAmplitude(z.re, z.im),
        pickle.loads(pickle.dumps(z)),
    ]
    *numerators, d = z._k
    assert d > 0 and gcd(*numerators, d) == 1
    for route in routes:
        assert route._k == z._k
        assert hash(route) == hash(z)


@given(pairs, st.booleans())
@settings(max_examples=300, deadline=None)
def test_rationality_and_float_match_pair_oracle(x, rational):
    if rational:
        x = (x[0], F(0))
    a = scalar(x)
    assert a.is_rational() is (x[1] == 0)
    if x[1] == 0:
        assert a.as_fraction() == x[0]
        assert type(a.as_fraction()) is F
    else:
        with pytest.raises(ValueError, match="not rational"):
            a.as_fraction()
    assert float(a) == float(x[0]) + float(x[1]) * ROOT2


@given(pairs, pairs, st.integers(1, 10**12))
@settings(max_examples=300, deadline=None)
def test_equal_values_by_different_routes(x, y, k):
    a, b = scalar(x), scalar(y)
    routes = [
        a,
        Sqrt2Scalar.of(x[0]) + Sqrt2Scalar(0, x[1]),
        (a + b) - b,
        a * ONE + ZERO,
        (a * k) * Sqrt2Scalar(F(1, k)),
        -(-a),
        pickle.loads(pickle.dumps(a)),
    ]
    for route in routes:
        assert route == a
        assert hash(route) == hash(a)
        assert repr(route) == repr(a)
    z, w = amplitude(x, y), add(ExactAmplitude(scalar(x)), ExactAmplitude(ZERO, scalar(y)))
    assert z == w and hash(z) == hash(w)
    assert a * b == b * a and hash(a * b) == hash(b * a)


def test_equal_fractions_build_equal_scalars():
    assert Sqrt2Scalar(F(1, 2)) == Sqrt2Scalar(F(2, 4))
    assert hash(Sqrt2Scalar(F(1, 2))) == hash(Sqrt2Scalar(F(2, 4)))
    assert Sqrt2Scalar(F(0), F(1, 2)) == parse_exact("1/sqrt2").re
    assert Sqrt2Scalar(0) == ZERO and Sqrt2Scalar(1) == ONE == Sqrt2Scalar.of(1)


class TestValueObject:
    SCALAR = Sqrt2Scalar(F(1, 3), F(-2, 5))
    AMPLITUDE = ExactAmplitude(SCALAR, Sqrt2Scalar(7, F(1, 2)))

    @pytest.mark.parametrize("name", ["p", "q", "_k", "other"])
    def test_scalar_is_frozen(self, name):
        with pytest.raises(AttributeError):
            setattr(self.SCALAR, name, F(1))
        with pytest.raises(AttributeError):
            delattr(self.SCALAR, name)
        assert self.SCALAR == Sqrt2Scalar(F(1, 3), F(-2, 5))

    @pytest.mark.parametrize("name", ["re", "im", "_k", "other"])
    def test_amplitude_is_frozen(self, name):
        with pytest.raises(AttributeError):
            setattr(self.AMPLITUDE, name, ONE)
        with pytest.raises(AttributeError):
            delattr(self.AMPLITUDE, name)
        assert self.AMPLITUDE.re == self.SCALAR

    @pytest.mark.parametrize("roundtrip", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ])
    def test_pickle_and_copy_roundtrip(self, roundtrip):
        for value in (self.SCALAR, self.AMPLITUDE, ZERO, parse_exact("-3/7")):
            back = roundtrip(value)
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)

    def test_repr_is_unchanged(self):
        assert repr(self.AMPLITUDE) == \
            "ExactAmplitude(re=(1/3 + -2/5*sqrt2), im=(7 + 1/2*sqrt2))"
        assert repr(Sqrt2Scalar(F(-1, 2))) == "-1/2"
        assert repr(ZERO) == "0"
        assert repr(parse_exact("1/sqrt2")) == "ExactAmplitude(re=(0 + 1/2*sqrt2), im=0)"
        assert repr(Sqrt2Scalar(F(3, 4)).p) == "Fraction(3, 4)"

    def test_equality_is_same_type_only(self):
        assert (Sqrt2Scalar(F(1, 2)) == F(1, 2)) is False
        assert (F(1, 2) == Sqrt2Scalar(F(1, 2))) is False
        assert Sqrt2Scalar(F(1, 2)) != F(1, 2)
        assert (ONE == 1) is False
        assert (ExactAmplitude(ONE) == ONE) is False


H = parse_exact("1/sqrt2")
LAYERS = (Layer("path", Knowability.NEVER, (1, 2)), Layer("detector", 3, [1.0, 2]))
NETWORK = ContextNetwork(LAYERS, (H, H), [[(H, H), (H, neg(H))]])
SCENARIO = load_scenario_file(bundled_scenario_path("twin-eraser"))
RECORDS = {
    "layer": LAYERS[0],
    "network": NETWORK,
    # a start state is a network: one superposed at the path layer, and the one
    # left once a decided path is observed
    "superposed": ContextNetwork(LAYERS, (H, neg(H)), NETWORK.edges),
    "reduced": reduce_by_observation(
        ContextNetwork((Layer("path", 3, (1, 2)), LAYERS[1]), (H, H), NETWORK.edges), 0),
    "distribution": propagate(NETWORK),
    "scenario": SCENARIO,
}
# the records' constructor signatures: (name, default) per parameter
SIGNATURES = {
    Layer: [("property_id", None), ("level", None), ("labels", None)],
    ContextNetwork: [("layers", None), ("initial", None), ("edges", None)],
    Distribution: [("labels", None), ("probabilities", None), ("exact", None),
                   ("rules", ())],
    Scenario: [(name, None) for name in ("name", "description", "network", "eraser",
                                         "joint_volumes", "simultaneous", "uniqueness",
                                         "run")],
}


def fields(cls):
    return [name for name, _ in SIGNATURES[cls]]


def hash_or_error(value):
    """hash(value), or the TypeError's text for a record holding a dict."""
    try:
        return hash(value)
    except TypeError as e:
        return str(e)


class TestRecord:
    @pytest.mark.parametrize("roundtrip", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    @pytest.mark.parametrize("name", RECORDS)
    def test_pickle_and_copy_roundtrip(self, roundtrip, name):
        value = RECORDS[name]
        back = roundtrip(value)
        assert type(back) is type(value)
        assert back == value and hash_or_error(back) == hash_or_error(value)
        assert repr(back) == repr(value)

    def test_hash_follows_fields(self):
        assert hash(Layer("path", 1, (1, 2))) == hash(LAYERS[0])
        assert hash(NETWORK) == hash(ContextNetwork(LAYERS, (H, H), NETWORK.edges))
        assert hash_or_error(SCENARIO) == "unhashable type: 'dict'"

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_are_frozen(self, name):
        value = RECORDS[name]
        before = repr(value)
        for field in (*fields(type(value)), "other"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == before

    def test_repr_names_the_fields(self):
        assert repr(LAYERS[0]) == ("Layer(property_id='path', level=<Knowability.NEVER: 1>, "
                                   "labels=(1.0, 2.0))")
        assert repr(RECORDS["reduced"]) == (
            "ContextNetwork(layers=(Layer(property_id='detector', "
            "level=<Knowability.DECIDED: 3>, labels=(1.0, 2.0)),), "
            "initial=(ExactAmplitude(re=(0 + 1/2*sqrt2), im=0), "
            "ExactAmplitude(re=(0 + 1/2*sqrt2), im=0)), edges=())")

    def test_equality_is_same_type_only(self):
        class OtherLayer(Layer):
            __slots__ = ()

        other = OtherLayer("path", 1, (1, 2))
        assert [getattr(other, name) for name in fields(Layer)] == \
            [getattr(LAYERS[0], name) for name in fields(Layer)]
        assert other != LAYERS[0] and LAYERS[0] != other
        assert (LAYERS[0] == ("path", Knowability.NEVER, (1.0, 2.0))) is False
        k = (1, 0, 1, 0, 1)
        assert _make(Sqrt2Scalar, k) != _make(ExactAmplitude, k)

    @pytest.mark.parametrize("cls", SIGNATURES)
    def test_signature_and_defaults(self, cls):
        empty = inspect.Parameter.empty
        assert [(p.name, None if p.default is empty else p.default)
                for p in inspect.signature(cls).parameters.values()] == SIGNATURES[cls]
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                   for p in inspect.signature(cls).parameters.values())

    def test_positional_and_keyword_construction_agree(self):
        layer = LAYERS[0]
        assert Layer("path", 1, [1, 2]) == Layer(labels=(1.0, 2), level=1,
                                                 property_id="path") == layer
        assert type(layer.level) is Knowability and type(layer.labels[0]) is float
        assert ContextNetwork(list(LAYERS), [H, H], NETWORK.edges) == ContextNetwork(
            edges=[[[H, H], [H, neg(H)]]], initial=(H, H), layers=LAYERS) == NETWORK
        dist = Distribution((1.0, 2.0), (0.5, 0.5))
        assert dist.exact is None and dist.rules == ()
        assert dist == Distribution(probabilities=(0.5, 0.5), labels=(1.0, 2.0),
                                    exact=None, rules=())
        values = [getattr(SCENARIO, name) for name in fields(Scenario)]
        assert Scenario(*values) == Scenario(**dict(zip(fields(Scenario), values))) == SCENARIO


@pytest.mark.parametrize("value", [3, -7, F(3, 4), 0.75, Decimal("-0.75"), "3/4", " -1.5e-2 "])
def test_scalar_accepts_what_fraction_accepts(value):
    for x in (Sqrt2Scalar(value), Sqrt2Scalar(F(1, 3), value), Sqrt2Scalar(0, value)):
        assert type(x.p) is F and type(x.q) is F
    assert Sqrt2Scalar(value).p == F(value) and Sqrt2Scalar(value).q == 0
    assert Sqrt2Scalar(0, value).q == F(value)
    assert Sqrt2Scalar(value).as_fraction() == F(value)
    assert type(Sqrt2Scalar(value).as_fraction()) is F


@pytest.mark.parametrize("value", ["abc", "1/0", float("nan"), None])
def test_scalar_refuses_what_fraction_refuses(value):
    with pytest.raises(Exception) as expected:
        F(value)
    with pytest.raises(expected.type):
        Sqrt2Scalar(value)
    with pytest.raises(expected.type):
        Sqrt2Scalar(0, value)


@pytest.mark.parametrize("token", ["1/0", "-3/0/sqrt2", "1" * 5000, "1/2/3", "sqrt2", "١/٢",
                                   " 1/2"])
def test_unreadable_token_is_value_error(token):
    with pytest.raises(ValueError):
        parse_exact(token)
