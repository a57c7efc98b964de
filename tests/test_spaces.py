"""Bundled spaces: closed-form values, covariances, catalog keys."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfix
from gfix.rng import Stream


def test_perimeter_dim1_values():
    g = gfix.make_perimeter_space(1).space.g
    assert g((0.0,), (1.0,), (3.0,)) == 6.0


def test_perimeter_dim2_values():
    g = gfix.make_perimeter_space(2).space.g
    p = (2.0, -1.0)
    assert g(p, p, p) == 0.0
    assert g((0.0, 0.0), (3.0, 4.0), (3.0, 4.0)) == 10.0


def test_max_dim1_values():
    g = gfix.make_max_space(1).space.g
    assert g((0.0,), (1.0,), (3.0,)) == 3.0
    assert g((0.0,), (0.0,), (5.0,)) == 5.0
    assert g((2.0,), (2.0,), (2.0,)) == 0.0


def test_sign_example_values():
    g = gfix.make_sign_example_space().g
    assert g((1.0,), (2.0,), (3.0,)) == 4.0
    assert g((-1.0,), (-2.0,), (-3.0,)) == 4.0
    assert g((1.0,), (-1.0,), (2.0,)) == 7.0


def test_dim_zero_rejected():
    with pytest.raises(ValueError):
        gfix.make_perimeter_space(0)
    with pytest.raises(ValueError):
        gfix.make_max_space(0)


def test_pair_distance_identities():
    # G(x,y,y) = 2 d(x,y) for perimeter, d(x,y) for max
    x, y = (1.0, 2.0, 3.0), (4.0, 6.0, 3.0)
    d = math.dist(x, y)
    assert gfix.make_perimeter_space(3).space.g(x, y, y) == pytest.approx(2 * d)
    assert gfix.make_max_space(3).space.g(x, y, y) == pytest.approx(d)


def test_perimeter_dim1_closed_form():
    g = gfix.make_perimeter_space(1).space.g
    for triple in ((0.0, 1.0, 3.0), (-2.0, 5.0, 1.0), (4.0, 4.0, -4.0)):
        x, y, z = triple
        expect = 2.0 * (max(triple) - min(triple))
        assert g((x,), (y,), (z,)) == expect


coords3 = st.tuples(*[st.floats(min_value=-50, max_value=50, allow_nan=False)] * 3)


@settings(max_examples=50, deadline=None)
@given(coords3, coords3, coords3,
       st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_scaling_covariance(x, y, z, c):
    for make in (gfix.make_perimeter_space, gfix.make_max_space):
        g = make(3).space.g
        cx = tuple(c * v for v in x)
        cy = tuple(c * v for v in y)
        cz = tuple(c * v for v in z)
        lhs = g(cx, cy, cz)
        rhs = abs(c) * g(x, y, z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_get_space_keys():
    cs = gfix.get_space("perimeter-3")
    assert isinstance(cs, gfix.ConvexGSpace)
    assert cs.space.dim == 3
    cs = gfix.get_space("max-2")
    assert cs.space.name == "max-2"
    sign = gfix.get_space("sign-example")
    assert isinstance(sign, gfix.GSpace)


# int() takes each of the last eight: a sign, underscores, blanks,
# leading zeros and non-ASCII digits would alias a canonical key
@pytest.mark.parametrize("key", [
    "nosuch", "perimeter-x", "perimeter-0", "max-", "perimeter-+1",
    "perimeter-0_1", "max- 2", "perimeter-\u0663", "perimeter-03",
    "max-2 ", "perimeter-1_0", "max-\uff12"])
def test_get_space_rejects_bad_keys(key):
    with pytest.raises(gfix.UnknownSpaceError):
        gfix.get_space(key)


def test_sign_example_sampler_avoids_origin():
    sign = gfix.make_sign_example_space()
    pts = [sign.draw(Stream(1, i), sign.default_box, 0.05) for i in range(500)]
    assert all(abs(p[0]) >= 0.05 for p in pts)
