"""Property tests over generated parameters.

Each law that declares a survival function and a tail index k has E X^r in
closed form, finite exactly for r < k; ``moment_alpha`` must reproduce it
without an IntegrationWarning (to 1e-12 relative for the Pareto and Kendall
pair laws, 1e-10 for the Kendall-type pair law and 1e-9 within 0.1% of its
edge), and must return inf from r = k on.

On generated ``table`` claim and premium laws, atoms included, the max-model
solver returns a survival function of the capital: in [0, 1], nondecreasing,
solving its one-step equation to 1e-9, without an IntegrationWarning.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.integrate import IntegrationWarning

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import ruin as ru

#: few examples, fixed draws: the whole module runs in about a second
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

#: a fraction of the way to the tail-index edge, up to 99%
below_edge = st.floats(0.001, 0.99)
tail_param = st.floats(0.05, 5.0)
point = st.floats(1e-3, 1e3)


def exact_moment(d, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return me.moment_alpha(d, r)


def pareto_moment(a, r):
    return 2.0 * a / (2.0 * a - r)


def pair_moment(g, x, y, r):
    """E X^r of delta_x <> delta_y in the Kendall algebra of order g, r < 2g."""
    big, small = max(x, y), min(x, y)
    w = (small / big) ** g
    return big**r * (1.0 - w + w * pareto_moment(g, r))


@PROPERTY
@given(a=tail_param, frac=below_edge)
def test_pareto_moment_below_the_edge(a, frac):
    r = frac * 2.0 * a
    assert exact_moment(me.pareto_2alpha(a), r) == pytest.approx(pareto_moment(a, r), rel=1e-12)


@PROPERTY
@given(a=tail_param, over=st.floats(1.0, 4.0))
def test_pareto_moment_at_and_past_the_edge(a, over):
    d = me.pareto_2alpha(a)
    assert me.moment_alpha(d, 2.0 * a) == math.inf
    assert me.moment_alpha(d, over * 2.0 * a) == math.inf


@PROPERTY
@given(g=st.floats(0.1, 4.0), x=point, y=point)
def test_kendall_pair_moment_is_alpha_additive(g, x, y):
    d = co.convolve_points(co.kendall(g), x, y)
    assert d.tail_index == 2.0 * g
    assert exact_moment(d, g) == pytest.approx(x**g + y**g, rel=1e-12)
    assert me.moment_alpha(d, 2.0 * g) == math.inf


@PROPERTY
@given(a=tail_param, b=st.floats(0.2, 4.0), s=st.floats(0.01, 100.0), frac=below_edge)
def test_power_transform_and_dilate_compose_the_tail(a, b, s, frac):
    k = 2.0 * a
    powered = me.power_transform(me.pareto_2alpha(a), b)
    dilated = co.dilate(me.pareto_2alpha(a), s)
    assert powered.tail_index == k / b
    assert dilated.tail_index == k
    # E (X^b)^r = E X^(rb) and E (sX)^r = s^r E X^r
    r = frac * k / b
    assert exact_moment(powered, r) == pytest.approx(pareto_moment(a, r * b), rel=1e-12)
    r = frac * k
    assert exact_moment(dilated, r) == pytest.approx(s**r * pareto_moment(a, r), rel=1e-12)
    assert me.moment_alpha(powered, k / b) == math.inf


@PROPERTY
@given(g=st.floats(0.1, 3.0), x=point, y=point, s=st.floats(0.01, 100.0),
       b=st.floats(0.2, 4.0), frac=below_edge)
def test_power_of_a_dilated_pair_law(g, x, y, s, b, frac):
    d = me.power_transform(co.dilate(co.convolve_points(co.kendall(g), x, y), s), b)
    r = frac * 2.0 * g / b
    want = s ** (r * b) * pair_moment(g, x, y, r * b)
    assert exact_moment(d, r) == pytest.approx(want, rel=1e-12)


def kendall_type_terms(p):
    """The (a_j, k_j) of the mixing laws' survival functions sum_j a_j x^(-k_j) on [1, oo)."""
    d = (p - 1.0) ** 2
    l1 = [(p * (p - 2.0) / d, 2.0), (2.0 * p / d, p + 1.0), (-(2.0 * p - 1.0) / d, 2.0 * p)]
    l2 = [((p - 2.0) / (p - 1.0), 2.0), (1.0 / (p - 1.0), p + 1.0)]
    return l1, l2


def kendall_type_pair_moment(p, x, y, r):
    """E X^r of delta_x <> delta_y in the Kendall-type algebra: M^r [phi + w1 m1(r) + w2 m2(r)]
    with m_i(r) = 1 + sum_j a_j r / (k_j - r), the terms a_j = 0 left out."""
    big, small = max(x, y), min(x, y)
    q, c = small / big, 1.0 / (p - 1.0)
    w1 = q**p
    phi, w2 = 1.0 - (c + 1.0) * q + c * w1, (c + 1.0) * (q - w1)
    m1, m2 = (1.0 + sum(a * r / (k - r) for a, k in terms if a != 0.0)
              for terms in kendall_type_terms(p))
    return big**r * (phi + w1 * m1 + w2 * m2)


def kendall_type_index(p):
    return 2.0 if p > 2.0 else 3.0


kendall_type_p = st.one_of(st.just(2.0), st.floats(2.0, 100.0))


@PROPERTY
@given(p=kendall_type_p, x=point, y=point, frac=st.floats(0.001, 1.0))
def test_kendall_type_pair_moment_below_the_edge(p, x, y, frac):
    d = co.convolve_points(co.kendall_type(p), x, y)
    k = kendall_type_index(p)
    assert d.tail_index == k
    r = frac * (k - 0.1)
    assert exact_moment(d, r) == pytest.approx(kendall_type_pair_moment(p, x, y, r), rel=1e-10)


@PROPERTY
@given(p=kendall_type_p, x=point, y=point, gap=st.floats(1e-6, 1e-3))
def test_kendall_type_pair_moment_near_the_edge(p, x, y, gap):
    r = kendall_type_index(p) * (1.0 - gap)
    d = co.convolve_points(co.kendall_type(p), x, y)
    assert exact_moment(d, r) == pytest.approx(kendall_type_pair_moment(p, x, y, r), rel=1e-9)


@PROPERTY
@given(p=st.one_of(st.just(2.0), st.floats(2.0, 1000.0)), x=point, y=point)
def test_kendall_type_pair_mean_is_additive(p, x, y):
    d = co.convolve_points(co.kendall_type(p), x, y)
    assert exact_moment(d, 1.0) == pytest.approx(x + y, rel=1e-12)


@PROPERTY
@given(p=st.floats(2.0, 1000.0), x=point, y=point, over=st.floats(1.0, 4.0))
def test_kendall_type_pair_moment_past_the_edge_needs_no_quadrature(p, x, y, over):
    d = co.convolve_points(co.kendall_type(p), x, y)
    with mock.patch("scipy.integrate.quad", side_effect=AssertionError("quadrature ran")):
        assert me.moment_alpha(d, over * kendall_type_index(p)) == math.inf


def declared_laws(a, g, x, y, s, b, p):
    pair = co.convolve_points(co.kendall(g), x, y)
    alg = co.kendall_type(p)
    typed = co.convolve_points(alg, x, y)
    return [me.pareto_2alpha(a), pair, co.dilate(me.pareto_2alpha(a), s), co.dilate(pair, s),
            me.power_transform(me.pareto_2alpha(a), b), me.power_transform(pair, b),
            co._kendall_type_lambda1(alg), co._kendall_type_lambda2(alg), typed,
            co.dilate(typed, s), me.power_transform(typed, b)]


@PROPERTY
@given(a=tail_param, g=st.floats(0.1, 3.0), x=point, y=point, s=st.floats(0.01, 100.0),
       b=st.floats(0.2, 4.0), p=st.floats(2.0, 1000.0),
       z=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8))
def test_sf_and_cdf_sum_to_one(a, g, x, y, s, b, p, z):
    for d in declared_laws(a, g, x, y, s, b, p):
        assert d.sf_fn is not None
        # below, at and above the lower end, where the atom of a pair law sits
        pts = np.array([*z, d.support_lower, d.support_lower * (1 + 1e-9), 0.5 * d.support_lower])
        np.testing.assert_allclose(d.sf(pts) + d.cdf(pts), 1.0, rtol=0.0, atol=1e-15)


def eighths(top):
    """A location on the grid of eighths in [0, top]."""
    return st.integers(0, 8 * top).map(lambda k: k / 8.0)


@st.composite
def table_laws(draw, top):
    """A table law on [0, top]: up to three atoms and a continuous part of up
    to two linear pieces, all on the grid of eighths, each atom and piece of
    weight 0.05 to 1 before normalising."""
    atoms = draw(st.lists(st.tuples(eighths(top), st.floats(0.05, 1.0)), max_size=3))
    knots = sorted(set(draw(st.lists(eighths(top), max_size=3))))
    rises = [draw(st.floats(0.05, 1.0)) for _ in knots[1:]]
    total = sum(m for _, m in atoms) + sum(rises)
    assume(total > 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(rises)]) / total
    return me.table([(x, m / total) for x, m in atoms], list(zip(knots, cdf)) if rises else ())


MAX_GRID = np.linspace(0.0, 3.5, 15)


# few examples: each residual solves the model once per quadrature node
@settings(PROPERTY, max_examples=20)
@given(claims=table_laws(2), premiums=table_laws(3), u=st.floats(0.0, 2.5))
def test_max_solver_on_table_pairs(claims, premiums, u):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        delta = ru.max_ruin_ode(claims, premiums, MAX_GRID).delta_values
        residual = ru.max_ruin_integral_residual(claims, premiums, u)
    assert np.all((delta >= 0.0) & (delta <= 1.0))
    assert np.all(np.diff(delta) >= -1e-12)
    assert residual < 1e-9


# images of generated tables: the quantile, the draws and the CDF at each
# atom and knot are the table's carried by the map, bit for bit
@PROPERTY
@given(t=table_laws(2), s=st.floats(0.1, 10.0), b=st.floats(0.25, 4.0),
       q=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=5))
def test_dilated_and_powered_tables_are_images(t, s, b, q):
    q = np.array(q)
    for image, fwd in ((co.dilate(t, s), lambda x: x * s),
                       (me.power_transform(t, b), lambda x: x**b)):
        assert np.array_equal(image.quantile(q), fwd(t.quantile(q)))
        for x in (*(loc for loc, _ in t.atoms), *t.knots):
            assert image.cdf(fwd(x)) == t.cdf(x)
        # the total mass, integrated piece by piece between the image's knots
        mass = image.atom_mass
        if image.density is not None:
            cuts = sorted({image.support_lower, *image.knots, image.support_upper})
            mass += sum(integrate.quad(image.density, lo, hi, epsabs=1e-14)[0]
                        for lo, hi in zip(cuts[:-1], cuts[1:]))
        assert mass == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(co.dilate(t, s).sample(64, 3), s * t.sample(64, 3))
