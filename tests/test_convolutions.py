import math

import numpy as np
import pytest

from gcruin import convolutions as co
from gcruin import measures as me


def all_algebras():
    return [
        co.classical(),
        co.symmetric(),
        co.alpha_stable(2.0),
        co.max_algebra(),
        co.kendall(1.0),
        co.kingman(0.5),
        co.kendall_type(3.0),
    ]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_point_values():
    assert co.kernel(co.kendall(1.0), 0.5) == pytest.approx(0.5)
    assert co.kernel(co.alpha_stable(2.0), 1.0) == pytest.approx(math.exp(-1.0))
    assert co.kernel(co.classical(), 2.0) == pytest.approx(math.exp(-2.0))
    assert co.kernel(co.symmetric(), 1.0) == pytest.approx(math.cos(1.0))
    assert co.kernel(co.max_algebra(), 0.99) == 1.0
    assert co.kernel(co.max_algebra(), 1.01) == 0.0
    c, p = 0.5, 3.0
    assert co.kernel(co.kendall_type(p), 0.5) == pytest.approx(
        1.0 - (c + 1.0) * 0.5 + c * 0.5**p)


def test_kernel_at_zero_is_one():
    for alg in all_algebras():
        assert co.kernel(alg, 0.0) == pytest.approx(1.0)


def test_kingman_kernel_matches_bessel_and_is_continuous_at_zero():
    from scipy import special
    s = 0.7
    alg = co.kingman(s)
    t = 1.3
    expected = special.gamma(s + 1) * (2.0 / t) ** s * special.jv(s, t)
    assert co.kernel(alg, t) == pytest.approx(expected, abs=1e-14)
    # series continuation below the switch point agrees with the Bessel form
    assert co.kernel(alg, 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert abs(co.kernel(alg, 2e-8) - co.kernel(alg, 5e-9)) < 1e-12


def test_kingman_parameter_validation():
    with pytest.raises(me.ParameterError):
        co.kingman(-0.5)


# ---------------------------------------------------------------------------
# point-mass convolution
# ---------------------------------------------------------------------------

def test_convolve_points_examples():
    d = co.convolve_points(co.kendall(1.0), 0.5, 1.0)
    assert d.atoms == ((1.0, 0.5),)
    # Pareto part: cdf 1 - 0.5 z^-2 on [1, oo)
    assert d.cdf(2.0) == pytest.approx(1.0 - 0.5 * 0.25)

    d = co.convolve_points(co.alpha_stable(2.0), 3.0, 4.0)
    assert d.atoms == ((5.0, 1.0),)

    d = co.convolve_points(co.max_algebra(), 2.0, 7.0)
    assert d.atoms == ((7.0, 1.0),)

    d = co.convolve_points(co.classical(), 1.5, 2.5)
    assert d.atoms == ((4.0, 1.0),)

    d = co.convolve_points(co.symmetric(), 1.0, 3.0)
    assert d.atoms == ((2.0, 0.5), (4.0, 0.5))
    # equal points: half mass at 0, half at 2x
    d = co.convolve_points(co.symmetric(), 2.0, 2.0)
    assert d.atoms == ((0.0, 0.5), (4.0, 0.5))


def test_neutral_element_exact():
    for alg in all_algebras():
        d = co.convolve_points(alg, 1.7, 0.0)
        assert d.atoms == ((1.7, 1.0),)
        d = co.convolve_points(alg, 0.0, 0.8)
        assert d.atoms == ((0.8, 1.0),)


def test_commutativity():
    z = np.linspace(0.0, 12.0, 241)
    for alg in all_algebras():
        a = co.convolve_points(alg, 0.7, 1.9)
        b = co.convolve_points(alg, 1.9, 0.7)
        np.testing.assert_allclose(a.cdf(z), b.cdf(z), atol=1e-14)


def test_dilation_homogeneity():
    z = np.linspace(0.0, 30.0, 301)
    for alg in all_algebras():
        for a in (0.5, 3.0):
            direct = co.convolve_points(alg, a * 0.8, a * 1.6)
            scaled = co.dilate(co.convolve_points(alg, 0.8, 1.6), a)
            sup = np.max(np.abs(direct.cdf(z) - scaled.cdf(z)))
            assert sup <= 1e-10, (alg.kind, a, sup)


def test_multiplicativity_all_algebras():
    grid = (0.25, 0.5, 1.0, 2.0)
    for alg in all_algebras():
        for x in grid:
            for y in grid:
                law = co.convolve_points(alg, x, y)
                for t in grid:
                    lhs = co.char_fn(alg, law, t)
                    rhs = float(co.kernel(alg, x * t)) * float(co.kernel(alg, y * t))
                    assert abs(lhs - rhs) <= 1e-7, (alg.kind, x, y, t, lhs, rhs)


def test_kendall_total_mass_exact():
    d = co.convolve_points(co.kendall(1.5), 0.6, 1.1)
    w = (0.6 / 1.1) ** 1.5
    assert d.atoms == ((1.1, 1.0 - w),)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 10.0, 100.0, 1000.0])
def test_kendall_type_construction_and_mixing_mass(p):
    alg = co.kendall_type(p)
    assert alg.c == pytest.approx(1.0 / (p - 1.0))
    for lam in (co._kendall_type_lambda1(alg), co._kendall_type_lambda2(alg)):
        assert lam.total_mass() == pytest.approx(1.0, abs=1e-8)
    law = co.convolve_points(alg, 0.5, 1.0)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_kendall_type_input_checks():
    with pytest.raises(me.ParameterError):
        co.kendall_type(3.0, c=0.9)   # only c = 1/(p-1) is supported
    with pytest.raises(me.ParameterError):
        co.kendall_type(1.5)
    # large p: quadrature of the mixing densities falls short of 1 here, but
    # the closed-form CDFs still have mass 1, so the algebra is valid
    for p in (1e4, 1e6):
        assert co.kendall_type(p).c == 1.0 / (p - 1.0)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilate_examples():
    d = co.dilate(me.point_mass(3.0), 2.0)
    assert d.atoms == ((6.0, 1.0),)
    p = co.dilate(me.pareto_2alpha(1.0), 2.0)
    assert p.cdf(4.0) == pytest.approx(1.0 - (4.0 / 2.0) ** -2)
    z = co.dilate(me.pareto_2alpha(1.0), 0.0)
    assert z.atoms == ((0.0, 1.0),)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

def test_char_fn_at_point_mass_zero():
    for alg in all_algebras():
        for t in (0.0, 0.7, 3.0):
            assert co.char_fn(alg, me.point_mass(0.0), t) == pytest.approx(1.0)


def test_char_fn_kendall_uniform():
    val = co.char_fn(co.kendall(1.0), me.uniform(0, 1), 1.0)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_algebra_from_json():
    alg = co.algebra_from_json({"kind": "kendall", "alpha": 1.0})
    assert alg.kind == "kendall" and alg.alpha == 1.0
    with pytest.raises(me.ParameterError):
        co.algebra_from_json({"kind": "bogus"})
    with pytest.raises(me.ParameterError):
        co.algebra_from_json({"kind": "kingman"})  # missing s


# ---------------------------------------------------------------------------
# input boundary: non-finite parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: co.kendall(math.nan),
    lambda: co.kendall(math.inf),
    lambda: co.alpha_stable(math.nan),
    lambda: co.alpha_stable(math.inf),
    lambda: co.kingman(math.nan),
    lambda: co.kingman(math.inf),
    lambda: co.kendall_type(math.nan),
    lambda: co.kendall_type(math.inf),
    lambda: co.kendall_type(3.0, c=math.nan),
    lambda: co.dilate(me.uniform(0, 1), math.nan),
    lambda: co.convolve_points(co.kendall(1.0), math.nan, 1.0),
    lambda: co.convolve_points(co.max_algebra(), 1.0, math.inf),
    lambda: co.algebra_from_json({"kind": "kendall", "alpha": math.nan}),
])
def test_builders_reject_non_finite_parameters(build):
    with pytest.raises(me.ParameterError, match="finite"):
        build()
