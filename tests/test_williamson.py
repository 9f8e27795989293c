import itertools
import math

import numpy as np
import pytest

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import walks as wa
from gcruin import williamson as wi


def pairs_under_test():
    return [
        (me.lom_kendall(1.0, 1.0), 1.0),
        (me.lom_kendall(2.0, 1.5), 1.5),
        (me.uniform(0, 1), 1.0),
        (me.uniform(0, 2), 2.0),
        (me.pareto_2alpha(1.0), 1.0),
        (me.point_mass(1.0), 1.0),
        # atoms plus a continuous part
        (me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)]), 1.0),
    ]


# ---------------------------------------------------------------------------
# transform forms and inversion
# ---------------------------------------------------------------------------

def test_transform_trivial_values():
    d1 = me.point_mass(1.0)
    assert wi.williamson_transform(d1, 1.0, 0.5) == pytest.approx(0.5, abs=1e-10)
    assert wi.williamson_transform(me.uniform(0, 1), 1.0, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert wi.williamson_transform(d1, 1.0, 0.0) == 1.0


def test_transform_forms_mutual_agreement():
    for law, alpha in pairs_under_test():
        for t in (0.3, 0.9, 1.7, 4.0):
            f1 = wi.transform_form1(law, alpha, t)
            f2 = wi.transform_form2(law, alpha, t)
            f3 = wi.williamson_transform(law, alpha, t)
            assert abs(f1 - f2) <= 1e-8, (law.family, alpha, t)
            assert abs(f1 - f3) <= 1e-8, (law.family, alpha, t)


def test_closed_form_h_matches_numeric_transform():
    for law, alpha in pairs_under_test():
        pair = wi.kendall_pair(law, alpha)
        for x in (0.3, 1.0, 2.5, 10.0):
            hv = float(np.asarray(pair.H(np.array([x])))[0])
            assert hv == pytest.approx(wi.williamson_transform(law, alpha, 1.0 / x),
                                       abs=1e-8)


def test_pair_ordering_invariant():
    # 0 <= H <= F <= 1 everywhere
    for law, alpha in pairs_under_test():
        pair = wi.kendall_pair(law, alpha)
        t = np.linspace(0.05, 20.0, 200)
        H = np.asarray(pair.H(t))
        F = np.asarray(pair.F(t))
        assert np.all(H >= -1e-12) and np.all(F <= 1.0 + 1e-12)
        assert np.all(H <= F + 1e-12)
        assert np.all(np.diff(H) >= -1e-12)


def test_inversion_recovers_step_cdf_of_point_mass():
    # H(t) = (1 - 1/t)_+ for delta_1, alpha=1: F(t) = 1 for t > 1
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    for t in (1.5, 2.0, 7.0):
        assert wi.williamson_invert(pair.H, 1.0, t, dH=pair.dH) == pytest.approx(1.0, abs=1e-12)


def test_inversion_roundtrip_sup_norm():
    for law, alpha in [(me.lom_kendall(1.0, 1.0), 1.0), (me.uniform(0, 1), 1.0),
                       (me.uniform(0, 2), 2.0)]:
        pair = wi.kendall_pair(law, alpha)
        worst_exact = worst_numeric = 0.0
        for t in np.linspace(0.05, 3.0, 60):
            f_true = float(law.cdf(float(t)))
            worst_exact = max(worst_exact,
                              abs(wi.williamson_invert(pair.H, alpha, float(t), dH=pair.dH) - f_true))
            worst_numeric = max(worst_numeric,
                                abs(wi.williamson_invert(pair.H, alpha, float(t)) - f_true))
        assert worst_exact <= 1e-12
        assert worst_numeric <= 1e-6


def test_inversion_of_constant_h_gives_delta_zero():
    assert wi.williamson_invert(lambda t: 1.0, 1.0, 0.7) == pytest.approx(1.0, abs=1e-9)


def test_inversion_error_on_bad_derivative():
    with pytest.raises(wi.InversionError):
        wi.williamson_invert(lambda t: math.nan, 1.0, 1.0)


# ---------------------------------------------------------------------------
# psi and the Lemma identities
# ---------------------------------------------------------------------------

def test_psi_properties():
    assert wi.psi(0.0, 1.0) == 1.0
    assert wi.psi(1.0, 1.0) == 0.0
    assert wi.psi(2.0, 1.0) == 0.0
    rng = np.random.default_rng(5)
    a, b = rng.random(50), rng.random(50)
    for alpha in (0.5, 1.0, 2.0):
        pa, pb = wi.psi(a, alpha), wi.psi(b, alpha)
        np.testing.assert_allclose(pa + pb - pa * pb, 1.0 - (a * b) ** alpha, atol=1e-12)


def test_two_point_transition_closed_form():
    assert wi.transition_cdf_points(1.0, 1.0, 1.0, 2.0) == pytest.approx(0.75)
    assert wi.transition_cdf_points(1.0, 1.0, 1.5, 1.2) == 0.0
    # neutral element: y = 0 reduces to the indicator of x ≤ t
    assert wi.transition_cdf_points(1.0, 1.0, 0.0, 2.0) == 1.0
    # agreement with the psi form
    for alpha in (0.7, 1.0, 2.0):
        for (x, y, t) in [(0.5, 1.0, 2.0), (0.2, 0.7, 1.1)]:
            px, py = wi.psi(x / t, alpha), wi.psi(y / t, alpha)
            assert wi.transition_cdf_points(alpha, x, y, t) == pytest.approx(
                px + py - px * py, abs=1e-12)


def test_one_step_from_point():
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    assert wi.one_step_from_point_cdf(0.5, pair, 2.0) == pytest.approx(0.875, abs=1e-12)
    assert wi.one_step_from_point_cdf(0.5, pair, 2.0) == pytest.approx(
        wi.transition_cdf_points(1.0, 0.5, 1.0, 2.0), abs=1e-12)
    assert wi.one_step_from_point_cdf(3.0, pair, 2.0) == 0.0
    # v = 0 reduces to F
    assert wi.one_step_from_point_cdf(0.0, pair, 1.5) == pytest.approx(1.0)


def test_point_transitions_are_right_continuous_at_the_atom():
    # P(X <= t) at t = max(x, y) keeps the atom mass 1 - (min/max)^a
    assert wi.transition_cdf_points(1.0, 0.5, 1.0, 1.0) == 0.5
    for alpha in (0.5, 1.0, 2.0):
        assert wi.transition_cdf_points(alpha, 1.0, 0.0, 1.0) == 1.0   # delta_1 at 1
    # from v = 0.5 with uniform(0, 1) steps the atom at v has mass H(0.5) = 1/4
    pair = wi.kendall_pair(me.uniform(0.0, 1.0), 1.0)
    assert wi.one_step_from_point_cdf(0.5, pair, 0.5) == 0.25
    # ... and the engine puts that mass there: P(X_1 <= 0.5) = 1/4, P(X_1 < 0.5) = 0
    rng = np.random.default_rng(8)
    n = 100_000
    x1 = wa.apply_step_batch(co.kendall(1.0), np.full(n, 0.5),
                             me.uniform(0.0, 1.0).sample(n, rng), rng)
    assert np.mean(x1 <= 0.5) == pytest.approx(0.25, abs=0.01)
    assert np.mean(x1 < 0.5) == 0.0


POINT_GRID = (0.0, 0.3, 0.5, 1.0, 1.5, 2.0)


def test_point_transitions_are_the_pair_law_and_the_shifted_walk():
    for alpha in (0.5, 1.0, 1.7):
        for x, y, t in itertools.product(POINT_GRID, POINT_GRID, POINT_GRID[1:]):
            law = co.convolve_points(co.kendall(alpha), x, y)
            assert wi.transition_cdf_points(alpha, x, y, t) == law.cdf(t)
        for law in (me.point_mass(1.0), me.uniform(0.0, 1.0), me.lom_kendall(1.0, 1.0)):
            pair = wi.kendall_pair(law, alpha)
            for v, t in itertools.product(POINT_GRID, POINT_GRID[1:]):
                assert wi.one_step_from_point_cdf(v, pair, t) == \
                    wi.shifted_n_step_cdf(v, pair, 1, t)


def test_point_transitions_keep_the_published_values_off_the_atom():
    """Away from t = max(x, y) (resp. t = v) the values are those of
    h(x, y, t) = (1 - (xy/t^2)^a) 1{x < t, y < t} and of
    [Psi(v/t) F(t) + (1 - Psi(v/t)) H(t)] 1{v < t}."""
    for alpha in (0.5, 1.0, 1.7):
        for x, y, t in itertools.product(POINT_GRID, POINT_GRID, POINT_GRID[1:]):
            if t != max(x, y):
                want = 1.0 - (x * y / t**2) ** alpha if max(x, y) < t else 0.0
                assert abs(wi.transition_cdf_points(alpha, x, y, t) - want) <= 1e-14
        for law in (me.point_mass(1.0), me.uniform(0.0, 1.0), me.lom_kendall(1.0, 1.0)):
            pair = wi.kendall_pair(law, alpha)
            for v, t in itertools.product(POINT_GRID, POINT_GRID[1:]):
                if t != v:
                    w = float(wi.psi(v / t, alpha))
                    want = w * float(pair.F(t)) + (1.0 - w) * float(pair.H(t)) if v < t else 0.0
                    assert abs(wi.one_step_from_point_cdf(v, pair, t) - want) <= 1e-14


def test_pair_cdf_is_its_law_cdf():
    law = me.lom_kendall(1.0, 1.0)
    pair = wi.kendall_pair(law, 1.0)
    assert pair.F == law.cdf
    with pytest.raises(TypeError):
        wi.KendallLawPair(F=me.point_mass(1.0).cdf, H=pair.H, alpha=1.0, dist=law)


def test_multi_step_two_form_identity():
    """The shifted n-step CDF has two algebraically equal forms; they must
    agree to 1e-12 on a random (u, t, n) grid for several law pairs."""
    rng = np.random.default_rng(17)
    for law, alpha in [(me.lom_kendall(1.0, 1.0), 1.0), (me.uniform(0, 1), 1.0),
                       (me.pareto_2alpha(1.0), 1.0)]:
        pair = wi.kendall_pair(law, alpha)
        for _ in range(100):
            u = 3.0 * rng.random()
            t = u + 0.01 + 5.0 * rng.random()
            n = int(rng.integers(1, 8))
            G = float(np.asarray(pair.F(np.array([t])))[0])
            J = float(np.asarray(pair.H(np.array([t])))[0])
            psi_u = float(wi.psi(u / t, alpha))
            Gn = J ** (n - 1) * (J + n * (G - J))
            form_a = psi_u * Gn + (1.0 - psi_u) * J**n
            form_b = J ** (n - 1) * (n * (G - J) * psi_u + J)
            assert abs(form_a - form_b) <= 1e-12
            assert wi.shifted_n_step_cdf(u, pair, n, t) == pytest.approx(form_b, abs=1e-12)


# ---------------------------------------------------------------------------
# walk CDFs
# ---------------------------------------------------------------------------

def test_n_step_cdf_values():
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    assert wi.n_step_cdf(pair, 1, 1.5) == pytest.approx(float(me.point_mass(1.0).cdf(1.5)))
    # n=2, t=3: H=2/3, F=1 -> (2/3)(2/3 + 2/3) = 8/9
    assert wi.n_step_cdf(pair, 2, 3.0) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert wi.n_step_cdf(pair, 4, 1e9) == pytest.approx(1.0, abs=1e-6)


def test_compound_cdf_values():
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    # lam t = 1, x = 2: H = 1/2, F = 1 -> 1.5 e^{-1/2}
    assert wi.compound_cdf(pair, 1.0, 1.0, 2.0) == pytest.approx(1.5 * math.exp(-0.5), abs=1e-12)
    assert wi.compound_cdf(pair, 1.0, 0.0, 0.5) == 1.0   # no claims yet
    assert wi.compound_cdf(pair, 1.0, 1.0, 1e9) == pytest.approx(1.0, abs=1e-6)


def test_compound_matches_poisson_series():
    for law, alpha in [(me.lom_kendall(1.0, 1.0), 1.0), (me.uniform(0, 1), 1.0)]:
        pair = wi.kendall_pair(law, alpha)
        for lt in (0.5, 2.0):
            for x in (0.7, 1.5, 4.0):
                series = 0.0
                weight = math.exp(-lt)
                n = 0
                cum = weight
                series += weight * 1.0  # n = 0 term: X = 0 <= x
                while 1.0 - cum > 1e-12:
                    n += 1
                    weight *= lt / n
                    cum += weight
                    series += weight * wi.n_step_cdf(pair, n, x)
                assert wi.compound_cdf(pair, lt, 1.0, x) == pytest.approx(series, abs=1e-8)


def test_shifted_n_step_cdf():
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    # u=1, n=1, t=2: J=1/2, G=1, psi(1/2)=1/2 -> (1/2)*1 + (1/2)*(1/2) = 0.75
    assert wi.shifted_n_step_cdf(1.0, pair, 1, 2.0) == pytest.approx(0.75, abs=1e-12)
    assert wi.shifted_n_step_cdf(2.0, pair, 0, 3.0) == 1.0
    assert wi.shifted_n_step_cdf(2.0, pair, 0, 1.5) == 0.0
    # u = 0 reduces to the n-step law
    for t in (0.5, 1.4, 3.0):
        assert wi.shifted_n_step_cdf(0.0, pair, 3, t) == pytest.approx(
            wi.n_step_cdf(pair, 3, t), abs=1e-14)
    # atom at u has mass J(u)^n
    u, n = 2.0, 3
    ju = float(np.asarray(pair.H(np.array([u])))[0])
    assert wi.shifted_n_step_cdf(u, pair, n, u * (1 + 1e-12)) == pytest.approx(ju**n, abs=1e-9)


@pytest.mark.parametrize("lam, t", [(math.nan, 1.0), (1.0, math.nan), (1.0, -math.inf)])
def test_shifted_compound_cdf_rejects_non_finite_lam_and_t(lam, t):
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    with pytest.raises(me.ParameterError, match="must be finite"):
        wi.shifted_compound_cdf(0.5, pair, lam, t, 2.0)


LOM_PAIR = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)


@pytest.mark.parametrize("call", [
    lambda: wi.shifted_compound_atom(math.nan, LOM_PAIR, 1.0, 1.0),
    lambda: wi.shifted_compound_atom(1.0, LOM_PAIR, math.inf, 1.0),
    lambda: wi.shifted_compound_atom(1.0, LOM_PAIR, 1.0, math.nan),
    lambda: wi.shifted_n_step_cdf(math.nan, LOM_PAIR, 2, 1.0),
    lambda: wi.shifted_compound_cdf(math.nan, LOM_PAIR, 1.0, 1.0, 2.0),
    lambda: wi.transform_form1(me.uniform(0, 1), 1.0, math.nan),
    lambda: wi.transform_form2(me.uniform(0, 1), 1.0, math.inf),
    lambda: wi.williamson_transform(me.uniform(0, 1), 1.0, [0.5, math.nan]),
    lambda: wi.williamson_transform(me.lom_kendall(1.0, 1.0), math.nan, 0.5),
    lambda: wi.transform_form1(me.lom_kendall(1.0, 1.0), math.nan, 0.5),
    lambda: wi.kendall_pair(me.table([(1.0, 0.5)], [(0.0, 0.0), (2.0, 0.5)]), math.nan).H(2.0),
    lambda: wi.kendall_pair(me.lom_kendall(1.0, 1.0), math.inf).H(2.0),
], ids=["atom_u", "atom_lam", "atom_t", "n_step_u", "compound_u", "form1_t", "form2_t",
        "transform_t", "transform_alpha", "form1_alpha", "pair_alpha_nan", "pair_alpha_inf"])
def test_williamson_entry_points_reject_non_finite_numbers(call):
    with pytest.raises(me.ParameterError, match="must be finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: wi.transform_form2(me.lom_kendall(1.0, 1.0), -1.0, 0.5),
    lambda: wi.williamson_invert(LOM_PAIR.H, 0.0, 1.0),
    lambda: wi.shifted_n_step_cdf(0.5, LOM_PAIR, 2, [math.nan, 1.0]),
    lambda: wi.compound_cdf(LOM_PAIR, 1.0, 1.0, math.nan),
], ids=["form2_alpha", "invert_alpha", "n_step_t_nan", "compound_x_nan"])
def test_williamson_entry_points_reject_numbers_that_are_not_positive(call):
    with pytest.raises(me.ParameterError, match="must be positive"):
        call()


@pytest.mark.parametrize("call", [
    lambda n: wi.n_step_cdf(wi.kendall_pair(me.uniform(0, 1), 1.0), n, 0.5),
    lambda n: wi.shifted_n_step_cdf(0.5, LOM_PAIR, n, 1.0),
], ids=["n_step", "shifted_n_step"])
@pytest.mark.parametrize("n", [2.5, math.nan], ids=["half", "nan"])
def test_n_step_cdf_rejects_a_step_count_that_is_not_an_integer(call, n):
    with pytest.raises(me.ParameterError, match=f"^n must be an integer, got {n}$"):
        call(n)


def test_shifted_compound_cdf():
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    u = 2.0
    assert wi.shifted_compound_cdf(u, pair, 1.0, 1.0, 1.5) == 0.0
    # u = 0 reduces to the compound law
    for x in (0.5, 1.5, 3.0):
        assert wi.shifted_compound_cdf(0.0, pair, 1.0, 1.0, x) == pytest.approx(
            wi.compound_cdf(pair, 1.0, 1.0, x), abs=1e-14)
    # atom mass at u
    atom = wi.shifted_compound_atom(u, pair, 1.0, 1.0)
    ju = float(np.asarray(pair.H(np.array([u])))[0])
    assert atom == pytest.approx(math.exp(-(1.0 - ju)), abs=1e-14)
    assert wi.shifted_compound_cdf(u, pair, 1.0, 1.0, u * (1 + 1e-12)) == pytest.approx(
        atom, abs=1e-9)


def test_cdf_monotonicity_and_range():
    for law, alpha in pairs_under_test():
        pair = wi.kendall_pair(law, alpha)
        x = np.linspace(0.05, 15.0, 300)
        for vals in (np.asarray(wi.n_step_cdf(pair, 3, x)),
                     np.asarray(wi.compound_cdf(pair, 1.0, 2.0, x)),
                     np.asarray(wi.shifted_n_step_cdf(0.7, pair, 2, x)),
                     np.asarray(wi.shifted_compound_cdf(0.7, pair, 1.0, 2.0, x))):
            assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
            assert np.all(np.diff(vals) >= -1e-9)


def test_n_step_transform_is_h_power():
    # Williamson transform of the n-step CDF equals Phi^n
    for law, alpha in [(me.lom_kendall(1.0, 1.0), 1.0), (me.uniform(0, 1), 1.0)]:
        pair = wi.kendall_pair(law, alpha)
        n = 3
        for t in (0.4, 1.1, 2.0):
            fn = lambda s: wi.n_step_cdf(pair, n, s) if s > 0 else 0.0
            lhs = wi.williamson_transform(fn, alpha, t)
            rhs = wi.williamson_transform(law, alpha, t) ** n
            assert abs(lhs - rhs) <= 1e-7, (law.family, t)
