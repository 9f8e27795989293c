"""ruin.survival: one entry point that routes every model to its solver."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from gcruin import cli
from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri
from gcruin import ruin as ru

F_EXP = me.lom_alpha(1.0, 1.0)
ALPHA = ri.RiskModel(co.alpha_stable(1.0), F_EXP, F_EXP, beta=2.0)
MAX_CLOSED = ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 2))
# a table premium has no closed form: the product integral solves it
MAX_TABLE = ri.RiskModel(co.max_algebra(), me.uniform(0, 1),
                         me.distribution_from_json({"family": "table",
                                                    "atoms": [[0.5, 0.2]],
                                                    "cdf_points": [[0, 0], [2, 0.8]]}),
                         beta=1.5)
KENDALL = ri.RiskModel(co.kendall(1.0), me.lom_kendall(1.0, 1.0), me.lom_kendall(1.0, 1.0))
MC_RUN = dict(horizon=20, paths=500, seed=7)


@pytest.mark.parametrize("model, route, label", [
    (ALPHA, "volterra", "volterra"),
    (MAX_CLOSED, "closed", "closed_form"),
    (MAX_TABLE, "ode", "ode"),
    (KENDALL, "mc", "monte_carlo"),
], ids=["alpha", "max_closed", "max_table", "kendall"])
def test_auto_routes_each_algebra(model, route, label):
    method, ests = ru.survival(model, [0.5, 1.0], **MC_RUN)
    assert method == route
    assert [e.method for e in ests] == [label, label]
    assert all(0.0 <= e.survival <= 1.0 and e.ruin == 1.0 - e.survival for e in ests)


@pytest.mark.parametrize("method", ["auto", "mc"])
def test_finite_horizon_routes_to_mc_ruin_finite_t(method):
    route, ests = ru.survival(ALPHA, [0.0, 2.0], method, t=0.5, paths=400, seed=3)
    assert route == "mc"
    for u, est in zip([0.0, 2.0], ests):
        assert est == ru.mc_ruin_finite_t(replace(ALPHA, u=u), 0.5, paths=400, seed=3)
        assert est.horizon == "t=0.5"


@pytest.mark.parametrize("model, method", [
    (ALPHA, "volterra"), (MAX_CLOSED, "closed"), (MAX_TABLE, "ode"),
], ids=["volterra", "closed", "ode"])
def test_finite_horizon_refuses_infinite_horizon_routes(model, method):
    with pytest.raises(me.ParameterError, match="finite horizon"):
        ru.survival(model, [0.5], method, t=1.0)


@pytest.mark.parametrize("model", [KENDALL, ALPHA], ids=["kendall", "alpha"])
def test_ode_refuses_other_algebras(model):
    with pytest.raises(me.ParameterError, match="max model"):
        ru.survival(model, [0.5], "ode")


def test_unknown_method_is_refused():
    with pytest.raises(me.ParameterError, match="unknown method"):
        ru.survival(MAX_CLOSED, [0.5], "euler")


def test_unknown_method_is_named_before_the_horizon_check():
    with pytest.raises(me.ParameterError, match="^unknown method 'foo'$"):
        ru.survival(MAX_CLOSED, [1.0], "foo", t=1.0)


@pytest.mark.parametrize("model", [KENDALL, ALPHA], ids=["kendall", "alpha"])
def test_closed_refuses_other_algebras(model):
    with pytest.raises(me.ParameterError, match="^the closed method solves the max model only$"):
        ru.survival(model, [0.5], "closed")


@pytest.mark.parametrize("options, message", [
    (dict(paths=-5), "paths must be positive, got -5"),
    (dict(horizon=0), "horizon must be positive, got 0"),
    (dict(steps=1), "steps must be >= 2, got 1"),
    (dict(seed=-3), "seed must be nonnegative, got -3"),
    (dict(confidence=1.5), "confidence must lie in (0, 1), got 1.5"),
    (dict(paths=2.5), "paths must be an integer, got 2.5"),
], ids=["paths", "horizon", "steps", "seed", "confidence", "paths_float"])
@pytest.mark.parametrize("model, method", [
    (ALPHA, "volterra"), (MAX_CLOSED, "closed"), (MAX_TABLE, "ode"), (KENDALL, "mc"),
], ids=["volterra", "closed", "ode", "mc"])
def test_every_route_checks_every_run_option(model, method, options, message):
    # the CLI gives the same messages, and argparse refuses paths 2.5 before them
    assert ru.survival(model, [0.5], method, **MC_RUN)[0] == method
    with pytest.raises(me.ParameterError, match=f"^{re.escape(message)}$"):
        ru.survival(model, [0.5], method, **{**MC_RUN, **options})


@pytest.mark.parametrize("model", [MAX_CLOSED, MAX_TABLE], ids=["uniform", "table"])
def test_ode_grid_equals_one_solve_per_capital(model):
    # unsorted, repeated, and past the claim supremum 1
    us = [0.75, 0.0, 0.75, 2.5, 0.3, 1.0, 0.0]
    method, ests = ru.survival(model, us, "ode")
    assert method == "ode"
    premiums = co.dilate(model.premium_law, model.beta)
    for u, est in zip(us, ests):
        want = float(ru.max_ruin_ode(model.claim_law, premiums, [u]).delta_values[0])
        assert est.survival == want and est.ruin == 1.0 - want
        assert est.diagnostics == {"claim_sup": 1, "beta": model.beta}
    assert ests[3].survival == 1.0


def test_mc_rows_equal_mc_ruin_at_each_capital():
    us = [1.0, 0.0, 2.0]
    method, ests = ru.survival(KENDALL, us, "mc", **MC_RUN)
    assert method == "mc"
    for u, est in zip(us, ests):
        assert est == ru.mc_ruin(replace(KENDALL, u=u), horizon_claims=20, paths=500, seed=7)


def test_volterra_route_is_alpha_ruin_grid():
    us = [3.0, 0.0, 3.0, 7.5]
    assert ru.survival(ALPHA, us, steps=400) == ("volterra", ru.alpha_ruin_grid(us, ALPHA, 400))


# ---------------------------------------------------------------------------
# the Volterra recursion: every z_max of a grid is one row of a single solve
# ---------------------------------------------------------------------------

def one_row(F, gamma, beta_alpha, z_max, steps):
    """The scalar recursion, one np.dot per step, that the row solve replaced."""
    q = gamma / beta_alpha
    rho = gamma * me.moment_alpha(F, 1.0) / beta_alpha
    z = np.linspace(0.0, z_max, steps + 1)
    h = z[1] - z[0]
    k = 1.0 - np.asarray(F.cdf(z), dtype=float)
    delta = np.empty(steps + 1)
    delta[0] = 1.0 - rho
    rev = np.empty(steps + 1)
    rev[steps] = delta[0]
    denom = 1.0 - 0.5 * q * h * k[0]
    for i in range(1, steps + 1):
        inner = float(np.dot(k[1:i], rev[steps - i + 1:steps])) if i > 1 else 0.0
        delta[i] = rev[steps - i] = (1.0 - rho + q * h * (inner + 0.5 * k[i] * delta[0])) / denom
    return np.clip(delta, 0.0, 1.0)


@pytest.mark.parametrize("F, beta_alpha, z_max, steps", [
    (F_EXP, 2.0, 10.0, 5),
    (F_EXP, 2.0, 10.0, 2000),
    (F_EXP, 2.0, 7500.0, 2000),  # alpha_ruin's grid at u = 1500
    (me.power_transform(me.lom_alpha(1.0, 1.5), 1.5), 2.0**1.5, 12.0, 700),
    (me.power_transform(me.uniform(0.0, 1.0), 1.5), 2.0**1.5, 12.0, 701),
], ids=["exp_5", "exp_2000", "exp_u1500", "lom_pow", "uniform_pow"])
def test_volterra_row_is_the_scalar_recursion(F, beta_alpha, z_max, steps):
    grid = ru.alpha_ruin_volterra(F, 1.0, beta_alpha, z_max=z_max, steps=steps)
    assert grid.delta_values.tobytes() == one_row(F, 1.0, beta_alpha, z_max, steps).tobytes()


def test_alpha_grid_rows_are_separate_solves():
    us = np.linspace(0.0, 12.0, 25)
    ests = ru.alpha_ruin_grid(us, ALPHA, steps=300)
    assert len({e.diagnostics["z_max"] for e in ests}) > 10
    for u, est in zip(us, ests):
        z_max = max(10.0, 5.0 * u)
        row = one_row(F_EXP, 1.0, 2.0, z_max, 300)
        assert est.survival == float(np.interp(u, np.linspace(0.0, z_max, 301), row))


def test_too_few_steps_are_refused_not_clipped_to_zero():
    # z_max = 10 000 at u = 2000: h = 5 makes the scheme's own rho exceed 1
    with pytest.raises(me.ParameterError, match=r"steps = 2000 is too few .* steps >= 5001"):
        ru.alpha_ruin(2000.0, ALPHA)
    with pytest.raises(me.ParameterError, match="too few"):
        ru.alpha_ruin_volterra(F_EXP, 1.0, 2.0, z_max=10_000.0, steps=2000)
    with pytest.raises(me.ParameterError, match="too few"):
        ru.alpha_ruin_grid([1.0, 2000.0], ALPHA)
    # h = 3.92 keeps the trapezoid denominator positive, but the recursion overflows
    with pytest.raises(me.ParameterError, match="too few"):
        ru.alpha_ruin(2000.0, ALPHA, steps=2550)
    # the named count keeps the solution bounded, and it is 1 - e^(-1000)/2
    assert ru.alpha_ruin(2000.0, ALPHA, steps=5001).survival == 1.0


def test_cli_refuses_too_few_steps(tmp_path, capsys):
    model = json.dumps({"algebra": {"kind": "alpha_stable", "alpha": 1.0},
                        "claim_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
                        "premium_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
                        "beta": 2.0})
    run = ["ruin", "--model", model, "--u"]
    assert cli.main(["--out", str(tmp_path / "2000"), *run, "2000"]) == 2
    assert "too few" in capsys.readouterr().err
    assert not list((tmp_path / "2000").iterdir())
    assert cli.main(["--out", str(tmp_path / "1500"), *run, "1500"]) == 0
    rows = (tmp_path / "1500" / "ruin.csv").read_text().splitlines()
    assert rows[1].split(",")[:3] == ["1500", "1", "0"]
