"""Tests of the benchmark itself: every check rejects a wrong answer, the
self-time arithmetic is right, and BENCHMARK.json matches the code.

Run from the repository root:  python3 -m pytest gcbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gcruin  # noqa: E402
from gcruin import convolutions as co  # noqa: E402
from gcruin import measures as me  # noqa: E402
from gcruin import risk as ri  # noqa: E402
from gcruin import ruin as ru  # noqa: E402
from gcruin import walks as wa  # noqa: E402

import models  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def ok(checks):
    return all(flag for flag, _ in checks)


# ---------------------------------------------------------------------------
# each check rejects a wrong answer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z,n", [(1.0, 16384), (5.0, 16384), (10.0, 16384)])
def test_alpha_survival_shifted_by_a_few_se_is_rejected(z, n):
    psi = 1.0 - float(O.alpha_exp_survival(z))
    se = math.sqrt(psi * (1.0 - psi) / n)
    assert O.check_binomial(round(n * psi), n, psi)[0]
    for shift in (-7.0, 7.0):
        k = round(n * (psi + shift * se))
        assert not O.check_binomial(k, n, psi)[0], shift


def test_alpha_deep_tail_counts():
    n, psi = 8 * 16384, 1.0 - float(O.alpha_exp_survival(20.0))
    assert O.check_binomial(0, n, psi)[0]
    assert O.check_binomial(6, n, psi)[0]
    assert not O.check_binomial(20, n, psi)[0]


def test_alpha_mc_run_passes_its_checks():
    alg, law = co.alpha_stable(1.0), me.lom_alpha(1.0, 1.0)
    model = ri.RiskModel(alg, law, law, u=1.0, beta=2.0)
    est = ru.mc_ruin(model, horizon_claims=128, paths=16384, seed=3)
    k = workloads._survivors(est)
    assert O.check_binomial(16384 - k, 16384, 1.0 - float(O.alpha_exp_survival(1.0)))[0]
    assert workloads._wilson_matches(est, k, 16384)[0]
    assert not workloads._wilson_matches(est, k + 50, 16384)[0]


def test_kendall_margin_off_by_a_tenth_is_rejected():
    law = me.lom_kendall(1.0, 1.0)
    model = ri.RiskModel(co.kendall(1.0), law, law, u=2.0, lam=1.0)
    margin = ri.safety_condition_kendall(model, 2.0).extras["margin_definition"]
    assert O.check_close(margin, O.kendall_margin(2.0, 1.0), 1e-9)[0]
    assert not O.check_close(margin + 0.1, O.kendall_margin(2.0, 1.0), 1e-9)[0]

    lam_t, cap = 2.0, 20.0
    y = ri.mc_poisson_terminal(co.kendall(1.0), law, 1.0, 2.0, 4 * 16384, seed=5, start=2.0)
    assert ok(O.check_kendall_terminal(y, lam_t, 1.0, 1.0, 2.0, cap))
    want = O.truncated_alpha_moment(lambda v: O.kendall_compound_cdf(v, lam_t, 1.0, 1.0, 2.0),
                                    1.0, cap, points=(2.0, 1.0))
    capped = np.minimum(y, cap)
    assert O.check_bounded_mean(capped, want, 0.0, cap)[0]
    assert not O.check_bounded_mean(capped, want + 0.1, 0.0, cap)[0]
    assert not O.check_bounded_mean(capped, want - 0.1, 0.0, cap)[0]


def test_kendall_claim_sample_scaled_is_rejected():
    law = me.lom_kendall(1.0, 1.0)
    x = ri.mc_poisson_terminal(co.kendall(1.0), law, 1.0, 2.0, 4 * 16384, seed=6)
    assert ok(O.check_kendall_terminal(x, 2.0, 1.0, 1.0))
    assert not O.check_kendall_terminal(1.05 * x, 2.0, 1.0, 1.0)[1][0]


def test_kendall_walk_sample_scaled_is_rejected_by_ks():
    x = wa.simulate_terminal(co.kendall(1.0), me.uniform(0.0, 1.0), 5, 10000, seed=8)

    def cdf(v):
        return O.kendall_uniform_n_step_cdf(v, 5, 1.0)
    assert O.check_ks(x, cdf)[0]
    assert not O.check_ks(1.05 * x, cdf)[0]


def test_two_sample_ks_rejects_a_scaled_sampler():
    alg, step = co.kingman(0.5), me.uniform(0.0, 1.0)
    a = wa.simulate_terminal(alg, step, 3, 16384, seed=1)
    b = wa.simulate_terminal(alg, step, 3, 16384, seed=2)
    assert O.check_ks2(a, b)[0]
    assert not O.check_ks2(a, 1.05 * b)[0]


@pytest.mark.parametrize("kind", ["kingman", "kendall_type"])
def test_char_fn_power_check_rejects_a_scaled_sample(kind):
    alg, step = {"kingman": co.kingman(0.5), "kendall_type": co.kendall_type(3.0)}[kind], \
        me.uniform(0.0, 1.0)
    kern, lo, hi = workloads._kernel(kind)
    x = wa.simulate_terminal(alg, step, 3, 16384, seed=4)
    for t in workloads.CHAR_T:
        phi = O.uniform_char_fn(kern, t)
        assert abs(co.char_fn(alg, step, t) - phi) <= 1e-7
        assert O.check_bounded_mean(kern(t * x), phi**3, lo, hi)[0]
    t = workloads.CHAR_T[0]
    phi = O.uniform_char_fn(kern, t)
    assert not O.check_bounded_mean(kern(t * 1.1 * x), phi**3, lo, hi)[0]
    assert not O.check_bounded_mean(kern(t * x), phi**3 + 0.02, lo, hi)[0]


def test_bounded_mean_holds_for_small_skewed_samples():
    # 40 values, mostly 0: a normal test at this level rejects such samples
    rng = np.random.default_rng(0)
    fails = 0
    for _ in range(2000):
        v = (rng.random(40) < 0.03) * rng.random(40)
        fails += not O.check_bounded_mean(v, 0.015, 0.0, 1.0)[0]
    assert fails == 0


def test_cli_csv_with_a_nan_row_is_rejected(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("u,survival,ruin,ci_low,ci_high,method\n0.5,0.75,0.25,,,volterra\n")
    bad.write_text("u,survival,ruin,ci_low,ci_high,method\nnan,nan,nan,,,volterra\n")
    cols = ["u", "survival", "ruin"]
    assert O.check_csv_finite(good, cols)[0]
    assert not O.check_csv_finite(bad, cols)[0]


def test_recursion_residual_check():
    assert O.check_residual(0.01, 0.44, 0.43, 2000)[0]
    assert not O.check_residual(0.12, 0.55, 0.43, 2000)[0]
    assert not O.check_residual(0.0, 0.44, 0.43, 2000)[0]  # residual is not lhs - rhs


def test_close_rejects_nan_and_inf():
    assert not O.check_close(math.nan, 2.0, 1.0)[0]
    assert not O.check_close(math.inf, 2.0, 1.0)[0]


# ---------------------------------------------------------------------------
# closed forms agree with each other
# ---------------------------------------------------------------------------

def test_kendall_n_step_cdf_values():
    assert float(O.kendall_uniform_n_step_cdf(1.0, 5, 1.0)) == pytest.approx(3.0 / 16.0)
    assert float(O.kendall_uniform_n_step_cdf(1e9, 5, 1.0)) == pytest.approx(1.0)
    assert float(O.kendall_uniform_n_step_cdf(1.0, 1, 1.0)) == pytest.approx(1.0)


def test_truncated_moment_tends_to_the_kendall_moments():
    lam_t = 2.0
    claims = O.truncated_alpha_moment(lambda v: O.kendall_compound_cdf(v, lam_t, 1.0, 1.0),
                                      1.0, 1e6, points=(1.0,))
    prem = O.truncated_alpha_moment(lambda v: O.kendall_compound_cdf(v, lam_t, 1.0, 1.0, 2.0),
                                    1.0, 1e6, points=(1.0, 2.0))
    assert claims == pytest.approx(O.kendall_claim_moment(1.0, lam_t, 1.0, 1.0), abs=1e-5)
    assert prem - claims == pytest.approx(O.kendall_margin(2.0, 1.0), abs=1e-5)


def test_moment_closed_forms_match_quadrature():
    from scipy import integrate
    a = 1.2
    cases = [
        (lambda x: 1 / 1.5 if 0.5 < x < 2 else 0.0, 0.5, 2.0, O.moment_uniform(0.5, 2.0, a)),
        (lambda x: 3.0 * x**0.5 * math.exp(-2 * x**1.5), 0, np.inf, O.moment_weibull(2.0, 1.5, a)),
        (lambda x: 2.0 * x**-3.0, 1.0, np.inf, O.moment_pareto_2a(1.0, a)),
        (lambda x: 1.5 * 2**1.5 * x**0.5, 0, 0.5, O.moment_lom_kendall(2.0, 1.5, a)),
    ]
    for dens, lo, hi, want in cases:
        got, _ = integrate.quad(lambda x: x**a * dens(x), lo, hi, limit=200)
        assert got == pytest.approx(want, rel=1e-7)


# ---------------------------------------------------------------------------
# rounds and tracing
# ---------------------------------------------------------------------------

def test_round_counts_known_faults_apart(tmp_path):
    r = workloads.Round(tmp_path)
    r.op("good", lambda: [(True, "")])
    r.op("known", lambda: [(False, "still wrong")], known_fault=True)
    r.op("bad", lambda: [(True, ""), (False, "wrong")])
    r.op("raises", lambda: 1 / 0)
    assert (r.attempted, r.failed) == (4, 3)
    assert len(r.known) == 1 and len(r.problems) == 2


def S(name, parent, start, end, tag=None, count=0):
    return tracing.Span(name, parent, start, end, tag, count)


def test_self_time_arithmetic_on_hand_built_spans():
    spans = [
        S("ruin.mc_ruin", -1, 0.0, 10.0, count=4),                      # 0
        S("walks.apply_step_batch", 0, 1.0, 4.0, "kendall", 4),         # 1
        S("measures.Distribution.sample", 1, 2.0, 3.0, count=4),        # 2
        S("walks.apply_step_batch", 0, 5.0, 9.0, "kendall", 4),         # 3
        S("walks.apply_step_batch", -1, 11.0, 12.5, "max", 8),          # 4
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert tracing.top_level_seconds(spans) == 11.5
    m = tracing.layer_metrics(spans)
    assert m["ruin.mc_ruin.self_s"] == 3.0
    assert m["walks.apply_step_batch.self_s"] == 7.5
    assert m["walks.apply_step_batch.kendall.self_s"] == 6.0
    assert m["walks.apply_step_batch.max.self_s"] == 1.5
    assert m["walks.apply_step_batch.calls"] == 3
    assert m["walks.apply_step_batch.elements"] == 16
    assert m["measures.Distribution.sample.draws"] == 4
    # only the two moves under mc_ruin count: 8 elements / (2 * 4 paths)
    assert m["ruin.mc_ruin.steps_per_path"] == 1.0
    # a second span list keeps its own parent indices
    m2 = tracing.layer_metrics(spans, [S("ruin.mc_ruin", -1, 0.0, 1.0, count=4)])
    assert m2["ruin.mc_ruin.self_s"] == 4.0 and m2["ruin.mc_ruin.steps_per_path"] == 0.5


def test_tracer_wraps_every_lookup_and_restores_it():
    original = gcruin.walks.apply_step_batch
    law = me.lom_kendall(1.0, 1.0)
    model = ri.RiskModel(co.kendall(1.0), law, law, u=2.0, beta=4.0)
    tracer = tracing.Tracer(gcruin)
    tracer.install()
    try:
        wrapped = gcruin.walks.apply_step_batch
        assert wrapped is not original
        assert gcruin.ruin.apply_step_batch is wrapped
        assert gcruin.risk.apply_step_batch is wrapped
        gcruin.ruin.mc_ruin(model, horizon_claims=5, paths=100, seed=1)
    finally:
        tracer.uninstall()
    assert gcruin.walks.apply_step_batch is original
    assert gcruin.ruin.apply_step_batch is original
    assert me.Distribution.sample.__name__ == "sample" and not hasattr(me.Distribution.sample,
                                                                       "__wrapped__")
    spans = tracer.take()
    assert spans[0].name == "ruin.mc_ruin" and spans[0].parent == -1
    m = tracing.layer_metrics(spans)
    assert m["walks.apply_step_batch.calls"] == 10
    assert m["ruin.mc_ruin.steps_per_path"] == 5.0
    assert sum(tracing.self_times(spans)) == pytest.approx(tracing.top_level_seconds(spans))


# ---------------------------------------------------------------------------
# BENCHMARK.json matches the code
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "mc_efficiency",
                                                       "peak_rss_mib"]
    assert tuple(models.WORKLOADS) == run.WORKLOADS
    assert set(workloads.PARTS) == set(models.BUILDERS)
    assert {p for parts in models.WORKLOADS.values() for p in parts} == set(workloads.PARTS)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
