"""The workloads' parts: each a fixed list of operations, each operation checked.

Every gcruin function is looked up through its module at call time
(``ru.mc_ruin``, not a name bound at import), so the tracer's wrappers see
the calls.  Each operation returns its checks as (ok, detail) pairs and
records its Monte Carlo estimates for ``mc_efficiency``.  The seeds of one
part in one round come from the run's ``--seed``, the round index and the
part's index (``run_round``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from gcruin import cli
from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri
from gcruin import ruin as ru
from gcruin import walks as wa
from gcruin import williamson as wi

import models as M
import oracles as O

#: paths per chunk in gcruin's Monte Carlo engines
CHUNK = wa.CHUNK


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class Round:
    """Outcome of one round: operations attempted and failed, the failures
    that are not known faults, and the Monte Carlo estimates made."""

    def __init__(self, tmp: Path):
        self.seeds: list[int] = []
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: list[str] = []
        self.estimates: dict[str, tuple[str, tuple, float]] = {}

    def op(self, name: str, fn, known_fault: bool = False) -> None:
        self.attempted += 1
        try:
            checks = list(fn())
        except Exception as exc:  # an operation that raises has failed
            checks = [(False, f"raised {type(exc).__name__}: {exc}")]
        bad = [detail for ok, detail in checks if not ok]
        if bad:
            self.failed += 1
            (self.known if known_fault else self.problems).append(f"{name}: {'; '.join(bad)}")

    def binomial(self, key: str, k: int, n: int, seconds: float) -> None:
        self.estimates[key] = ("binomial", (k, n), seconds)

    def mean(self, key: str, values, seconds: float) -> None:
        values = np.asarray(values, dtype=float)
        self.estimates[key] = ("mean", (values.size, float(values.mean()),
                                        float(values.var(ddof=1))), seconds)

    def interval(self, key: str, half_width: float, seconds: float) -> None:
        self.estimates[key] = ("interval", (half_width,), seconds)


def _wilson_matches(est, k_surv: int, n: int) -> tuple[bool, str]:
    """The reported 99% interval is the Wilson interval of the survivors."""
    half = O.wilson_half_width(k_surv, n)
    z = O.Z99
    center = (k_surv / n + z * z / (2 * n)) / (1.0 + z * z / n)
    lo, hi = max(0.0, center - half), min(1.0, center + half)
    ok = abs(est.ci_low - lo) <= 1e-9 and abs(est.ci_high - hi) <= 1e-9
    return ok, f"ci [{est.ci_low:.6g}, {est.ci_high:.6g}] vs Wilson [{lo:.6g}, {hi:.6g}]"


def _survivors(est) -> int:
    return int(round(est.survival * est.paths))


# ---------------------------------------------------------------------------
# alpha_oracle_mc
# ---------------------------------------------------------------------------

#: claims per path; the tilted walk reaches z = 20 in about 20 claims
ALPHA_HORIZON = 128
#: paths per capital; the deep tail needs more to see any ruin at all
ALPHA_PATHS = {1.0: CHUNK, 5.0: CHUNK, 10.0: CHUNK, 20.0: 8 * CHUNK}
ALPHA_VOLTERRA_Z = 5.0


def alpha_oracle_mc(w, r: Round) -> None:
    for i, z in enumerate(M.ALPHA_CAPITALS):
        def op(z=z, seed=r.seeds[i]):
            paths = ALPHA_PATHS[z]
            est, t = timed(ru.mc_ruin, w.models[z], horizon_claims=ALPHA_HORIZON,
                           paths=paths, seed=seed)
            k = _survivors(est)
            r.binomial(f"mc_ruin.z{z:g}", k, paths, t)
            return [O.check_binomial(paths - k, paths, 1.0 - float(O.alpha_exp_survival(z))),
                    _wilson_matches(est, k, paths)]
        r.op(f"mc_ruin z={z:g}", op)

    def volterra():
        z = ALPHA_VOLTERRA_Z
        est = ru.alpha_ruin(z ** (1.0 / M.ALPHA), w.models[z])
        return [O.check_close(est.survival, float(O.alpha_exp_survival(z)), 1e-4)]
    r.op("alpha_ruin volterra", volterra)


# ---------------------------------------------------------------------------
# kendall_walks
# ---------------------------------------------------------------------------

KENDALL_HORIZONS = (200, 800)
KENDALL_T = 50.0            # mc_ruin_finite_t: Poisson(50) claims, below 200 w.p. 1 - 1e-40
SAFETY_T = 2.0
TERMINAL_PATHS = 4 * CHUNK
TERMINAL_CAP = 20.0         # moments are checked on min(X^alpha, cap)
MAX_HORIZON = 2000
RECURSION = dict(v=0.5, u=1.0, paths_outer=2000, paths_inner=200, horizon=16)


def kendall_walks(w, r: Round) -> None:
    s = r.seeds
    short = {}

    def horizons():
        out = []
        ests = []
        for h in KENDALL_HORIZONS:
            est, t = timed(ru.mc_ruin, w.ruin_model, horizon_claims=h, paths=CHUNK, seed=s[0])
            r.binomial(f"mc_ruin.h{h}", _survivors(est), CHUNK, t)
            out.append(_wilson_matches(est, _survivors(est), CHUNK))
            ests.append(est)
        a, b = (_survivors(e) for e in ests)
        out.append((b <= a, f"survivors {a} at {KENDALL_HORIZONS[0]} claims, "
                            f"{b} at {KENDALL_HORIZONS[1]} on one seed"))
        short["est"] = ests[0]
        return out
    r.op("mc_ruin two horizons", horizons)

    def finite_t():
        est, t = timed(ru.mc_ruin_finite_t, w.ruin_model, KENDALL_T, paths=CHUNK, seed=s[1])
        k = _survivors(est)
        r.binomial("mc_ruin_finite_t", k, CHUNK, t)
        out = [_wilson_matches(est, k, CHUNK)]
        # surviving Poisson(50) claims is implied by surviving 200 claims
        ref = short.get("est")
        if ref is not None:
            p1, p2 = est.survival, ref.survival
            se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / CHUNK)
            out.append((p1 - p2 >= -O.Z_REJECT * se,
                        f"survival by t={KENDALL_T:g} {p1:.4f} vs "
                        f"{KENDALL_HORIZONS[0]} claims {p2:.4f}"))
        return out
    r.op("mc_ruin_finite_t", finite_t)

    def safety():
        m = w.safety_model
        a = M.KENDALL_ALPHA
        rep = ri.safety_condition_kendall(m, SAFETY_T)
        claims = O.kendall_claim_moment(m.lam, SAFETY_T, M.KENDALL_C, a)
        margin = O.kendall_margin(m.u, a)
        ex = rep.extras
        return [O.check_close(ex["margin_definition"], margin, 1e-9),
                O.check_close(ex["claim_side_alpha_moment"], claims, 1e-9),
                O.check_close(ex["premium_side_alpha_moment"], margin + claims, 1e-9)]
    r.op("safety_condition_kendall", safety)

    def terminal():
        m, a = w.safety_model, M.KENDALL_ALPHA
        lam_t = m.lam * SAFETY_T
        out = []
        for key, start, seed in (("claims", 0.0, s[2]), ("premiums", m.u, s[4])):
            x, t = timed(ri.mc_poisson_terminal, w.alg, w.law, m.lam, SAFETY_T,
                         TERMINAL_PATHS, seed=seed, start=start)
            r.mean(f"terminal.{key}", np.minimum(x**a, TERMINAL_CAP), t)
            out += O.check_kendall_terminal(x, lam_t, M.KENDALL_C, a, start, TERMINAL_CAP)
        return out
    r.op("mc_poisson_terminal moments", terminal)

    def recursion():
        res, t = timed(ru.kendall_lambda_recursion_check, RECURSION["v"], RECURSION["u"],
                       w.recursion_model, paths_outer=RECURSION["paths_outer"],
                       paths_inner=RECURSION["paths_inner"], horizon=RECURSION["horizon"],
                       seed=s[3])
        r.interval("recursion_residual", 0.5 * (res.ci_high - res.ci_low), t)
        return [O.check_residual(res.residual, res.lhs, res.rhs, RECURSION["paths_outer"])]
    r.op("kendall_lambda_recursion_check", recursion)

    def max_engine():
        # the same paired-walk engine on the max model, which stops early
        # once every live premium walk has passed the claim supremum
        est, t = timed(ru.mc_ruin, w.max_model, horizon_claims=MAX_HORIZON, paths=CHUNK,
                       seed=s[5])
        k = _survivors(est)
        r.binomial("mc_ruin.max", k, CHUNK, t)
        want = float(O.max_uniform_survival(w.max_model.u, 1.0, 2.0))
        return [O.check_binomial(k, CHUNK, want), _wilson_matches(est, k, CHUNK)]
    r.op("mc_ruin max model", max_engine)


# ---------------------------------------------------------------------------
# generic_sampler
# ---------------------------------------------------------------------------

GENERIC_STEPS = 3
#: generic paths per algebra: about 0.7 s of Kingman and 0.8 s of Kendall-type moves
GENERIC_PATHS = {"kingman": 300, "kendall_type": 40}
CHAR_T = (0.4, 1.2)


def _kernel(kind):
    """The algebra's kernel and its range."""
    if kind == "kingman":
        def kern(t):
            return O.kingman_kernel(M.KINGMAN_S, t)
        return kern, float(kern(np.linspace(0.0, 50.0, 50001)).min()) - 1e-3, 1.0
    return (lambda t: O.kendall_type_kernel(M.KENDALL_TYPE_P, t)), 0.0, 1.0


def generic_sampler(w, r: Round) -> None:
    for j, kind in enumerate(("kingman", "kendall_type")):
        alg = getattr(w, kind)
        kern, lo, hi = _kernel(kind)
        phi = {t: O.uniform_char_fn(kern, t) for t in CHAR_T}
        fast_out = {}

        def char():
            return [O.check_close(co.char_fn(alg, w.step, t), phi[t], 1e-7) for t in CHAR_T]
        r.op(f"{kind} char_fn", char)

        def power_check(sample, tag, seconds):
            out = []
            for t in CHAR_T:
                vals = kern(t * sample)
                out.append(O.check_bounded_mean(vals, phi[t] ** GENERIC_STEPS, lo, hi))
            r.mean(f"{kind}.{tag}.omega", kern(CHAR_T[0] * sample), seconds)
            return out

        def fast(alg=alg, seed=r.seeds[2 * j]):
            x, t = timed(wa.simulate_terminal, alg, w.step, GENERIC_STEPS, CHUNK, seed=seed)
            fast_out["x"] = x
            return power_check(x, "fast", t)
        r.op(f"{kind} simulate_terminal", fast)

        def generic(alg=alg, seed=r.seeds[2 * j + 1]):
            x, t = timed(wa.simulate_terminal_generic, alg, w.step, GENERIC_STEPS,
                         GENERIC_PATHS[kind], seed=seed)
            out = power_check(x, "generic", t)
            if "x" in fast_out:
                out.append(O.check_ks2(fast_out["x"], x))
            return out
        r.op(f"{kind} simulate_terminal_generic", generic)


# ---------------------------------------------------------------------------
# analytic_cli
# ---------------------------------------------------------------------------

#: the README's four CLI examples
MAX_MODEL = ('{"algebra": {"kind": "max"}, "claim_law": {"family": "uniform", "a": 0, "b": 1}, '
             '"premium_law": {"family": "uniform", "a": 0, "b": 2}}')
ALPHA_MODEL = ('{"algebra": {"kind": "alpha_stable", "alpha": 1.0}, '
               '"claim_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0}, '
               '"premium_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0}, '
               '"beta": 2.0}')
KENDALL_MODEL = ('{"algebra": {"kind": "kendall", "alpha": 1.0}, '
                 '"claim_law": {"family": "lom_kendall", "c": 1.0, "alpha": 1.0}, '
                 '"premium_law": {"family": "lom_kendall", "c": 1.0, "alpha": 1.0}, '
                 '"u": 1.0, "lambda": 2.0}')
WALK_ALGEBRA = '{"kind": "kendall", "alpha": 1.0}'
WALK_STEP = '{"family": "uniform", "a": 0, "b": 1}'
WALK_N, WALK_PATHS = 5, 10000
VOLTERRA_FINE = dict(z_max=20.0, steps=8000)
MAX_GRID = np.linspace(0.0, 1.25, 51)
MOMENT_ORDER = 1.2
TRANSFORM_T = (0.3, 1.0, 2.5)


def run_cli(out: Path, *args: str) -> int:
    """One in-process ``gcruin`` invocation; its one-line summary is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["--out", str(out), *args])


def _rc(rc: int, want: int = 0) -> tuple[bool, str]:
    return rc == want, f"exit code {rc}, expected {want}"


def analytic_cli(w, r: Round) -> None:
    tmp, seed = r.tmp, r.seeds[0]

    def cli_max():
        rc = run_cli(tmp / "max", "ruin", "--model", MAX_MODEL, "--u", "0.5")
        _, rows = O.read_csv_rows(tmp / "max" / "ruin.csv")
        return [_rc(rc), O.check_close(float(rows[0][1]),
                                       float(O.max_uniform_survival(0.5, 1.0, 2.0)), 1e-9)]
    r.op("cli ruin max closed form", cli_max)

    def cli_alpha():
        rc = run_cli(tmp / "alpha", "ruin", "--model", ALPHA_MODEL, "--u-grid", "0:5:51")
        path = tmp / "alpha" / "ruin.csv"
        _, rows = O.read_csv_rows(path)
        err = max(abs(float(row[1]) - float(O.alpha_exp_survival(float(row[0]))))
                  for row in rows)
        return [_rc(rc), O.check_csv_finite(path, ["u", "survival", "ruin"]),
                (len(rows) == 51 and err <= 1e-4, f"{len(rows)} rows, max error {err:.3g}")]
    r.op("cli ruin alpha volterra grid", cli_alpha)

    def cli_safety():
        rc = run_cli(tmp / "safety", "safety", "--model", KENDALL_MODEL, "--t", "1.0")
        ex = json.loads((tmp / "safety" / "safety.json").read_text())["extras"]
        claims = O.kendall_claim_moment(2.0, 1.0, 1.0, 1.0)
        margin = O.kendall_margin(1.0, 1.0)
        return [_rc(rc), O.check_close(ex["margin_definition"], margin, 1e-9),
                O.check_close(ex["claim_side_alpha_moment"], claims, 1e-9),
                O.check_close(ex["premium_side_alpha_moment"], margin + claims, 1e-9)]
    r.op("cli safety kendall", cli_safety)

    def cli_walk():
        args = ["walk", "--algebra", WALK_ALGEBRA, "--step-law", WALK_STEP,
                "--n", str(WALK_N), "--paths", str(WALK_PATHS), "--seed", str(seed)]
        rc1, t = timed(run_cli, tmp / "walk1", *args)
        rc2 = run_cli(tmp / "walk2", *args)
        a = (tmp / "walk1" / "walk.csv").read_bytes()
        b = (tmp / "walk2" / "walk.csv").read_bytes()
        _, rows = O.read_csv_rows(tmp / "walk1" / "walk.csv")
        x = np.array([float(row[0]) for row in rows])
        k = int(np.count_nonzero(x <= 1.0))
        r.binomial("cli_walk.cdf1", k, x.size, t)
        p1 = float(O.kendall_uniform_n_step_cdf(1.0, WALK_N, 1.0))
        return [_rc(rc1), _rc(rc2), (a == b, "two identical invocations, byte-identical CSVs"),
                O.check_ks(x, lambda v: O.kendall_uniform_n_step_cdf(v, WALK_N, 1.0)),
                O.check_binomial(k, x.size, p1)]
    r.op("cli walk kendall", cli_walk)

    def cli_nan():
        # invalid capital: the CLI must exit 2 and write no NaN row
        out = tmp / "nan"
        rc = run_cli(out, "ruin", "--model", ALPHA_MODEL, "--u", "nan")
        checks = [_rc(rc, 2)]
        if (out / "ruin.csv").exists():
            checks.append(O.check_csv_finite(out / "ruin.csv", ["u", "survival", "ruin"]))
        return checks
    r.op("cli ruin --u nan", cli_nan, known_fault=True)

    def volterra():
        F = w.exp_law
        grid = ru.alpha_ruin_volterra(F, 1.0, 2.0, **VOLTERRA_FINE)
        err = float(np.max(np.abs(grid.delta_values - O.alpha_exp_survival(grid.z_grid))))
        resid = ru.volterra_residual(grid, F, 1.0, 2.0)
        lap = max(ru.alpha_ruin_laplace_check(grid, F, 1.0, 2.0, [0.5, 1.0, 2.0]))
        return [(err <= 1e-5, f"max error vs 1 - e^(-z/2)/2: {err:.3g}"),
                (resid <= 1e-9, f"volterra_residual {resid:.3g}"),
                (lap <= 1e-5, f"Laplace residual {lap:.3g}")]
    r.op("alpha_ruin_volterra fine grid", volterra)

    def max_ode():
        grid = ru.max_ruin_ode(w.max_claim, w.max_premium, MAX_GRID)
        err = float(np.max(np.abs(grid.delta_values
                                  - O.max_uniform_survival(MAX_GRID, 1.0, 2.0))))
        res = max(ru.max_ruin_integral_residual(w.max_claim, w.max_premium, u)
                  for u in (0.25, 0.75))
        return [(err <= 1e-8, f"max error vs closed form {err:.3g}"),
                (res <= 1e-6, f"integral residual {res:.3g}")]
    r.op("max_ruin_ode 51-point grid", max_ode)

    def transforms():
        L = w.lom_kendall
        out = []
        for t in TRANSFORM_T:
            want = float(O.lom_kendall_transform(t, M.KENDALL_C, M.KENDALL_ALPHA))
            forms = (float(wi.williamson_transform(L, M.KENDALL_ALPHA, t)),
                     wi.transform_form1(L, M.KENDALL_ALPHA, t),
                     wi.transform_form2(L, M.KENDALL_ALPHA, t))
            out += [O.check_close(v, want, 1e-8) for v in forms]
        return out
    r.op("williamson three forms", transforms)

    def inversion():
        pair = wi.kendall_pair(w.uniform, 1.0)
        out = []
        for t in (0.3, 0.7, 1.5):
            out.append(O.check_close(float(pair.H(t)), float(O.kendall_uniform_H(t, 1.0)), 1e-12))
            out.append(O.check_close(wi.williamson_invert(pair.H, 1.0, t), min(t, 1.0), 1e-6))
            out.append(O.check_close(wi.williamson_invert(pair.H, 1.0, t, dH=pair.dH),
                                     min(t, 1.0), 1e-12))
        return out
    r.op("williamson inversion round trip", inversion)

    a = MOMENT_ORDER
    closed = {
        "uniform": O.moment_uniform(0.5, 2.0, a),
        "lom_alpha": O.moment_weibull(2.0, 1.5, a),
        "pareto2a": O.moment_pareto_2a(1.0, a),
        "lom_kendall": O.moment_lom_kendall(2.0, 1.5, a),
    }
    for fam, want in closed.items():
        def moment(fam=fam, want=want):
            got = me.moment_alpha(w.families[fam], a)
            return [O.check_close(got, want, 1e-6 * want)]
        r.op(f"moment_alpha {fam}", moment)

    def heavy():
        # tail x^(-alpha-1): finite, but the divergence heuristic gives up
        want = O.moment_pareto_2a(0.5, 0.5)
        return [O.check_close(me.moment_alpha(w.heavy_pareto, 0.5), want, 1e-6 * want)]
    r.op("moment_alpha pareto_2alpha(0.5) at 0.5", heavy, known_fault=True)


PARTS = {
    "alpha_oracle_mc": alpha_oracle_mc,
    "kendall_walks": kendall_walks,
    "generic_sampler": generic_sampler,
    "analytic_cli": analytic_cli,
}


def run_round(workload: str, objs: dict, seed: int, index: int, tmp: Path) -> Round:
    """One round: every part of the workload once, timed as a whole."""
    r = Round(tmp)
    start = time.perf_counter()
    for j, part in enumerate(M.WORKLOADS[workload]):
        r.seeds = [int(v) for v in np.random.SeedSequence([seed, index, j]).generate_state(8)]
        PARTS[part](objs[part], r)
    r.wall = time.perf_counter() - start
    return r
