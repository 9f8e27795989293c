"""Command-line interface: reproducible scenario runs over all modules.

Configs are JSON (inline on the command line), tabular results are CSV, and
every run writes a metadata JSON (config echo, seed, version, timings) next
to the data file.  The seed defaults to a fixed constant, never wall-clock,
so identical invocations produce byte-identical data files.

Exit codes: 0 success, 2 validation error, 3 numeric failure (divergence or
certain-ruin diagnosis).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .convolutions import algebra_from_json, char_fn, convolve_points, dilate
from .measures import ParameterError, UnsupportedLawError, _check_finite, distribution_from_json
from .risk import RiskModel, safety_condition_kendall, safety_condition_max
from .ruin import (
    CertainRuinError,
    RuinEstimate,
    _absolutely_continuous,
    alpha_ruin_grid,
    has_max_closed_form,
    max_ruin_closed,
    max_ruin_ode,
    mc_ruin,
    mc_ruin_finite_t,
)
from .walks import simulate, simulate_terminal

__all__ = ["main", "DEFAULT_SEED"]

#: fixed documented default seed; never derived from the clock
DEFAULT_SEED = 123456789


class _ValidationError(Exception):
    pass


def _parse_json(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ValidationError(f"{what}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise _ValidationError(f"{what}: expected a JSON object")
    return obj


def _parse_grid(text: str, what: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise _ValidationError(f"{what}: expected 'start:stop:count', got {text!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _ValidationError(f"{what}: start and stop must be finite, got {text!r}")
    if n < 1 or b < a:
        raise _ValidationError(f"{what}: need count >= 1 and stop >= start")
    return np.linspace(a, b, n)


def _load_model(text: str) -> RiskModel:
    obj = _parse_json(text, "--model")
    for key in ("algebra", "claim_law", "premium_law"):
        if key not in obj:
            raise _ValidationError(f"--model: missing field '{key}'")
    try:
        return RiskModel(
            algebra=algebra_from_json(obj["algebra"]),
            claim_law=distribution_from_json(obj["claim_law"]),
            premium_law=distribution_from_json(obj["premium_law"]),
            u=float(obj.get("u", 0.0)),
            lam=float(obj.get("lambda", 1.0)),
            beta=float(obj.get("beta", 1.0)),
        )
    except (ParameterError, UnsupportedLawError, KeyError, TypeError) as exc:
        raise _ValidationError(f"--model: {exc}") from exc


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


def _json_safe(obj):
    """obj with every non-finite float replaced by its string "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    """Write obj as strict JSON: non-finite floats become strings, other
    non-JSON values their str()."""
    path.write_text(json.dumps(_json_safe(obj), indent=2, allow_nan=False, default=str) + "\n")


def _write_meta(out: Path, command: str, args_echo: dict, seed: int,
                elapsed: float, extra: dict | None = None) -> None:
    meta = {
        "command": command,
        "config": args_echo,
        "seed": seed,
        "version": __version__,
        "elapsed_seconds": round(elapsed, 6),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        # the generator behind every seeded stream (np.random.default_rng)
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        # bumped when a key above changes meaning or goes away
        "schema_version": 1,
    }
    if extra:
        meta.update(extra)
    _write_json(out / f"{command}_meta.json", meta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample(args, out: Path) -> dict:
    law = distribution_from_json(_parse_json(args.law, "--law"))
    values = law.sample(args.n, args.seed)
    _write_csv(out / "sample.csv", ["value"], ((float(v),) for v in values))
    print(f"sample: {args.n} draws written to {out / 'sample.csv'}")
    return {"rows": args.n}


def _cmd_convolve(args, out: Path) -> dict:
    alg = algebra_from_json(_parse_json(args.algebra, "--algebra"))
    law = convolve_points(alg, args.x, args.y)
    grid = _parse_grid(args.grid, "--grid")
    rows = [(float(z), float(law.cdf(z))) for z in grid]
    _write_csv(out / "convolve.csv", ["z", "cdf"], rows)
    print(f"convolve: delta_{args.x:g} <> delta_{args.y:g} under {alg.label()} "
          f"on {len(rows)} grid points")
    return {"algebra": alg.label(), "atoms": list(law.atoms)}


def _cmd_transform(args, out: Path) -> dict:
    alg = algebra_from_json(_parse_json(args.algebra, "--algebra"))
    law = distribution_from_json(_parse_json(args.law, "--law"))
    grid = _parse_grid(args.t_grid, "--t-grid")
    rows = [(float(t), float(char_fn(alg, law, float(t)))) for t in grid]
    _write_csv(out / "transform.csv", ["t", "phi"], rows)
    print(f"transform: characteristic function under {alg.label()} on {len(rows)} points")
    return {"algebra": alg.label()}


def _cmd_walk(args, out: Path) -> dict:
    alg = algebra_from_json(_parse_json(args.algebra, "--algebra"))
    law = distribution_from_json(_parse_json(args.step_law, "--step-law"))
    if args.full:
        rows = []
        for i in range(args.paths):
            path = simulate(alg, law, args.n, start=args.start, seed=args.seed + i)
            rows.extend((i, k, float(s)) for k, s in enumerate(path.states))
        _write_csv(out / "walk.csv", ["path", "step", "state"], rows)
    else:
        terminal = simulate_terminal(alg, law, args.n, args.paths,
                                     start=args.start, seed=args.seed)
        _write_csv(out / "walk.csv", ["terminal"], ((float(v),) for v in terminal))
    print(f"walk: {args.paths} paths of {args.n} steps under {alg.label()}")
    return {"algebra": alg.label(), "full": bool(args.full)}


def _cmd_safety(args, out: Path) -> dict:
    model = _load_model(args.model)
    if model.algebra.kind == "max":
        report = safety_condition_max(model, args.t)
    elif model.algebra.kind == "kendall":
        report = safety_condition_kendall(model, args.t)
    else:
        raise _ValidationError(
            f"safety conditions are implemented for the max and kendall algebras, "
            f"not {model.algebra.kind!r}")
    payload = asdict(report)
    _write_json(out / "safety.json", payload)
    definition = report.extras.get("margin_definition")
    shown = ("" if definition is None
             else f" (published formula; margin_definition {definition:.6g})")
    print(f"safety: margin {report.margin:.6g}{shown}, "
          f"condition {'holds' if report.condition_holds else 'fails'} at t={args.t:g}")
    return payload


def _auto_method(model: RiskModel) -> str:
    if model.algebra.kind == "alpha_stable":
        return "volterra"
    if has_max_closed_form(model):
        return "closed"
    if (model.algebra.kind == "max" and _absolutely_continuous(model.claim_law)
            and _absolutely_continuous(model.premium_law)):
        return "ode"
    return "mc"


def _ruin_one(model: RiskModel, method: str, u: float, args) -> RuinEstimate:
    if method == "ode":
        if model.algebra.kind != "max":
            raise _ValidationError("the ode method solves the max model only")
        grid = max_ruin_ode(model.claim_law, dilate(model.premium_law, model.beta), [u])
        surv = float(grid.delta_values[0])
        return RuinEstimate(surv, 1.0 - surv, method="ode")
    if method == "closed":
        return max_ruin_closed(u, model)
    if method == "mc":
        m = RiskModel(model.algebra, model.claim_law, model.premium_law,
                      u=u, lam=model.lam, beta=model.beta)
        if args.t is not None:
            return mc_ruin_finite_t(m, args.t, paths=args.paths, seed=args.seed,
                                    confidence=args.confidence)
        return mc_ruin(m, horizon_claims=args.horizon, paths=args.paths,
                       seed=args.seed, confidence=args.confidence)
    raise _ValidationError(f"unknown method {method!r}")


def _cmd_ruin(args, out: Path) -> dict:
    model = _load_model(args.model)
    if args.method != "auto":
        method = args.method
    else:
        method = "mc" if args.t is not None else _auto_method(model)
    if args.t is not None and method != "mc":
        raise _ValidationError(f"--t sets a finite horizon, which only the mc method "
                               f"solves; --method {method} is infinite-horizon")
    if args.u_grid is not None:
        us = _parse_grid(args.u_grid, "--u-grid")
    else:
        us = np.array([model.u if args.u is None else args.u])
    if method == "volterra":
        ests = alpha_ruin_grid([float(u) for u in us], model, steps=args.steps)
    else:
        ests = [_ruin_one(model, method, float(u), args) for u in us]
    rows = []
    diags = []
    for u, est in zip(us, ests):
        rows.append((float(u), est.survival, est.ruin,
                     "" if est.ci_low is None else est.ci_low,
                     "" if est.ci_high is None else est.ci_high,
                     est.method))
        diags.append(est.diagnostics)
    _write_csv(out / "ruin.csv", ["u", "survival", "ruin", "ci_low", "ci_high", "method"], rows)
    summary = {"method": method, "rows": len(rows), "diagnostics": diags}
    _write_json(out / "ruin_summary.json", summary)
    u0, s0 = rows[0][0], rows[0][1]
    print(f"ruin: method {method}, survival({u0:g}) = {s0:.6g} ({len(rows)} rows)")
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gcruin",
                                description="Generalized-convolution walks and ruin probabilities")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="draw from a distribution")
    s.add_argument("--law", required=True)
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)

    s = sub.add_parser("convolve", help="CDF of delta_x <> delta_y")
    s.add_argument("--algebra", required=True)
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--y", type=float, required=True)
    s.add_argument("--grid", default="0:10:101")

    s = sub.add_parser("transform", help="generalized characteristic function")
    s.add_argument("--algebra", required=True)
    s.add_argument("--law", required=True)
    s.add_argument("--t-grid", default="0:5:101")

    s = sub.add_parser("walk", help="simulate random walks")
    s.add_argument("--algebra", required=True)
    s.add_argument("--step-law", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--paths", type=int, default=1)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--start", type=float, default=0.0)
    s.add_argument("--full", action="store_true", help="emit full paths, not terminals")

    s = sub.add_parser("safety", help="first safety condition report")
    s.add_argument("--model", required=True)
    s.add_argument("--t", type=float, required=True)

    s = sub.add_parser("ruin", help="ruin/survival probabilities")
    s.add_argument("--model", required=True)
    s.add_argument("--method", default="auto",
                   choices=["auto", "volterra", "ode", "closed", "mc"])
    capital = s.add_mutually_exclusive_group()
    capital.add_argument("--u", type=float, default=None)
    capital.add_argument("--u-grid", default=None)
    s.add_argument("--t", type=float, default=None,
                   help="finite time horizon (MC only); omit for infinite horizon")
    s.add_argument("--paths", type=int, default=100_000)
    s.add_argument("--horizon", type=int, default=10_000)
    s.add_argument("--steps", type=int, default=2000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--confidence", type=float, default=0.99)
    return p


_HANDLERS = {
    "sample": _cmd_sample,
    "convolve": _cmd_convolve,
    "transform": _cmd_transform,
    "walk": _cmd_walk,
    "safety": _cmd_safety,
    "ruin": _cmd_ruin,
}


#: numeric options that must be finite when given
_FINITE_OPTIONS = ("u", "t", "x", "y", "start")


def _check_finite_options(args) -> None:
    _check_finite(**{f"--{name}": getattr(args, name, None) for name in _FINITE_OPTIONS})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        _check_finite_options(args)
        extra = _HANDLERS[args.command](args, out)
    except (_ValidationError, ParameterError, UnsupportedLawError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertainRuinError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    echo = {k: v for k, v in vars(args).items() if k != "command"}
    _write_meta(out, args.command, echo, int(getattr(args, "seed", DEFAULT_SEED)),
                elapsed, {"result": extra})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
