"""gcruin benchmark: run one workload closed-loop and print its metrics.

Usage:
    python3 gcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (the sources are imported from ``src/``).  One
process runs whole rounds of the workload's fixed operation list, each
starting when the previous one ends, until ``--seconds`` have passed.  Every
operation's output is checked (``oracles.py``).  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds alternate and it holds the per-layer metrics.  Without
``--workload`` every workload runs, each in its own process.  Results and
spans go to ``gcbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "gcbench-out"

#: the names in models.WORKLOADS, known before gcruin is imported
WORKLOADS = ("alpha_oracle_mc", "walks_and_solvers")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

PER_LAYER = [
    "measures.Distribution.sample.calls",
    "measures.Distribution.sample.draws",
    "measures.Distribution.sample.self_s",
    "measures.Distribution.quantile.calls",
    "measures.Distribution.quantile.self_s",
    "measures.moment_alpha.calls",
    "measures.moment_alpha.self_s",
    "convolutions.convolve_points.calls",
    "convolutions.convolve_points.self_s",
    "convolutions.char_fn.calls",
    "convolutions.char_fn.self_s",
    "convolutions.kendall_type.self_s",
    *(f"williamson.{fn}.{q}"
      for fn in ("williamson_transform", "transform_form1", "transform_form2",
                 "williamson_invert", "kendall_pair")
      for q in ("calls", "self_s")),
    "walks.apply_step_batch.calls",
    "walks.apply_step_batch.elements",
    "walks.apply_step_batch.self_s",
    *(f"walks.apply_step_batch.{kind}.self_s"
      for kind in ("kendall", "kingman", "kendall_type", "max")),
    "walks.simulate_terminal.self_s",
    "walks.simulate_terminal_generic.moves",
    "walks.simulate_terminal_generic.self_s",
    "risk.mc_poisson_terminal.self_s",
    "risk.safety_condition_kendall.self_s",
    "ruin.mc_ruin.calls",
    "ruin.mc_ruin.paths",
    "ruin.mc_ruin.self_s",
    "ruin.mc_ruin.steps_per_path",
    "ruin.mc_ruin_finite_t.self_s",
    "ruin.kendall_lambda_recursion_check.self_s",
    "ruin.alpha_ruin.calls",
    "ruin.alpha_ruin_volterra.calls",
    "ruin.alpha_ruin_volterra.steps",
    "ruin.alpha_ruin_volterra.self_s",
    "ruin.volterra_residual.self_s",
    "ruin.alpha_ruin_laplace_check.self_s",
    "ruin.max_ruin_ode.calls",
    "ruin.max_ruin_ode.self_s",
    "ruin.max_ruin_integral_residual.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    # accounting of the traced rounds
    "bench.untraced_round_s",
    "bench.traced_round_s",
    "bench.trace_overhead_s",
    "bench.top_level_spans_s",
    "bench.outside_spans_s",
]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("steps_per_path"):
        return "steps/path"
    return "count"


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return nproc


def setup_seconds(workload: str) -> list[float]:
    """Fresh-process import plus build, SETUP_PROBES times."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def pooled_efficiency(rounds) -> float:
    """Geometric mean over estimates of 1/(h^2 t), each estimate pooled over
    the run's rounds: h is the 99% half-width of the pooled estimate and t
    the total seconds spent on it."""
    import oracles as O

    logs = []
    for key in rounds[0].estimates:
        entries = [r.estimates[key] for r in rounds]
        kind = entries[0][0]
        seconds = sum(e[2] for e in entries)
        if kind == "binomial":
            k = sum(e[1][0] for e in entries)
            n = sum(e[1][1] for e in entries)
            h = O.wilson_half_width(k, n)
        elif kind == "mean":
            n = sum(e[1][0] for e in entries)
            mean = sum(e[1][0] * e[1][1] for e in entries) / n
            ss = sum((e[1][0] - 1) * e[1][2] + e[1][0] * (e[1][1] - mean) ** 2
                     for e in entries)
            h = O.Z99 * math.sqrt(ss / (n - 1) / n)
        else:  # interval: the mean of R independent estimates
            h = math.sqrt(sum(e[1][0] ** 2 for e in entries)) / len(entries)
        logs.append(-math.log(h * h * seconds))
    return math.exp(sum(logs) / len(logs))


def run_rounds(name, objs, seed, seconds, tmp, tracer=None):
    """Whole rounds until `seconds` pass.  With a tracer, each round is run
    untraced and traced on the same seeds, in alternating order, so that a
    drift in machine speed cancels from the paired differences."""
    import workloads

    plain, traced = [], []

    def one(i, tag):
        d = tmp / f"{tag}{i}"
        d.mkdir(parents=True)
        rnd = workloads.run_round(name, objs, seed, i, d)
        shutil.rmtree(d)
        return rnd

    begin = time.perf_counter()
    i = 0
    def one_traced(i):
        tracer.install()
        try:
            rnd = one(i, "t")
        finally:
            tracer.uninstall()
        rnd.spans = tracer.take()
        traced.append(rnd)

    while i == 0 or time.perf_counter() - begin < seconds:
        if tracer is not None and i % 2:
            one_traced(i)
        plain.append(one(i, "r"))
        if tracer is not None and not i % 2:
            one_traced(i)
        i += 1
    return plain, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload; all of them, one process each, when omitted")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"non-negative input seed (default {DEFAULT_SEED}; "
                        f"held out for confirming claims: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    nproc = cap_threads()
    if not (SRC / "gcruin" / "__init__.py").is_file():
        print(f"error: no gcruin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    OUT.mkdir(exist_ok=True)
    setup = setup_seconds(args.workload)

    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy
    import gcruin

    if Path(gcruin.__file__).resolve().parent != SRC / "gcruin":
        print(f"error: imported gcruin from {gcruin.__file__}", file=sys.stderr)
        return 2
    import models
    import tracing

    tracer = tracing.Tracer(gcruin) if args.trace else None
    if tracer:
        tracer.install()
    try:
        objs = models.build(args.workload)
    finally:
        if tracer:
            tracer.uninstall()
    setup_spans = tracer.take() if tracer else []

    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        plain, traced = run_rounds(args.workload, objs, args.seed, args.seconds, tmp, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rounds = plain + traced
    problems = [msg for r in rounds for msg in r.problems]

    if args.trace:
        per_round = []
        for r_plain, r_traced in zip(plain, traced):
            m = tracing.layer_metrics(setup_spans, r_traced.spans)
            top = tracing.top_level_seconds(r_traced.spans)
            m.update({"bench.untraced_round_s": r_plain.wall,
                      "bench.traced_round_s": r_traced.wall,
                      "bench.trace_overhead_s": r_traced.wall - r_plain.wall,
                      "bench.top_level_spans_s": top,
                      "bench.outside_spans_s": r_traced.wall - top})
            per_round.append(m)
        values = {k: statistics.median(m.get(k, 0.0) for m in per_round) for k in PER_LAYER}
        metrics = {k: {"value": values[k], "unit": unit_of(k)} for k in PER_LAYER}
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for phase, spans in (("setup", setup_spans), ("round", traced[-1].spans)):
                for s in spans:
                    fh.write(json.dumps({"phase": phase, **s._asdict()}) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(r.wall for r in plain), "unit": "s"},
            "mc_efficiency": {"value": pooled_efficiency(plain), "unit": "1/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"nproc": nproc, "numpy": numpy.__version__, "scipy": scipy.__version__,
                "python": platform.python_version(),
                "threads": {v: os.environ[v] for v in THREAD_VARS}},
        "setup_probes_s": setup,
        "rounds": [{"traced": r in traced, "wall_s": r.wall, "attempted": r.attempted,
                    "failed": r.failed, "problems": r.problems, "known_faults": r.known}
                   for r in rounds],
        "result": result,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)} rounds, nproc {nproc}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}; details in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results,
    naming each metric <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
