"""Set-up of each workload: the algebras, laws and risk models it runs on.

A workload is one or more parts, each a fixed list of operations in
``workloads.py`` with its own set-up here.  Building a workload is the work
``setup_s`` times in a fresh process, together with ``import gcruin``;
``probe.py`` and ``run.py`` both build through ``build``.
"""

from __future__ import annotations

from types import SimpleNamespace

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri

#: alpha-stable model: U^alpha ~ Exp(1), premiums beta * W with W^alpha ~ Exp(gamma)
ALPHA = 1.5
ALPHA_GAMMA = 1.0
ALPHA_BETA_ALPHA = 2.0
#: capitals in the z = u^alpha scale; z = 20 is the deep tail, ruin about 2e-5
ALPHA_CAPITALS = (1.0, 5.0, 10.0, 20.0)
#: Kendall walks: lack-of-memory laws min{(cx)^a, 1}, loaded premiums
KENDALL_ALPHA = 1.0
KENDALL_C = 1.0
KENDALL_BETA = 4.0
KENDALL_U = 2.0
#: generic sampler: Kingman index and Kendall-type exponent
KINGMAN_S = 0.5
KENDALL_TYPE_P = 3.0


def build_alpha_oracle_mc():
    alg = co.alpha_stable(ALPHA)
    law = me.lom_alpha(ALPHA_GAMMA, ALPHA)
    beta = ALPHA_BETA_ALPHA ** (1.0 / ALPHA)
    models = {z: ri.RiskModel(alg, law, law, u=z ** (1.0 / ALPHA), beta=beta)
              for z in ALPHA_CAPITALS}
    return SimpleNamespace(alg=alg, law=law, models=models)


def build_kendall_walks():
    alg = co.kendall(KENDALL_ALPHA)
    law = me.lom_kendall(KENDALL_C, KENDALL_ALPHA)
    return SimpleNamespace(
        alg=alg, law=law,
        ruin_model=ri.RiskModel(alg, law, law, u=KENDALL_U, beta=KENDALL_BETA),
        safety_model=ri.RiskModel(alg, law, law, u=KENDALL_U, lam=1.0),
        recursion_model=ri.RiskModel(alg, law, law, u=1.0, beta=2.0),
        max_model=ri.RiskModel(co.max_algebra(), me.uniform(0.0, 1.0), me.uniform(0.0, 2.0),
                               u=0.5),
    )


def build_generic_sampler():
    return SimpleNamespace(
        step=me.uniform(0.0, 1.0),
        kingman=co.kingman(KINGMAN_S),
        kendall_type=co.kendall_type(KENDALL_TYPE_P),
    )


def build_analytic_cli():
    return SimpleNamespace(
        exp_law=me.lom_alpha(1.0, 1.0),
        max_claim=me.uniform(0.0, 1.0),
        max_premium=me.uniform(0.0, 2.0),
        lom_kendall=me.lom_kendall(KENDALL_C, KENDALL_ALPHA),
        uniform=me.uniform(0.0, 1.0),
        families={
            "uniform": me.uniform(0.5, 2.0),
            "lom_alpha": me.lom_alpha(2.0, 1.5),
            "pareto2a": me.pareto_2alpha(1.0),
            "lom_kendall": me.lom_kendall(2.0, 1.5),
        },
        heavy_pareto=me.pareto_2alpha(0.5),
    )


BUILDERS = {
    "alpha_oracle_mc": build_alpha_oracle_mc,
    "kendall_walks": build_kendall_walks,
    "generic_sampler": build_generic_sampler,
    "analytic_cli": build_analytic_cli,
}

#: each workload's parts, run in this order in every round
WORKLOADS = {
    "alpha_oracle_mc": ("alpha_oracle_mc",),
    "walks_and_solvers": ("kendall_walks", "generic_sampler", "analytic_cli"),
}


def build(workload: str) -> dict:
    return {part: BUILDERS[part]() for part in WORKLOADS[workload]}
