"""Golden outputs: fixed-seed samplers, pair laws, Monte Carlo estimators and
CLI data files, bit for bit.

The sampler and pair-law values were captured before the samplers' CDF
evaluation and bisection were sped up; the Monte Carlo values before the
chunked estimators were merged into one stream iterator and one paired-walk
kernel.  Any change to them is a change of results, not of speed.  Floats are
stored as ``float.hex`` strings and arrays as the sha256 of their float64
bytes, so the comparison is exact.
"""

import hashlib
import json

import numpy as np
import pytest

from gcruin import cli
from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri
from gcruin import ruin as ru
from gcruin import walks as wa

STEP = me.uniform(0.0, 1.0)

GENERIC_KINGMAN = (
    "0x1.42aaabdf8ad69p-1", "0x1.7d9da77271746p-2", "0x1.fdccfad3cf5c5p-1",
    "0x1.0074e66d7ef57p+0", "0x1.6e8e53f55348dp+0", "0x1.4a671be4e5c22p-1",
    "0x1.2b30c7bb49c98p-2", "0x1.a49ff75c882ebp-1", "0x1.6ae3360598eaap-1",
    "0x1.30574da12c388p+0", "0x1.1507534209f8bp+0", "0x1.c1d78a3a72406p-1",
    "0x1.657299b61e5cbp+0", "0x1.31d5f06039362p-1", "0x1.d738b8667ddf2p-1",
    "0x1.3db5c713145a2p-1", "0x1.711a64834235fp+0", "0x1.4d5afa9e2a8afp+0",
    "0x1.b1d7c14172078p-1", "0x1.d48b78decb1fdp-1",
)

GENERIC_KENDALL_TYPE = (
    "0x1.e6135a9d3ef68p-1", "0x1.634437d07049fp+2", "0x1.d84cd347c06e8p+0",
    "0x1.8707effbd3dd3p-1", "0x1.fbb677e9d2c32p-1", "0x1.6659a4c16bb23p-1",
    "0x1.e7d41ebc6a818p-2", "0x1.401e71f5a84d5p+0", "0x1.c347bfad220d2p+0",
    "0x1.c9f98cba3c886p+1", "0x1.4e076fb32538ap+2", "0x1.195721647675cp-1",
    "0x1.c990131bd80cbp-1", "0x1.28305a62b437ep+0", "0x1.97aa244829e92p-1",
    "0x1.17d8ea742b854p+0", "0x1.86a4c894da8e8p+0", "0x1.5a6a5eb80eaf6p+1",
    "0x1.ccd3d01f04198p-1", "0x1.40ad9084a208ep+0",
)

FAST_KENDALL_TYPE = (
    "0x1.4729e004e002ep+0", "0x1.1a668297380b6p+0", "0x1.eb9d29da7d652p+0",
    "0x1.39f59ee8c8b25p-1", "0x1.f748f942d6d2ap-1", "0x1.cc245f2d0b95fp+1",
    "0x1.2a7f8af873afep+1", "0x1.cb97041c1e72dp-1", "0x1.5e27413188788p+0",
    "0x1.f838293e43d00p-1", "0x1.85275c677ee3ep-1", "0x1.15d83346e18e2p+0",
    "0x1.759442c190ce3p-2", "0x1.0c6057bda4c15p+0", "0x1.c58c571eafa53p+0",
    "0x1.fc752290c35aap-1", "0x1.6bdade23dd1a0p+0", "0x1.0c672a7be13fap+0",
    "0x1.9f617bab55c2ep+0", "0x1.746f50b8d8dedp-1", "0x1.af99e840c6e67p+0",
    "0x1.e0658b9901903p-1", "0x1.0301dd7667388p+1", "0x1.16c5010ee0efep-1",
    "0x1.4ee0b89663f71p+2", "0x1.fc4b2106b75f6p-1", "0x1.c32886b1914e4p-2",
    "0x1.73dc10a37574bp+0", "0x1.1e61aa5a5e15fp+0", "0x1.c1a7e3b9a4517p-1",
    "0x1.8dd7f6d497f5fp-2", "0x1.2b3920e5cddb1p+1", "0x1.15f6b0db27b6ep+0",
    "0x1.0044aa4c90e03p+0", "0x1.70385720bb08dp+0", "0x1.d070afb4a80b1p-1",
    "0x1.e632ee90e4f32p-1", "0x1.365e4e7f4d3f2p+0", "0x1.07bf8c39b4d52p+0",
    "0x1.37ca7877fd286p+1", "0x1.c86fd8f85b027p-1", "0x1.0a58d21ca01c3p-1",
    "0x1.e463e7cd84582p-1", "0x1.dbee73d4b85cep+0", "0x1.3b7247854f838p+0",
    "0x1.4a6a6c236b4f8p-1", "0x1.1fdedfd245f31p+0", "0x1.676b148c83c9ap+0",
    "0x1.a86eaa64867e1p+0", "0x1.53397c1aad190p+0", "0x1.f19fc443ea12dp-1",
    "0x1.086438138b6dcp+0", "0x1.7808fb6a2e688p-1", "0x1.26a8ceecea765p+1",
    "0x1.16766004c4cbfp+0", "0x1.16456d7b21290p+1", "0x1.ee86a7f7ad3e4p-2",
    "0x1.6911210b613a9p-1", "0x1.8ad814c545863p-1", "0x1.cf25d87864bdep-2",
    "0x1.501b41f4ceadap+0", "0x1.d91291eab6caep-2", "0x1.3300312f05f32p+0",
    "0x1.e028b5703ae8ap-1",
)

KINGMAN_PAIR = {
    0.2: {
        "cdf": (
            "0x0.0p+0", "0x0.0p+0", "0x1.c6200c217493bp-7",
            "0x1.6a567237f0bddp-3", "0x1.91283b3bf45f0p-2", "0x1.51005e9f9ed5cp-1",
            "0x1.efa069624e3dap-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ),
        "quantile": (
            "0x1.3333333333336p-1", "0x1.333333333497bp-1", "0x1.366c3be1aa7a8p-1",
            "0x1.0ad32ac77343bp+0", "0x1.79fabe917e2f5p+0", "0x1.cf2faa3e1615dp+0",
            "0x1.ff8389634a514p+0", "0x1.ffffffffffca8p+0", "0x1.0000000000000p+1",
        ),
        "density": (
            "0x0.0p+0", "0x0.0p+0", "0x1.f5194d634e355p-1",
            "0x1.03b27d84e744cp-1", "0x1.2a8f146660e01p-1", "0x1.9116fe282dc86p-1",
            "0x1.1e5f945077d84p+1", "0x0.0p+0", "0x0.0p+0",
        ),
    },
    0.5: {
        "cdf": (
            "0x0.0p+0", "0x0.0p+0", "0x1.b3b4d4e6e8000p-9",
            "0x1.fa5fa5fa5fa5cp-4", "0x1.7627627627627p-2", "0x1.63de3de3de3ddp-1",
            "0x1.fa633fcd96730p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ),
        "quantile": (
            "0x1.3333333333339p-1", "0x1.3333334d41924p-1", "0x1.425b54b68a439p-1",
            "0x1.207f52388ce41p+0", "0x1.79fabe917e2f5p+0", "0x1.c201c6612284ap+0",
            "0x1.fdaa426a28ec2p+0", "0x1.fffffffc1771cp+0", "0x1.fffffffffffffp+0",
        ),
        "density": (
            "0x0.0p+0", "0x0.0p+0", "0x1.5735735735737p-2",
            "0x1.fa5fa5fa5fa5cp-2", "0x1.6db6db6db6db4p-1", "0x1.de3de3de3de3bp-1",
            "0x1.17e97e97e97e9p+0", "0x0.0p+0", "0x0.0p+0",
        ),
    },
    1.8: {
        "cdf": (
            "0x0.0p+0", "0x0.0p+0", "0x1.1d3456812361ep-17",
            "0x1.fc89945bb74b4p-6", "0x1.27780ef806b39p-2", "0x1.97660d24dc740p-1",
            "0x1.ffeecac7556abp-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        ),
        "quantile": (
            "0x1.3333392eabbeep-1", "0x1.334d068028b36p-1", "0x1.96299ef0ab7a5p-1",
            "0x1.430e3f5416f53p+0", "0x1.79fabe917e2f5p+0", "0x1.a9e0bf80cf2d5p+0",
            "0x1.ee76dcb89858dp+0", "0x1.fffc20209f34dp+0", "0x1.ffffff0f984c4p+0",
        ),
        "density": (
            "0x0.0p+0", "0x0.0p+0", "0x1.020457383c9d1p-9",
            "0x1.14dfc09cb2523p-2", "0x1.0cdb6fbf62042p+0", "0x1.38d31fbea04a5p+0",
            "0x1.eb5718d2e6ccdp-6", "0x0.0p+0", "0x0.0p+0",
        ),
    },
}

TABLE_QUANTILE = (
    "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
    "0x1.0000000000001p-1", "0x1.0000000000000p+1", "0x1.0000000000000p+1",
    "0x1.199999999999bp+1",
)


#: sha256 of the README alpha-model ``ruin --u-grid 0:5:51`` outputs
ALPHA_GRID_CSV_SHA256 = "6015cb495be21f9feb8009fc1631a8e9fcc87a84dfa6fe91d97c3276b4cbd336"
ALPHA_GRID_SUMMARY_SHA256 = "5ab95030a23f288a9081f071619c34154ad476bebda69a8ef8479a2024f2aebd"

MC_RUIN = {
    "kendall": (
        "0x1.911421cc4da78p-1", "0x1.932be732b6741p-1",
        "0x1.922c032fa6c9cp-1", "0x1.90a42e0af6cd0p-1",
    ),
    "max": (
        "0x1.82f5ad2110623p-1", "0x1.82c5b2607d724p-1",
        "0x1.8235c21ec4a28p-1", "0x1.84e576e6febc2p-1",
    ),
    "alpha": (
        "0x1.65f0d9a8319a9p-1", "0x1.6868948fc0470p-1",
        "0x1.6508f3056b684p-1", "0x1.6461056369208p-1",
    ),
    "kendall_type": (
        "0x1.bbdf738f5c51ep-1", "0x1.bef71cf8d4c8cp-1",
        "0x1.b9e7aaa9557aap-1", "0x1.bdaf40d4e8b69p-1",
    ),
}

MC_RUIN_FINITE_T = {
    "kendall": (
        "0x1.ea9a571e78aadp-1", "0x1.ea9257fe602d8p-1",
        "0x1.ebc236c202c7bp-1", "0x1.eb4a43e0936fep-1",
    ),
    "max": (
        "0x1.91f4094efb5c8p-1", "0x1.910c22ac352a3p-1",
        "0x1.9184158da4820p-1", "0x1.93f3d1551ab11p-1",
    ),
    "alpha": (
        "0x1.972b773ef51d3p-1", "0x1.97db64010fe24p-1",
        "0x1.96cb81bdcf3d5p-1", "0x1.9b0b0acad1d11p-1",
    ),
    "kendall_type": (
        "0x1.f3795eb9a3b22p-1", "0x1.f3316698c74a3p-1",
        "0x1.f3d1551ab114ap-1", "0x1.f2f16d98035fap-1",
    ),
}

RECURSION_CHECK = {
    0: (
        "0x1.bc28f5c28f5c3p-1", "0x1.bf8a0902de00dp-1",
        "-0x1.b089a02752500p-8", "-0x1.c4b2ee0df3f44p-5",
        "0x1.589086041f604p-5",
    ),
    1: (
        "0x1.bd70a3d70a3d7p-1", "0x1.bc985f06f6945p-1",
        "0x1.b089a02752400p-10", "-0x1.838d7ed9a1b93p-5",
        "0x1.9e9618dc16dd3p-5",
    ),
    2: (
        "0x1.bd70a3d70a3d7p-1", "0x1.bb020c49ba5e3p-1",
        "0x1.374bc6a7efa00p-8", "-0x1.71e0823de5dc6p-5",
        "0x1.bfb373e7e1c46p-5",
    ),
    3: (
        "0x1.b851eb851eb85p-1", "0x1.bf487fcb923a3p-1",
        "-0x1.bda5119ce0780p-7", "-0x1.0038d09635379p-4",
        "0x1.219f185dfa332p-5",
    ),
}

POISSON_TERMINAL_SHA256 = {
    0: "a017fce8001c2639948ce8894fc62e629ff817e2e610984a2e8707bf384384db",
    1: "f2f5834ffefc7bb4d0ab803b977d2e81b43b893d4765637b12be4bcc1e8cc450",
    2: "a9f8e2f795ab31f1dddb7e79b63a6efc1aa9cb9d8929c5f34e6798e21f43701d",
    3: "5bec97ab0686607e142df508410730596ea7b6ad7ee647ed19819c288d15515f",
}

TERMINAL_SHA256 = {
    0: "b05b0175d67793f458853869c44dea37dafa05217490207d7e9fef78931187a1",
    1: "0093540b159326a833b350658951061f418fa489fcbd478751f8ad816f889149",
    2: "a7438eadee52317d20dbef3513fe455aaa24de4b6d74d085301155f25d4c4175",
    3: "f6c4eaa3c235fda88e306750f1163540ef6d973dff385a76ab4065381e61f33d",
}

CLI_SHA256 = {
    "walk": "8627b08d7b8b9e4ef59bc485eb64b8d6b0ed25ee69a0b43de76d12b18e031cfa",
    "ruin_mc": "422fbcbed6826de76bbc666a131b0ce63c98504c65d718da825d6a3b59dc00c5",
    "ruin_mc_t": "9eb6d72be6f0d37028cd0bd08d6de249bb14dc15e39c430594be4a8407f5bcac",
    "ruin_max": "25786c93fd54c08b00afd9b53cc2de79e4e3324defa5de1973960f562fcea528",
    "ruin_max_ode": "be74da06fcc3dbcd787706db38a6ec2fbe19a806d079a7e7e28011a5091c769f",
}

ALPHA_MODEL = json.dumps({
    "algebra": {"kind": "alpha_stable", "alpha": 1.0},
    "claim_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
    "premium_law": {"family": "lom_alpha", "gamma": 1.0, "alpha": 1.0},
    "beta": 2.0,
})

PAIR_Z = np.array([0.0, 0.6, 0.61, 0.9, 1.3, 1.7, 1.99, 2.0, 2.5])
PAIR_Q = np.array([1e-16, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-9, 1 - 1e-16])
#: table law with atoms 0.3 at 0.5 and 0.2 at 2; F(0.5-) = 0.125, F(0.5) = 0.425
TABLE = me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)])
TABLE_Q = np.array([0.125, 0.425, np.nextafter(0.425, 0.0), np.nextafter(0.425, 1.0),
                    0.7, 0.75, 0.9])


def hexes(values):
    return tuple(float(v).hex() for v in np.atleast_1d(values))


def test_generic_sampler_kingman():
    got = wa.simulate_terminal_generic(co.kingman(0.5), STEP, 3, 20, seed=11)
    assert hexes(got) == GENERIC_KINGMAN


def test_generic_sampler_kendall_type():
    got = wa.simulate_terminal_generic(co.kendall_type(3.0), STEP, 3, 20, seed=12)
    assert hexes(got) == GENERIC_KENDALL_TYPE


def test_fast_sampler_kendall_type():
    got = wa.simulate_terminal(co.kendall_type(3.0), STEP, 3, 64, seed=13)
    assert hexes(got) == FAST_KENDALL_TYPE


@pytest.mark.parametrize("s", sorted(KINGMAN_PAIR))
def test_kingman_pair_law(s):
    law = co.convolve_points(co.kingman(s), 0.7, 1.3)
    want = KINGMAN_PAIR[s]
    assert hexes(law.cdf(PAIR_Z)) == want["cdf"]
    assert hexes(law.quantile(PAIR_Q)) == want["quantile"]
    assert hexes(law.density(PAIR_Z)) == want["density"]


def test_table_quantile_at_and_beside_atoms():
    assert hexes(TABLE.quantile(TABLE_Q)) == TABLE_QUANTILE


def test_alpha_u_grid_files(tmp_path):
    assert cli.main(["--out", str(tmp_path), "ruin", "--model", ALPHA_MODEL,
                     "--u-grid", "0:5:51"]) == 0
    csv_digest = hashlib.sha256((tmp_path / "ruin.csv").read_bytes()).hexdigest()
    summary_digest = hashlib.sha256((tmp_path / "ruin_summary.json").read_bytes()).hexdigest()
    assert csv_digest == ALPHA_GRID_CSV_SHA256
    assert summary_digest == ALPHA_GRID_SUMMARY_SHA256


# ---------------------------------------------------------------------------
# Monte Carlo estimators: chunk boundaries crossed (CHUNK + 7 and CHUNK + 9)
# ---------------------------------------------------------------------------

MC_MODELS = {
    "kendall": ri.RiskModel(co.kendall(1.0), me.lom_kendall(1.0, 1.0),
                            me.lom_kendall(1.0, 1.0), u=2.0, beta=4.0),
    # saturating: the premium walk can pass the claim supremum 1
    "max": ri.RiskModel(co.max_algebra(), STEP, me.uniform(0.0, 2.0), u=0.5),
    # the alpha-stable z-scale fast path
    "alpha": ri.RiskModel(co.alpha_stable(1.0), me.lom_alpha(1.0, 1.0),
                          me.lom_alpha(1.0, 1.0), u=1.0, beta=2.0),
    "kendall_type": ri.RiskModel(co.kendall_type(3.0), STEP, me.uniform(0.0, 2.0), u=1.0),
}
MC_HORIZON = {"kendall": 20, "max": 50, "alpha": 50, "kendall_type": 3}
MC_T = {"kendall": 3.0, "max": 3.0, "alpha": 3.0, "kendall_type": 1.0}
SEEDS = (0, 1, 2, 3)


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(MC_MODELS))
def test_mc_ruin(name):
    got = [ru.mc_ruin(MC_MODELS[name], MC_HORIZON[name], wa.CHUNK + 7, seed=s).survival
           for s in SEEDS]
    assert hexes(got) == MC_RUIN[name]


@pytest.mark.parametrize("name", sorted(MC_MODELS))
def test_mc_ruin_finite_t(name):
    got = [ru.mc_ruin_finite_t(MC_MODELS[name], MC_T[name], wa.CHUNK + 7, seed=s).survival
           for s in SEEDS]
    assert hexes(got) == MC_RUIN_FINITE_T[name]


@pytest.mark.parametrize("seed", SEEDS)
def test_recursion_check(seed):
    rc = ru.kendall_lambda_recursion_check(0.5, 2.0, MC_MODELS["kendall"], paths_outer=400,
                                           paths_inner=50, horizon=4, seed=seed)
    got = (rc.lhs, rc.rhs, rc.residual, rc.ci_low, rc.ci_high)
    assert hexes(got) == RECURSION_CHECK[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_chunked_terminals(seed):
    alg = co.kendall(1.0)
    poisson = ri.mc_poisson_terminal(alg, STEP, 2.0, 1.5, wa.CHUNK + 9, seed=seed)
    terminal = wa.simulate_terminal(alg, STEP, 5, wa.CHUNK + 9, seed=seed)
    assert digest(poisson) == POISSON_TERMINAL_SHA256[seed]
    assert digest(terminal) == TERMINAL_SHA256[seed]


KENDALL_MODEL = json.dumps({
    "algebra": {"kind": "kendall", "alpha": 1.0},
    "claim_law": {"family": "lom_kendall", "c": 1.0, "alpha": 1.0},
    "premium_law": {"family": "lom_kendall", "c": 1.0, "alpha": 1.0},
    "u": 1.0, "lambda": 2.0,
})
MAX_MODEL = json.dumps({
    "algebra": {"kind": "max"},
    "claim_law": {"family": "uniform", "a": 0, "b": 1},
    "premium_law": {"family": "uniform", "a": 0, "b": 2},
})
CLI_RUNS = {
    # the README Kendall walk example at the default seed
    "walk": (["walk", "--algebra", '{"kind": "kendall", "alpha": 1.0}',
              "--step-law", '{"family": "uniform", "a": 0, "b": 1}',
              "--n", "5", "--paths", "10000"], "walk.csv"),
    "ruin_mc": (["ruin", "--model", KENDALL_MODEL, "--method", "mc", "--u-grid", "0:2:3",
                 "--paths", "20000", "--horizon", "10"], "ruin.csv"),
    "ruin_mc_t": (["ruin", "--model", KENDALL_MODEL, "--method", "mc", "--t", "1",
                   "--paths", "20000"], "ruin.csv"),
    # the README max example
    "ruin_max": (["ruin", "--model", MAX_MODEL, "--u", "0.5"], "ruin.csv"),
    "ruin_max_ode": (["ruin", "--model", MAX_MODEL, "--method", "ode",
                      "--u-grid", "0:1:5"], "ruin.csv"),
}


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_cli_data_files(run, tmp_path):
    argv, name = CLI_RUNS[run]
    assert cli.main(["--out", str(tmp_path), *argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == CLI_SHA256[run]
