"""Golden outputs: fixed-seed samplers, pair laws and a CLI data file, bit for bit.

The values were captured before the samplers' CDF evaluation and bisection
were sped up; any change to them is a change of results, not of speed.
Floats are stored as ``float.hex`` strings so the comparison is exact.
"""

import hashlib
import json

import numpy as np
import pytest

from gcruin import cli
from gcruin import convolutions as co
from gcruin import measures as me
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
