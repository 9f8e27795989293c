"""Golden outputs: fixed-seed samplers, pair laws, law expectations, Monte Carlo
estimators and CLI data files, bit for bit.

The sampler and pair-law values were captured before the samplers' CDF
evaluation and bisection were sped up, and the generic sampler's runs over
all seven algebras, the scalar pair quantiles and the safety and summary
files before that sampler moved all paths at once; the Monte Carlo values
before the chunked estimators were merged into one stream iterator and one
paired-walk kernel.  Any change to them is a change of results, not of speed.  Floats are
stored as ``float.hex`` strings and arrays as the sha256 of their float64
bytes, so the comparison is exact.
"""

import dataclasses
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
from gcruin import williamson as wi

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

#: the recursion check with about 1.16e6 inner paths: one full 2^20-path chunk
#: and a second one whose last CHUNK-row block is ragged; captured before wide
#: chunks were walked in row blocks
RECURSION_CHECK_WIDE = {
    0: (
        "0x1.c624dd2f1a9fcp-1", "0x1.c476bab915a77p-1",
        "0x1.ae227604f8500p-9", "-0x1.c39400210e71cp-7",
        "0x1.4d529d91c54cep-6",
    ),
    1: (
        "0x1.ca3d70a3d70a4p-1", "0x1.c4c55f61d6fc4p-1",
        "0x1.5e04508003800p-7", "-0x1.82da7333512e8p-8",
        "0x1.bebaed4cd7cbap-6",
    ),
    2: (
        "0x1.bf258bf258bf2p-1", "0x1.c2fc962fc9630p-1",
        "-0x1.eb851eb851f00p-8", "-0x1.a0af7a609924dp-6",
        "0x1.55d9d608e059ap-7",
    ),
    3: (
        "0x1.c8dfea27983c1p-1", "0x1.c51f601797cc3p-1",
        "0x1.e045080037f00p-8", "-0x1.35b6f087ab410p-7",
        "0x1.8afdfc43f1988p-6",
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

#: every algebra of EXPECT_ALGEBRAS from starts 0 and 0.7, over one partial
#: chunk (5 paths) and a chunk boundary (CHUNK + 9): per seed and algebra, the
#: sha256 of the simulate_terminal (3 steps) and mc_poisson_terminal
#: (lam t = 3) terminals of all eight runs, concatenated; captured before the
#: two became one terminal-walk kernel
TERMINAL_GRID_SHA256 = {
    0: {
        "classical": "ba8b230ee08121d09d63e01a70702cfa9e779cf219113407e56cecdb0e48afb6",
        "symmetric": "64afba73447fe2895fc6d4ff1f8aad963fcd3e5c83a2fa0467b9458ccb73c49e",
        "alpha_stable": "55e8a87ab0300b15cfa3caf4d45935d4d5e1a1d0a91d6b9ef6e7fef2908443af",
        "max": "42b34fddfcf5cb48649fdea1440fa003a7b70a9d181943fbf93b8aae0b0c5814",
        "kendall": "194e83d8a0e6318bf15f629658797784956017aa0f36e59a9d31b7c3357d170c",
        "kingman": "538204b44432412555fcacdf222b7c07aac526c25c3328902fd82e0f3056b301",
        "kendall_type": "3f675c08dfeaac92df30fcca51e6a31ef0851bc38a3d46d057a872cd691a78aa",
    },
    1: {
        "classical": "2f1aaabb3a81a83b44652d0fefac9216f2405c9fad3e455f4eb7aee377d57030",
        "symmetric": "5efec5a1429835b8c84a7b8af1e4da6d8b32f4144c32b8e993bdeda792cb9f5d",
        "alpha_stable": "f5eb70c5e5b75be9da23be5edfa3cb63c4970daa2b77dca00c6939bb969764a6",
        "max": "9ca887685013170f377a42aa4321ad1bf4543dd8b5c6005c449ec87d0c9c39c4",
        "kendall": "4b4c2d9a7ff1ee350f54fa56497eb236c417888f2125500852cd7e185b05bd75",
        "kingman": "a7388c7d06152add02144d3c04dd15118a1f63ae18f4622d03b1dbd462549712",
        "kendall_type": "b3cd0e09205cc79e23d272a2e9798af402e98f696fc9764e195ef0b3112539a9",
    },
    2: {
        "classical": "e090ac28f9efdd0de746ef9cbe3db2ddcc74e50c7076048cf0ee5514c14f64a0",
        "symmetric": "31f31e3153d9136bed5773e92471c494b2e94b9b95abdcd65a771773b6c64254",
        "alpha_stable": "ea42fc702b2e2869dc78814d6ae5db3f1a3f86b0f705a5c5511e2f5312e847a9",
        "max": "53d3f98130c2c30546a86d19bda4dd0269f0a0471089c54b1d59d0df0d46ebf3",
        "kendall": "5d9f73294f927f0dbeba21038dfca6972cfdd4859bad5aeafe9fa8fe529cd6ed",
        "kingman": "fe3b656ec0ca1e3a709df1468a6b30e25c6ccc166c75b1f410981f2726c837ab",
        "kendall_type": "0d57b6c32066000123ac6d00bbff9b92974a46f5969c3192e8691c264b31605a",
    },
    3: {
        "classical": "79a54cca790cb41e75e82aa09dacd89fa473c49467e392647f31550620c1bbe6",
        "symmetric": "a9699b28c36c5454a96afb2e8d605140939cbe0ee6e3af917ac6864cd9f2c6dc",
        "alpha_stable": "046b7effe60baf6632a27849c6bf94f5796b4cb3f05f1cc7b84dac76b110174c",
        "max": "785dd35ecd04b5dc76c11664eccfc755b275b95b2b1fe8a88307d1c6f0394486",
        "kendall": "d122ef58fc02bb653c0ee8cf9234f3c91c54b19c40723294e941aa35eaaf0ec1",
        "kingman": "18d48627289f6461d03e6edf52d185f8d99087c6df243327e118c1638b6e815f",
        "kendall_type": "904eff076e76a7dea925ec94f70fff6de0b5e35128df96d61cac8c873924fce8",
    },
}

#: Kendall alpha = 0.5 walks under a step law with an atom at 0, CHUNK + 9
#: paths from start 0: per seed, the sha256 of the simulate_terminal (4 steps)
#: and mc_poisson_terminal (lam t = 3) terminals, concatenated.  The table
#: law's bisection quantile puts the atom at 2^-200, so its pairs meet at
#: x = u and always jump; point_mass(0) steps meet at x = u = 0 exactly and
#: must stay at +0.0.  Captured before the Kendall step evaluated its Pareto
#: factor only on the rows that jump.
ZERO_ATOM = me.table([(0.0, 0.5)], [(0.0, 0.0), (1.0, 0.5)])
ZERO_ATOM_TERMINAL_SHA256 = {
    0: "67df81b7bf264b1085c3d05b7edcf8b94d83f6417faeb2ebe44f53caec4f0c12",
    1: "4b0a048fe38ab1a847c21112f78118ec78bfa9c47fbccd09856c6544d73a0ce6",
    2: "c582fcac24585ccfa1f79cf2b0d0efca18d116dbbac97924b4f227ed0c879c44",
    3: "0c7b18761b2bdf80d9831c763ab46332f9071198684174ed8aef28542b579b4f",
}

CLI_SHA256 = {
    "walk": "8627b08d7b8b9e4ef59bc485eb64b8d6b0ed25ee69a0b43de76d12b18e031cfa",
    "ruin_mc": "422fbcbed6826de76bbc666a131b0ce63c98504c65d718da825d6a3b59dc00c5",
    "ruin_mc_t": "9eb6d72be6f0d37028cd0bd08d6de249bb14dc15e39c430594be4a8407f5bcac",
    "ruin_max": "25786c93fd54c08b00afd9b53cc2de79e4e3324defa5de1973960f562fcea528",
    "ruin_max_ode": "be74da06fcc3dbcd787706db38a6ec2fbe19a806d079a7e7e28011a5091c769f",
    "ruin_max_summary": "058f36f61cc0dcf9b2d8d71ee3a5c54feda94f1111d7645a3c427ec293abc09f",
    "safety_kendall": "98a37b5a5471410288c63de2294abb9fb7be6217bafde8ac30b3a7ce93254c54",
    "safety_max": "e9599be475e4aab1319f2023c19b2e0d521583df8c95720be6a4331fe97a2800",
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


#: the other five algebras and a Kendall-type walk from start 0.5 whose step
#: law has an atom at 0, so trivial and non-trivial pairs meet in one step;
#: (algebra, step law, n, paths, start, seed) and the terminal states
GENERIC_RUNS = {
    "classical": ((co.classical(), STEP, 3, 20, 0.0, 21), (
        "0x1.716d5d1889e4cp+0", "0x1.1c5b8504e64b8p+1", "0x1.abdbd11cfa6e7p+0",
        "0x1.de3592bf11c35p-1", "0x1.9763d7e6f58f9p+0", "0x1.2e6ba456bfb69p+0",
        "0x1.d563dc8d908bep+0", "0x1.7b367273ad8f2p+0", "0x1.212808a93caccp+1",
        "0x1.278afb2636070p+0", "0x1.de79488eee2a8p+0", "0x1.407cb4f2f2e50p+1",
        "0x1.33b13e3e6e7ffp+0", "0x1.2527607bed17ap+0", "0x1.aab77634e164ep+0",
        "0x1.24f40d75a401fp+1", "0x1.442324d0b84acp+0", "0x1.a49941ba8af19p-1",
        "0x1.1987a86b678fbp-1", "0x1.ebbbbe822c99ep-1",
    )),
    "symmetric": ((co.symmetric(), STEP, 3, 20, 0.0, 22), (
        "0x1.10e6174b34208p-4", "0x1.c2de3c9a71574p-1", "0x1.6a357e2780ca2p+0",
        "0x1.b1c7174a573b2p+0", "0x1.d8070d1a36192p-2", "0x1.120aa1759ad96p-2",
        "0x1.398de6b37c827p+0", "0x1.ccf8ae0fe5f3ap+0", "0x1.390e9b4c4871ep+0",
        "0x1.3cdf747429c72p-1", "0x1.7672b8e365f84p-3", "0x1.39194907b6b77p-1",
        "0x1.0e459671023e4p-2", "0x1.7d09222899a2dp-1", "0x1.4f388637f33b8p+0",
        "0x1.0b8933776f613p-1", "0x1.255c8dce3c733p+0", "0x1.77ebae067586ep-2",
        "0x1.dc620942d65d0p-4", "0x1.ea381470eadfcp-1",
    )),
    "alpha_stable": ((co.alpha_stable(1.5), STEP, 3, 20, 0.0, 23), (
        "0x1.4db3684f155a6p+0", "0x1.85e871b76e107p+0", "0x1.ae0b3e0dc35a0p-1",
        "0x1.c6ee855f0e7dfp-1", "0x1.f13006a62b96dp-1", "0x1.d209c94484dadp-1",
        "0x1.069a5e6da93d0p-1", "0x1.542fdcda67a7ap+0", "0x1.cd7a4ac5892f5p-1",
        "0x1.3336e68505c2dp-1", "0x1.1ee3f680abbd4p+0", "0x1.356a9f5450b4cp+0",
        "0x1.51ca9a6bde232p+0", "0x1.dd5872ad9e351p-2", "0x1.fb04b4c3658d7p-1",
        "0x1.1c10e96c08cacp+0", "0x1.8fb14fc3b1f1ep-1", "0x1.0e7ef230da776p+0",
        "0x1.1d17ed4cb8b50p+0", "0x1.4a1b616a1cb8bp+0",
    )),
    "max": ((co.max_algebra(), STEP, 3, 20, 0.0, 24), (
        "0x1.583aaed58be17p-1", "0x1.b4117babee674p-2", "0x1.4038b4ba15f86p-1",
        "0x1.215dcb694624cp-1", "0x1.279c5f1ac0e7ep-1", "0x1.6e2a5e0c753f6p-1",
        "0x1.cafdcc9432b82p-1", "0x1.f42fa6ec446a0p-1", "0x1.a659c4681134bp-1",
        "0x1.d4744b91f10bdp-1", "0x1.6547603e614dfp-1", "0x1.897c893a9e4c6p-1",
        "0x1.b5473496ce43dp-1", "0x1.822c7b4c536d0p-2", "0x1.4089ff307f395p-1",
        "0x1.8cd7ba9dfc16ap-1", "0x1.b909667f42fb9p-1", "0x1.7a054004defc2p-1",
        "0x1.a6286c7d9ce77p-1", "0x1.cb165eef83496p-1",
    )),
    "kendall": ((co.kendall(1.7), STEP, 3, 20, 0.0, 25), (
        "0x1.b7d0c2898b874p+0", "0x1.cb8dd3b31f40fp-1", "0x1.91373fd7b20a1p-1",
        "0x1.ad04f97bfb799p-1", "0x1.e2c4aea0fcf24p-1", "0x1.90622f0efa918p-1",
        "0x1.ceb75e5126744p-1", "0x1.820d635df4785p+0", "0x1.c4b8fe8fb2709p-1",
        "0x1.97a0456f0c64bp-1", "0x1.7736e1731b812p-1", "0x1.0d342970db50ap+0",
        "0x1.d15bde98661fep-1", "0x1.5d11a03090f92p-2", "0x1.0a8fd0ead5dd6p+0",
        "0x1.f21b8a3c10ef1p-2", "0x1.9721c282a2ac1p-1", "0x1.32d869452e0d8p-1",
        "0x1.12bd46c4e6b72p+0", "0x1.fdc87be1b25e5p-1",
    )),
    "kendall_type_table": ((co.kendall_type(3.0),
                            me.table([(0.0, 0.4)], [(0.0, 0.0), (2.0, 0.6)]), 3, 20, 0.5, 26), (
        "0x1.10e9569a4c5ebp+2", "0x1.c3799ebaf5810p+1", "0x1.3fd8f73d7ccb8p+1",
        "0x1.bf84515feb77ep+1", "0x1.05827255e2544p+1", "0x1.ff683e9799228p+0",
        "0x1.0be15c22888d0p+2", "0x1.6f8f569e9201bp+1", "0x1.0000000000000p-1",
        "0x1.8af024d924eccp+2", "0x1.c29aa0174f582p+2", "0x1.0a9e13d597214p+1",
        "0x1.5e86660dfc93ep+1", "0x1.0000000000000p-1", "0x1.d54463a0b9f45p+0",
        "0x1.0c069aaf432f0p+0", "0x1.59cd8aace49d2p+0", "0x1.7c5d207e75690p+1",
        "0x1.71caf4564fdbfp+0", "0x1.aaffaeeecbaaep+0",
    )),
}

#: quantiles at PAIR_Q of delta_0.6 <> delta_1.5
PAIR_QUANTILE = {
    "kendall": (co.kendall(1.7), (
        "0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0",
        "0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0",
        "0x1.d681e93ddc448p+1", "0x1.a4e6afd4923bep+8", "0x1.6d1f2a1d5b6abp+15",
    )),
    "kendall_type": (co.kendall_type(3.0), (
        "0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.8000000000000p+0",
        "0x1.8000000000000p+0", "0x1.92cf83b648dd7p+0", "0x1.05a18d942a9b5p+1",
        "0x1.0bba553ee6714p+3", "0x1.95f30bca8090ap+14", "0x1.2971f372f95b8p+26",
    )),
    "alpha_stable": (co.alpha_stable(1.5), ("0x1.be4d0c33e7984p+0",) * 9),
}


@pytest.mark.parametrize("name", sorted(GENERIC_RUNS))
def test_generic_sampler_runs(name):
    (alg, law, n, paths, start, seed), want = GENERIC_RUNS[name]
    got = wa.simulate_terminal_generic(alg, law, n, paths, start=start, seed=seed)
    assert hexes(got) == want


@pytest.mark.parametrize("name", sorted(PAIR_QUANTILE))
def test_pair_quantile(name):
    alg, want = PAIR_QUANTILE[name]
    law = co.convolve_points(alg, 0.6, 1.5)
    assert hexes(law.quantile(PAIR_Q)) == want
    assert hexes([law.quantile(float(q)) for q in PAIR_Q]) == want


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
# law expectations: char_fn, the two Stieltjes forms of the Williamson
# transform, and total_mass, captured before the four hand-written
# atom-sum-plus-density quadratures became Distribution.expect
# ---------------------------------------------------------------------------

EXPECT_ALGEBRAS = {
    "classical": co.classical(), "symmetric": co.symmetric(),
    "alpha_stable": co.alpha_stable(1.5), "max": co.max_algebra(),
    "kendall": co.kendall(1.7), "kingman": co.kingman(0.2),
    "kendall_type": co.kendall_type(3.0),
}
#: atoms only, densities only, both, a dilation, and supports starting above 0
#: (so the compact kernels' cut 1/t falls below support_lower at t = 2.5)
EXPECT_LAWS = {
    "uniform01": me.uniform(0.0, 1.0),
    "uniform_half_2": me.uniform(0.5, 2.0),
    "pareto": me.pareto_2alpha(1.0),
    "lom_alpha": me.lom_alpha(1.0, 1.5),
    "lom_kendall": me.lom_kendall(2.0, 1.5),
    "point": me.point_mass(1.0),
    "table_atoms": me.table([(0.5, 0.3), (2.0, 0.7)]),
    "kendall_pair": co.convolve_points(co.kendall(1.0), 0.5, 1.0),
    "kendall_type_pair": co.convolve_points(co.kendall_type(3.0), 0.6, 1.5),
    "kingman_pair": co.convolve_points(co.kingman(0.2), 0.6, 1.5),
    "dilated": co.dilate(me.lom_kendall(1.0, 1.0), 2.0),
}
EXPECT_T = (0.4, 1.0, 2.5)

#: char_fn at EXPECT_T.  The cosine kernel on the unbounded pareto and pair
#: laws is left out: quad reaches its subdivision limit there.
CHAR_FN = {
    ("classical", "uniform01"):
        ("0x1.a5fd86fe1e5aep-1", "0x1.43a54e4e98864p-1", "0x1.77fa5d3244dfbp-2"),
    ("symmetric", "uniform01"):
        ("0x1.f2749a3764144p-1", "0x1.aed548f090ceep-1", "0x1.ea44b494c7780p-3"),
    ("alpha_stable", "uniform01"):
        ("0x1.d00bc7f999d16p-1", "0x1.664b2e137a7c8p-1", "0x1.6eaa741e9b7eap-2"),
    ("max", "uniform01"): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.999999999999ap-2"),
    ("kendall", "uniform01"):
        ("0x1.d80f5b6d73fe4p-1", "0x1.425ed097b7bfep-1", "0x1.01e573ac92ffep-2"),
    ("kingman", "uniform01"):
        ("0x1.fa579089dcbd4p-1", "0x1.dda2600597bd0p-1", "0x1.4c003d9c0a98ep-1"),
    ("kendall_type", "uniform01"):
        ("0x1.6a7ef9db22d0dp-1", "0x1.8000000000000p-2", "0x1.3333333333333p-3"),
    ("classical", "uniform_half_2"):
        ("0x1.3b390d58e6b4dp-1", "0x1.41ab5c4aa4774p-2", "0x1.31947b2d79ccdp-4"),
    ("symmetric", "uniform_half_2"):
        ("0x1.ba9cda090e632p-1", "0x1.25758eb9041bcp-2", "-0x1.047e3fcc90722p-1"),
    ("alpha_stable", "uniform_half_2"):
        ("0x1.679c8f5a9724cp-1", "0x1.2ce73f1995ecfp-2", "0x1.14f4cde29fbe5p-5"),
    ("max", "uniform_half_2"): ("0x1.0000000000000p+0", "0x1.5555555555556p-2", "0x0.0p+0"),
    ("kendall", "uniform_half_2"): ("0x1.5713b7aa4d84cp-1", "0x1.fd9dc49e0277dp-4", "0x0.0p+0"),
    ("kingman", "uniform_half_2"):
        ("0x1.e2c96ea4715ecp-1", "0x1.5d5440ec35124p-1", "-0x1.523a053c01006p-8"),
    ("kendall_type", "uniform_half_2"):
        ("0x1.570a3d70a3d70p-2", "0x1.2aaaaaaaaaaabp-5", "0x0.0p+0"),
    ("classical", "pareto"):
        ("0x1.0776179774907p-1", "0x1.c14c5d3bf8f95p-3", "0x1.0afbbba323593p-5"),
    ("alpha_stable", "pareto"):
        ("0x1.26f9c1dded1d4p-1", "0x1.6b9490e8e6c9cp-3", "0x1.18b0dfc27e2e5p-8"),
    ("max", "pareto"): ("0x1.ae147ae147ae0p-1", "0x0.0p+0", "0x0.0p+0"),
    ("kendall", "pareto"): ("0x1.014b0ab538f7bp-1", "0x0.0p+0", "0x0.0p+0"),
    ("kingman", "pareto"):
        ("0x1.b867a74d1eee0p-1", "0x1.fdfb7a9b4914ep-2", "-0x1.ae801cbabb3c6p-4"),
    ("kendall_type", "pareto"): ("0x1.ba5e353f7ced7p-3", "0x0.0p+0", "0x0.0p+0"),
    ("classical", "lom_alpha"):
        ("0x1.6ecf707bb536bp-1", "0x1.e4283180849b0p-2", "0x1.c6bf28f1a1281p-3"),
    ("symmetric", "lom_alpha"):
        ("0x1.d15abd126db87p-1", "0x1.161d318cbc099p-1", "-0x1.1a2b59778df97p-4"),
    ("alpha_stable", "lom_alpha"):
        ("0x1.98a0077e9dc60p-1", "0x1.fffffffffff52p-2", "0x1.9d7fe20588d48p-3"),
    ("max", "lom_alpha"): ("0x1.f62b6c3e19766p-1", "0x1.43a54e4e98865p-1", "0x1.c9c3f750a97fep-3"),
    ("kendall", "lom_alpha"):
        ("0x1.902b37a0867f2p-1", "0x1.8d8f833996bb8p-2", "0x1.f9f68044ac055p-4"),
    ("kingman", "lom_alpha"):
        ("0x1.ec497cecd1376p-1", "0x1.95fa04a6cfda7p-1", "0x1.6370c564983dap-2"),
    ("kendall_type", "lom_alpha"):
        ("0x1.0aa70ebf21b28p-1", "0x1.b7675e0009d59p-3", "0x1.04b6358bfca66p-4"),
    ("classical", "lom_kendall"):
        ("0x1.c6bae282803aep-1", "0x1.7e9ba41818fcap-1", "0x1.ff14b07f091f4p-2"),
    ("symmetric", "lom_kendall"):
        ("0x1.fb9ee811376d4p-1", "0x1.e4eecf4ac96f3p-1", "0x1.623ec6c41bd02p-1"),
    ("alpha_stable", "lom_kendall"):
        ("0x1.e9c534a838ae6p-1", "0x1.af46f132f576bp-1", "0x1.13cadf424118ep-1"),
    ("max", "lom_kendall"):
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.6e5b7d16657e1p-1"),
    ("kendall", "lom_kendall"):
        ("0x1.f071130877eaap-1", "0x1.b6219f2f01d45p-1", "0x1.854134e7cbd61p-2"),
    ("kingman", "lom_kendall"):
        ("0x1.fe2c8fedca74dp-1", "0x1.f4ac9b298cce0p-1", "0x1.bc7d139d70c33p-1"),
    ("kendall_type", "lom_kendall"):
        ("0x1.a485cd7b900aep-1", "0x1.2444444444444p-1", "0x1.86c7fce4b086bp-3"),
    ("classical", "point"):
        ("0x1.57343067270eep-1", "0x1.78b56362cef38p-2", "0x1.50385c094f425p-4"),
    ("symmetric", "point"):
        ("0x1.d7954e7dba2f8p-1", "0x1.14a280fb5068cp-1", "-0x1.9a2f7ef858b7dp-1"),
    ("alpha_stable", "point"):
        ("0x1.8d8f022bd5a00p-1", "0x1.78b56362cef38p-2", "0x1.3a92783cd1357p-6"),
    ("max", "point"): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("kendall", "point"): ("0x1.942976daabdf8p-1", "0x0.0p+0", "0x0.0p+0"),
    ("kingman", "point"): ("0x1.ef167cad52947p-1", "0x1.9b3d0a3a52e3fp-1", "0x1.775d62b4969efp-4"),
    ("kendall_type", "point"): ("0x1.ba5e353f7ced8p-2", "0x0.0p+0", "0x0.0p+0"),
    ("classical", "table_atoms"):
        ("0x1.1ecbea55a9070p-1", "0x1.1b55a50c5faa7p-2", "0x1.73604a733659fp-4"),
    ("symmetric", "table_atoms"):
        ("0x1.903ce7bc021d1p-1", "-0x1.cb36061d1e3a0p-6", "0x1.2c3232941dbfdp-2"),
    ("alpha_stable", "table_atoms"):
        ("0x1.3bb0882c97f7ap-1", "0x1.02144d725c17bp-2", "0x1.2fcdcdd52482ap-4"),
    ("max", "table_atoms"): ("0x1.0000000000000p+0", "0x1.3333333333333p-2", "0x0.0p+0"),
    ("kendall", "table_atoms"): ("0x1.00c932b9c5b0ep-1", "0x1.a94bd4f337e1bp-3", "0x0.0p+0"),
    ("kingman", "table_atoms"):
        ("0x1.d0a52f07e6ef0p-1", "0x1.0aa8d045a7490p-1", "0x1.1d956bfb19f9ep-4"),
    ("kendall_type", "table_atoms"): ("0x1.0068db8bac70fp-2", "0x1.8000000000000p-4", "0x0.0p+0"),
    ("classical", "kendall_pair"):
        ("0x1.2f5523ff4dcfap-1", "0x1.2cadc90065b81p-2", "0x1.d5b639dae0eeep-5"),
    ("alpha_stable", "kendall_pair"):
        ("0x1.5a446204e15eap-1", "0x1.173fd5eba12c3p-2", "0x1.80beb02d70c10p-7"),
    ("max", "kendall_pair"): ("0x1.d70a3d70a3d70p-1", "0x1.0000000000000p-1", "0x0.0p+0"),
    ("kendall", "kendall_pair"): ("0x1.4aba40c7f26bap-1", "0x0.0p+0", "0x0.0p+0"),
    ("kingman", "kendall_pair"):
        ("0x1.d3bf11fd38c14p-1", "0x1.4d1d63c3fbb73p-1", "-0x1.b915d03124eb8p-8"),
    ("kendall_type", "kendall_pair"): ("0x1.4bc6a7ef9db22p-2", "0x0.0p+0", "0x0.0p+0"),
    ("classical", "kendall_type_pair"):
        ("0x1.e4de24488144cp-2", "0x1.5c8b1ce85e01bp-3", "0x1.f3530d4ed8116p-7"),
    ("alpha_stable", "kendall_type_pair"):
        ("0x1.0c1fc299464ebp-1", "0x1.b942109b3be6ep-4", "0x1.89b8bfd16d8a8p-12"),
    ("max", "kendall_type_pair"): ("0x1.b385fedd15446p-1", "0x0.0p+0", "0x0.0p+0"),
    ("kendall", "kendall_type_pair"): ("0x1.aa35e473b708cp-2", "0x0.0p+0", "0x0.0p+0"),
    ("kingman", "kendall_type_pair"):
        ("0x1.b4b4d83b64c1ep-1", "0x1.a64ac487879f4p-2", "-0x1.ac61636b87924p-3"),
    ("kendall_type", "kendall_type_pair"): ("0x1.1392fc3df5fc3p-3", "0x0.0p+0", "0x0.0p+0"),
    ("classical", "kingman_pair"):
        ("0x1.146233e72bc0fp-1", "0x1.ca2ad1d85cf51p-3", "0x1.f5f314c567538p-6"),
    ("symmetric", "kingman_pair"):
        ("0x1.997864814f2a1p-1", "-0x1.d831abe5c31ddp-10", "-0x1.a1a3e8fee4ed2p-2"),
    ("alpha_stable", "kingman_pair"):
        ("0x1.38aa46ce498d3p-1", "0x1.5bd6f2e432606p-3", "0x1.2f2cf4eadf0d8p-8"),
    ("max", "kingman_pair"): ("0x1.ffffffffffd3fp-1", "0x1.8baa889760316p-4", "0x0.0p+0"),
    ("kendall", "kingman_pair"): ("0x1.0f98335fd7a0ap-1", "0x1.2f54314789a9bp-7", "0x0.0p+0"),
    ("kingman", "kingman_pair"):
        ("0x1.d4b4461d458dfp-1", "0x1.16d461729da87p-1", "-0x1.5bab8e9ba2648p-3"),
    ("kendall_type", "kingman_pair"):
        ("0x1.9fa5115b6204fp-3", "0x1.3a8101391916cp-11", "0x0.0p+0"),
    ("classical", "dilated"):
        ("0x1.606df148ed6cap-1", "0x1.bab5557101f8cp-2", "0x1.96d7133665113p-3"),
    ("symmetric", "dilated"):
        ("0x1.cb1b9f36ffe80p-1", "0x1.d18f6ead1b446p-2", "-0x1.88c67f7e6e0f2p-3"),
    ("alpha_stable", "dilated"):
        ("0x1.8941256b0c88ap-1", "0x1.c1273c385cbbbp-2", "0x1.71c347d2630efp-3"),
    ("max", "dilated"): ("0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.999999999999ap-3"),
    ("kendall", "dilated"):
        ("0x1.7e3c098ee5000p-1", "0x1.425ed097b7bfep-2", "0x1.01e573ac92ffep-3"),
    ("kingman", "dilated"):
        ("0x1.e9bc2d0b55b28p-1", "0x1.83cb2097deb6bp-1", "0x1.c3645e5a7075ep-3"),
    ("kendall_type", "dilated"):
        ("0x1.db22d0e560417p-2", "0x1.8000000000000p-3", "0x1.3333333333333p-4"),
}

#: transform_form1 at EXPECT_T, keyed by (alpha, law)
TRANSFORM_FORM1 = {
    (1.0, "uniform01"): ("0x1.999999999999bp-1", "0x1.0000000000000p-1", "0x1.9999999999999p-3"),
    (1.7, "uniform01"): ("0x1.d80f5b6d73fe4p-1", "0x1.425ed097b7bfep-1", "0x1.01e573ac92ffep-2"),
    (1.0, "uniform_half_2"): ("0x1.ffffffffffffep-2", "0x1.5555555555556p-4", "0x0.0p+0"),
    (1.7, "uniform_half_2"): ("0x1.5713b7aa4d84cp-1", "0x1.fd9dc49e0277dp-4", "0x0.0p+0"),
    (1.0, "pareto"): ("0x1.70a3d70a3d709p-2", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "pareto"): ("0x1.014b0ab538f7bp-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "lom_alpha"): ("0x1.48aac5f0b684ap-1", "0x1.3369a3d917366p-2", "0x1.7fa1c0337734dp-4"),
    (1.7, "lom_alpha"): ("0x1.902b37a0867f2p-1", "0x1.8d8f833996bb8p-2", "0x1.f9f68044ac055p-4"),
    (1.0, "lom_kendall"): ("0x1.c28f5c28f5c29p-1", "0x1.6666666666664p-1", "0x1.2515fdab8464ep-2"),
    (1.7, "lom_kendall"): ("0x1.f071130877eaap-1", "0x1.b6219f2f01d45p-1", "0x1.854134e7cbd61p-2"),
    (1.0, "point"): ("0x1.3333333333333p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "point"): ("0x1.942976daabdf8p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "table_atoms"): ("0x1.851eb851eb851p-2", "0x1.3333333333333p-3", "0x0.0p+0"),
    (1.7, "table_atoms"): ("0x1.00c932b9c5b0ep-1", "0x1.a94bd4f337e1bp-3", "0x0.0p+0"),
    (1.0, "kendall_pair"): ("0x1.eb851eb851eb8p-2", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "kendall_pair"): ("0x1.4aba40c7f26bap-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "kendall_type_pair"): ("0x1.210fdedf0cda1p-2", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "kendall_type_pair"): ("0x1.aa35e473b708cp-2", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "kingman_pair"): ("0x1.7cc4274b1378bp-2", "0x1.6e5ccbfbcdce1p-8", "0x0.0p+0"),
    (1.7, "kingman_pair"): ("0x1.0f98335fd7a0ap-1", "0x1.2f54314789a98p-7", "0x0.0p+0"),
    (1.0, "dilated"): ("0x1.3333333333333p-1", "0x1.0000000000000p-2", "0x1.9999999999999p-4"),
    (1.7, "dilated"): ("0x1.7e3c098ee5000p-1", "0x1.425ed097b7bfep-2", "0x1.01e573ac92ffep-3"),
}

#: transform_form2 at EXPECT_T, keyed by (alpha, law)
TRANSFORM_FORM2 = {
    (1.0, "uniform01"): ("0x1.999999999999ap-1", "0x1.0000000000000p-1", "0x1.9999999999999p-3"),
    (1.7, "uniform01"): ("0x1.d80f5b6d6fd29p-1", "0x1.425ed097b7bfdp-1", "0x1.01e573ac92ffdp-2"),
    (1.0, "uniform_half_2"): ("0x1.0000000000000p-1", "0x1.5555555555554p-4", "0x0.0p+0"),
    (1.7, "uniform_half_2"): ("0x1.5713b7aa4d84dp-1", "0x1.fd9dc49e0277cp-4", "0x0.0p+0"),
    (1.0, "pareto"): ("0x1.70a3d70a3d70ap-2", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "pareto"): ("0x1.014b0ab538f7bp-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "lom_alpha"): ("0x1.48aac5f0bce54p-1", "0x1.3369a3d9297d5p-2", "0x1.7fa1c03389b3cp-4"),
    (1.7, "lom_alpha"): ("0x1.902b37a08853ap-1", "0x1.8d8f83399f3d1p-2", "0x1.f9f68044b49b7p-4"),
    (1.0, "lom_kendall"): ("0x1.c28f5c28f7967p-1", "0x1.666666666af82p-1", "0x1.2515fdab9178bp-2"),
    (1.7, "lom_kendall"): ("0x1.f07113087830ep-1", "0x1.b6219f2f03222p-1", "0x1.854134e7d1e6bp-2"),
    (1.0, "point"): ("0x1.3333333333333p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "point"): ("0x1.942976daabdf8p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "table_atoms"): ("0x1.851eb851eb852p-2", "0x1.3333333333333p-3", "0x0.0p+0"),
    (1.7, "table_atoms"): ("0x1.00c932b9c5b0ep-1", "0x1.a94bd4f337e1ap-3", "0x0.0p+0"),
    (1.0, "kendall_pair"): ("0x1.eb851eb851eb6p-2", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "kendall_pair"): ("0x1.4aba40c7f26b9p-1", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "kendall_type_pair"): ("0x1.210fdedf0cda0p-2", "0x0.0p+0", "0x0.0p+0"),
    (1.7, "kendall_type_pair"): ("0x1.aa35e473b708bp-2", "0x0.0p+0", "0x0.0p+0"),
    (1.0, "kingman_pair"): ("0x1.7cc4274b19b98p-2", "0x1.6e5ccbfbb4250p-8", "0x0.0p+0"),
    (1.7, "kingman_pair"): ("0x1.0f98335fd7f9cp-1", "0x1.2f5431477d3f0p-7", "0x0.0p+0"),
    (1.0, "dilated"): ("0x1.3333333333333p-1", "0x1.0000000000000p-2", "0x1.9999999999999p-4"),
    (1.7, "dilated"): ("0x1.7e3c098ed7737p-1", "0x1.425ed097b7bfdp-2", "0x1.01e573ac92ffdp-3"),
}

TOTAL_MASS = {
    "uniform01": "0x1.0000000000000p+0",
    "uniform_half_2": "0x1.0000000000000p+0",
    "pareto": "0x1.0000000000000p+0",
    "lom_alpha": "0x1.0000000000000p+0",
    "lom_kendall": "0x1.0000000000000p+0",
    "point": "0x1.0000000000000p+0",
    "table_atoms": "0x1.0000000000000p+0",
    "kendall_pair": "0x1.0000000000000p+0",
    "kendall_type_pair": "0x1.0000000000000p+0",
    "kingman_pair": "0x1.ffffffffffd3fp-1",
    "dilated": "0x1.0000000000000p+0",
}


@pytest.mark.parametrize("key", sorted(CHAR_FN), ids="/".join)
def test_char_fn(key):
    alg, law = EXPECT_ALGEBRAS[key[0]], EXPECT_LAWS[key[1]]
    assert hexes([co.char_fn(alg, law, t) for t in EXPECT_T]) == CHAR_FN[key]


@pytest.mark.parametrize("form, pins", [(wi.transform_form1, TRANSFORM_FORM1),
                                        (wi.transform_form2, TRANSFORM_FORM2)])
def test_williamson_stieltjes_forms(form, pins):
    for (alpha, name), want in pins.items():
        got = hexes([form(EXPECT_LAWS[name], alpha, t) for t in EXPECT_T])
        assert got == want, (form.__name__, alpha, name)


def test_total_mass():
    got = {name: law.total_mass().hex() for name, law in EXPECT_LAWS.items()}
    assert got == TOTAL_MASS


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
#: alpha-model fast path over three 512-claim blocks, one model per claim
#: branch, captured before the block's running sum was rewritten in place
ALPHA_MC_MODELS = {
    # U^alpha ~ Exp(gamma): lom_alpha claims of the algebra's order
    "exp": ri.RiskModel(co.alpha_stable(1.5), me.lom_alpha(1.0, 1.5),
                        me.lom_alpha(1.0, 1.5), u=1.0, beta=2.0),
    # alpha = 1: claims used as drawn
    "unit_order": ri.RiskModel(co.alpha_stable(1.0), me.lom_kendall(1.0, 1.0),
                               me.lom_alpha(1.0, 1.0), u=1.0),
    # np.power at alpha != 1
    "power": ri.RiskModel(co.alpha_stable(1.5), STEP, me.lom_alpha(1.0, 1.5), u=0.5),
    "lom_other_order": ri.RiskModel(co.alpha_stable(1.5), me.lom_alpha(1.0, 1.0),
                                    me.lom_alpha(1.0, 1.5), u=1.0, beta=2.0),
    # the 7-path chunk is all ruined within the first block for every seed
    "early_exit": ri.RiskModel(co.alpha_stable(0.7), me.pareto_2alpha(1.0),
                               me.lom_alpha(1.0, 0.7), u=0.2, beta=1.9),
}
ALPHA_MC_HORIZON = 1300
ALPHA_MC_RUIN = {
    "exp": (
        "0x1.a212460057f66p-1", "0x1.a3fa10a62dd30p-1",
        "0x1.a22a4360a16e5p-1", "0x1.a3322683c995fp-1",
    ),
    "unit_order": (
        "0x1.cc45a8619553bp-1", "0x1.c935fe18355a3p-1",
        "0x1.ca95d79c6ae45p-1", "0x1.cd2d8f045b860p-1",
    ),
    "power": (
        "0x1.8c1cacdd17d16p-1", "0x1.8a14e5b6dfff8p-1",
        "0x1.8b04cb79beaf2p-1", "0x1.8d5c89e0eb664p-1",
    ),
    "lom_other_order": (
        "0x1.4e03779eea9e5p-1", "0x1.4b63c116e17f5p-1",
        "0x1.4dd37cde57ae7p-1", "0x1.4e4b6fbfc7064p-1",
    ),
    "early_exit": (
        "0x1.e6cac1d2ccf19p-6", "0x1.d6cc81a1d24d0p-6",
        "0x1.08e3072b3745fp-5", "0x1.edc9fde83a999p-6",
    ),
}

#: alpha-model fast path at one chunk of 1, 10, 8192 and 8193 paths, horizons on
#: both sides of the 512-claim block, captured before the premiums were drawn a
#: group of rows at a time; 16 seeds for the narrow chunks, 4 for the wide ones
ALPHA_MC_WIDTH_MODELS = {"exp": ALPHA_MC_MODELS["exp"], "power": ALPHA_MC_MODELS["power"]}
ALPHA_MC_WIDTHS = {
    ('exp', 1, 300): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x0.0p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
    ),
    ('exp', 1, 1030): (
        '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x0.0p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x0.0p+0',
        '0x1.0000000000000p+0',
    ),
    ('exp', 10, 300): (
        '0x1.6666666666666p-1', '0x1.ccccccccccccdp-1', '0x1.999999999999ap-1',
        '0x1.ccccccccccccdp-1', '0x1.6666666666666p-1', '0x1.999999999999ap-1',
        '0x1.6666666666666p-1', '0x1.6666666666666p-1', '0x1.ccccccccccccdp-1',
        '0x1.ccccccccccccdp-1', '0x1.999999999999ap-1', '0x1.ccccccccccccdp-1',
        '0x1.6666666666666p-1', '0x1.0000000000000p+0', '0x1.6666666666666p-1',
        '0x1.0000000000000p+0',
    ),
    ('exp', 10, 1030): (
        '0x1.999999999999ap-1', '0x1.6666666666666p-1', '0x1.999999999999ap-1',
        '0x1.0000000000000p+0', '0x1.6666666666666p-1', '0x1.ccccccccccccdp-1',
        '0x1.0000000000000p+0', '0x1.999999999999ap-1', '0x1.ccccccccccccdp-1',
        '0x1.999999999999ap-1', '0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1',
        '0x1.0000000000000p-1', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.6666666666666p-1',
    ),
    ('exp', 8192, 100): (
        '0x1.a3f0000000000p-1', '0x1.a1b0000000000p-1', '0x1.a020000000000p-1',
        '0x1.9fe0000000000p-1',
    ),
    ('exp', 8192, 600): (
        '0x1.9f20000000000p-1', '0x1.a0d0000000000p-1', '0x1.a5e0000000000p-1',
        '0x1.a020000000000p-1',
    ),
    ('exp', 8193, 100): (
        '0x1.a1b2f2686cbcap-1', '0x1.a3c2e1e8f0b88p-1', '0x1.a052fd6814bf6p-1',
        '0x1.9f730467dcc12p-1',
    ),
    ('exp', 8193, 600): (
        '0x1.9ed30967b4c26p-1', '0x1.a0b2fa682cbeap-1', '0x1.a462dce918b74p-1',
        '0x1.a282ebe8a0bb0p-1',
    ),
    ('power', 10, 1030): (
        '0x1.0000000000000p-1', '0x1.ccccccccccccdp-1', '0x1.6666666666666p-1',
        '0x1.ccccccccccccdp-1', '0x1.6666666666666p-1', '0x1.999999999999ap-1',
        '0x1.3333333333333p-1', '0x1.6666666666666p-1', '0x1.ccccccccccccdp-1',
        '0x1.3333333333333p-1', '0x1.3333333333333p-1', '0x1.999999999999ap-1',
        '0x1.3333333333333p-1', '0x1.0000000000000p+0', '0x1.6666666666666p-1',
        '0x1.ccccccccccccdp-1',
    ),
    ('power', 8193, 600): (
        '0x1.8b73a462dce92p-1', '0x1.88f3b8623cee2p-1', '0x1.8d7394635ce52p-1',
        '0x1.8a33ae628cebap-1',
    ),
}

MC_T = {"kendall": 3.0, "max": 3.0, "alpha": 3.0, "kendall_type": 1.0}
SEEDS = (0, 1, 2, 3)


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(MC_MODELS))
def test_mc_ruin(name):
    got = [ru.mc_ruin(MC_MODELS[name], MC_HORIZON[name], wa.CHUNK + 7, seed=s).survival
           for s in SEEDS]
    assert hexes(got) == MC_RUIN[name]


@pytest.mark.parametrize("name", sorted(ALPHA_MC_MODELS))
def test_alpha_mc_ruin_blocks(name):
    got = [ru.mc_ruin(ALPHA_MC_MODELS[name], ALPHA_MC_HORIZON, wa.CHUNK + 7, seed=s).survival
           for s in SEEDS]
    assert hexes(got) == ALPHA_MC_RUIN[name]


@pytest.mark.parametrize("case", sorted(ALPHA_MC_WIDTHS))
def test_alpha_mc_ruin_widths(case):
    name, paths, horizon = case
    seeds = range(len(ALPHA_MC_WIDTHS[case]))
    got = [ru.mc_ruin(ALPHA_MC_WIDTH_MODELS[name], horizon, paths, seed=s).survival for s in seeds]
    assert hexes(got) == ALPHA_MC_WIDTHS[case]


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
def test_recursion_check_across_wide_chunks(seed):
    rc = ru.kendall_lambda_recursion_check(0.5, 2.0, MC_MODELS["kendall"], paths_outer=3000,
                                           paths_inner=400, horizon=3, seed=seed)
    got = (rc.lhs, rc.rhs, rc.residual, rc.ci_low, rc.ci_high)
    assert hexes(got) == RECURSION_CHECK_WIDE[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_chunked_terminals(seed):
    alg = co.kendall(1.0)
    poisson = ri.mc_poisson_terminal(alg, STEP, 2.0, 1.5, wa.CHUNK + 9, seed=seed)
    terminal = wa.simulate_terminal(alg, STEP, 5, wa.CHUNK + 9, seed=seed)
    assert digest(poisson) == POISSON_TERMINAL_SHA256[seed]
    assert digest(terminal) == TERMINAL_SHA256[seed]
    got = {}
    for kind, alg in EXPECT_ALGEBRAS.items():
        runs = []
        for start in (0.0, 0.7):
            for paths in (5, wa.CHUNK + 9):
                runs.append(wa.simulate_terminal(alg, STEP, 3, paths, start=start, seed=seed))
                runs.append(ri.mc_poisson_terminal(alg, STEP, 2.0, 1.5, paths, seed=seed,
                                                   start=start))
        got[kind] = digest(np.concatenate(runs))
        # t = 0: no path has a claim, yet each chunk still draws its counts
        idle = ri.mc_poisson_terminal(alg, STEP, 2.0, 0.0, wa.CHUNK + 9, seed=seed, start=0.7)
        np.testing.assert_array_equal(idle, np.full(wa.CHUNK + 9, 0.7))
    assert got == TERMINAL_GRID_SHA256[seed]
    alg = co.kendall(0.5)
    for law, want in ((ZERO_ATOM, ZERO_ATOM_TERMINAL_SHA256[seed]),
                      (me.point_mass(0.0), digest(np.zeros(2 * (wa.CHUNK + 9))))):
        runs = (wa.simulate_terminal(alg, law, 4, wa.CHUNK + 9, seed=seed),
                ri.mc_poisson_terminal(alg, law, 2.0, 1.5, wa.CHUNK + 9, seed=seed))
        assert digest(np.concatenate(runs)) == want


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
    "ruin_max_summary": (["ruin", "--model", MAX_MODEL, "--u", "0.5"], "ruin_summary.json"),
    # the README safety examples
    "safety_kendall": (["safety", "--model", KENDALL_MODEL, "--t", "1"], "safety.json"),
    "safety_max": (["safety", "--model", MAX_MODEL, "--t", "1"], "safety.json"),
}


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_cli_data_files(run, tmp_path):
    argv, name = CLI_RUNS[run]
    assert cli.main(["--out", str(tmp_path), *argv]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == CLI_SHA256[run]


# ---------------------------------------------------------------------------
# Kendall walk CDFs: n-step, compounded and their capital-shifted forms,
# captured while the unshifted forms still had their own formulas
# ---------------------------------------------------------------------------

#: closed-form H (point, uniform, lom_kendall, pareto on both of its
#: branches) and numeric H (lom_alpha, a table with atoms and a density)
WALK_LAWS = {
    "point": (me.point_mass(1.0), 1.0),
    "uniform": (me.uniform(0.0, 1.0), 1.7),
    "lom_kendall": (me.lom_kendall(1.0, 1.0), 1.0),
    "pareto": (me.pareto_2alpha(1.0), 1.0),
    "pareto_log": (me.pareto_2alpha(0.5), 1.0),
    "lom_alpha": (me.lom_alpha(1.0, 1.5), 1.5),
    "table": (TABLE, 1.0),
}
#: contains every starting capital in WALK_U, so each shifted atom is hit
WALK_T = np.array([0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 10.0])
WALK_U = (0.0, 0.3, 0.7, 1.0, 2.0)
WALK_N = (0, 1, 2, 3, 6)
WALK_LT = ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0), (1.0, 0.0))

WALK_CDF_SHA256 = {
    "lom_alpha": "42c7385e4dcf4c2a9b2449df92270502935ddf110a96365dbb8924bc845df8fa",
    "lom_kendall": "7470945fc8f350d37acbe56c6b76a90f39f43c525cc8bb4181853db63cfabb20",
    "pareto": "106cd17fca4a5372902d97992051933160d57486c30c66f14a029dfab242ab45",
    "pareto_log": "ee2becd858f801a6b1301cfcbcdfc75e4cc12c43f45959d06b42ec2825fd97ae",
    "point": "2a7b762de941435a400e3281202374b09b0bde1fc117cb8726ab731a16d1c957",
    "table": "9833c72dbcdf740a3397f94bb4ad76237fbbcd074b15cea01a0f408b1d479f76",
    "uniform": "2c84f44488b22ffad5a83c42c5de380fd18644c8bf2e00af1f0c6a61044c24ab",
}


def memo_pair(law, alpha):
    """kendall_pair with H cached per argument, so numeric H is computed once."""
    pair = wi.kendall_pair(law, alpha)
    cache = {}

    def H(x):
        key = (np.ndim(x), np.asarray(x, dtype=np.float64).tobytes())
        if key not in cache:
            cache[key] = pair.H(x)
        return cache[key]

    return dataclasses.replace(pair, H=H)


def walk_cdf_values(pair):
    vals = [pair.F(WALK_T), pair.H(WALK_T)]
    for t in (WALK_T, 1.5):
        vals += [wi.n_step_cdf(pair, n, t) for n in WALK_N]
        vals += [wi.compound_cdf(pair, lam, lt, t) for lam, lt in WALK_LT]
        for u in WALK_U:
            vals += [wi.shifted_n_step_cdf(u, pair, n, t) for n in WALK_N]
            vals += [wi.shifted_compound_cdf(u, pair, lam, lt, t) for lam, lt in WALK_LT]
    return np.concatenate([np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in vals])


@pytest.mark.parametrize("name", sorted(WALK_LAWS))
def test_kendall_walk_cdfs(name):
    assert digest(walk_cdf_values(memo_pair(*WALK_LAWS[name]))) == WALK_CDF_SHA256[name]
