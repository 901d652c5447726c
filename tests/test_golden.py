"""Golden digests: certificates and `plan` output pinned byte for byte.

Every certificate in the grid is serialized and hashed; a change to any
check line, value line or status shows up as a digest mismatch.  Every
certificate in the grid fits the digit budget.  `plan` stdout is pinned with only
the `certificate <path>` line normalised, together with the certificate
file it writes.  `theorem_bound` is pinned by the repr of its display
exponent, its floored exponent and the repr of its derived constant, at N
away from the exact ties where the floor sits on a multiple of 1/72.
Recipe pipelines are pinned by every file they write (report, stage
artifacts, certificate), and the `gen`, `transform`, `report` and `girth`
commands by their stdout and output files; the temporary directory is
normalised to `<tmp>` in both.  No stage in the grid has zero edges.
H(5), too large for a `gen` run in the command grid, is pinned by its
serialization, and so are PG(2,31) and W(11), orders the grid does not build.
"""

import hashlib
import os
import random

import pytest

from hypergirth import (
    certificate,
    plan,
    projective_plane,
    serialize_bipartite,
    split_cayley_hexagon,
    symplectic_quadrangle,
    theorem_bound,
)
from hypergirth.cli import main


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# (girth, p, m, n, r) -> sha256 of certificate(...).serialize()
CERTIFICATES = {
    # girth-6 route, VALID at n = 1..5
    (6, 5, 2, 1, 3): "2319db5013468035beb46db7bd6d552e295597d34679a5cda055982ba62dc504",
    (6, 5, 2, 2, 3): "827ad0d74d79c99e217834b4c86b9b8a9ad9754d89afdd6bbd72838f04c5a2a3",
    (6, 5, 2, 3, 3): "22be5c04bf47807111a8664c79d0ee2f298e58f18afa537edbcbd8fbb3554996",
    (6, 5, 2, 4, 3): "a0f267542274a49472e2ea45cec5bb3f93c88a09d8490d87793951f4ebd5565e",
    (6, 5, 2, 5, 3): "fa8823fc84322e5385998db2134684777039ff879a56abdd0ae625a2f616aba7",  # v_5 has 120 593 digits
    (6, 3, 3, 1, 5): "5c2a55ca6e18f632d1f674306aae2761fc3bea4b3aeadc7c0853d0e3f0c5da80",
    (6, 3, 3, 2, 5): "2a52142931183188df40792b081b8a85b0c736b6eea27623e68720f6652c2ffa",
    (6, 3, 3, 3, 5): "a28a09f1c8d22e9933e3fedda8349683c888d9dff35e04c1d3403394947e784f",
    (6, 3, 3, 4, 5): "9699d905b2aa2866fae4ce6a353ae8ab49c47dcb00ef32464ab1207f97fec4da",
    (6, 2, 4, 1, 9): "fb30ae7fbfecb56fb2ea486c91900b9ef78614b8fd05035a9c858aeeac384913",
    (6, 2, 4, 4, 9): "3b1496a9b5bca7e2591ab57de37264d9f251e0428dff49b3d886da612b61ffbb",
    # girth-8 route, VALID at n = 1..5
    (8, None, 5, 1, 3): "d92eeed1eb3faf96d09dfe7dece0c54dd7853a350ffbdff43e54243b5854d05e",
    (8, None, 5, 2, 3): "9cb2e192718c3ddc692af1946e701f2b2b1244627e0c002435a183956e7fae6e",
    (8, None, 5, 3, 3): "1e422fa84e699fd5f17245ae48f648381f8ac54b3ad0f69370e3f8ee46c22f16",
    (8, None, 5, 4, 3): "3044633417455f743e0ee9380088bd5cb8163a76784573b43afb0de58f1d2aac",
    (8, None, 5, 5, 3): "5343879bae284c606f59b907d67a19eb07b9faf192c8c8c484bea0a52473f7a4",
    (8, 2, 7, 1, 10): "d1ee809faecd1559b71b6d2f6994d196a20cac0c46909caf04190cb08b534285",
    (8, 2, 7, 4, 10): "e26c243675dfd7a4ac5a9148be01ddc7018152e9fb07a0b96b51b953486e8657",
    # short: every value is read whole by power_at_least
    (8, None, 65, 1, 3): "12f2f45dfdd9088094a073a8c63093cce0477296ea5a7105dd6bada701bc81dc",
    (6, 2, 18, 1, 3): "afd9ffecb8b3c4fa3e209d7f94d9af0f94d5077e2d6b928181cb6bb8b5c7490b",
    # INVALID: seed-size, r-range, non-prime p, even m, m < 5
    (6, 5, 1, 1, 3): "1b1766f70cca8285e865c54fefea33a568ab927df126d508598a96c6039aa0a1",
    (6, 2, 2, 3, 3): "655010f8c36185b21e451a99bf5b19e64c58fcd703ee34f4af62a0900663a5d0",
    (6, 5, 2, 1, 100): "4c2035655ad802145f1dff8477481c2f4dfbaa4e29484eaaaf9734961709904b",
    (6, 6, 2, 1, 3): "b64408345692d87374d9d7cdee279dadf7389c6c8baf3a004a7f8adda0b98b25",
    (6, 4, 3, 2, 3): "2c788abdefbaa75f51cf2ca10d578ef007301b49eb82fd3f4e3d1592871fe28a",
    (8, None, 5, 1, 100): "b3f80ac0fb0f589c477efd547706439b888aa8f16eab081cf22af81409ce28a9",
    (8, None, 6, 1, 3): "4e6e0f02c2ecaaa82ad15a1f8dc90621a6f392b95a7f6a22bf89b1f2e707c2b1",
    (8, None, 6, 2, 3): "7f803cf39bad1e2b88415cf5ebc6e8b6e71f38bee708e45f5bab8652acaa7e4b",
    (8, 2, 3, 1, 3): "f1dfea884b8ca520bbb5fb84038a674a7d3a735e03704c869491e085a2b6cbed",
    (8, None, 4, 1, 3): "2c6b461bdb91050a7d3e9a7cfdfebbce0d92c1e318d4338311f934228437f182",
}

# argv tail after `plan` -> (sha256 of normalised stdout, sha256 of the certificate file)
PLANS = {
    ("--girth", "6", "--p", "5", "--r", "3", "--N", "3967295312526"): (
        "62992f3cbaaeb4689b7e214fce8d1712d0ea6cb5955dc601a3bbd011e9ac9d11",
        "2319db5013468035beb46db7bd6d552e295597d34679a5cda055982ba62dc504",
    ),
    ("--girth", "6", "--p", "5", "--r", "3", "--N", "1" + "0" * 60): (
        "e5d8e0ad35bc73899e62ee33392a9b4541f6b8b788d4cd9ebdba1c9842d5368f",
        "8499778dd08ff549720408167fdb95f06a98bc52d4a4a24ada7df612020424f4",
    ),
    ("--girth", "6", "--p", "2", "--r", "513", "--N", "1" + "0" * 300): (
        "8650e656177124e182a1342cc849bac599b8ee81774aa125107dcc57a40db064",
        "47bfe11a3c6aacd99ce8a42a5368a65667470a9e8a164a62b7ce029cb0299cbe",
    ),
    ("--girth", "6", "--p", "7", "--r", "4", "--N", "3" + "0" * 3000): (
        "636280fa140ec3661336ffd3fd3e195afb8d5d17264ab48263462f581d5bb70a",
        "5df9be69e5e1cd162cd424c1bb8e794a334fd1f7cbb87dccd18df56c12ca4baf",
    ),
    ("--girth", "8", "--r", "3", "--N", "1161119713493025"): (
        "0fa0972c3dc4869859e37ecd8a577303e371c1bc0e18eddfdc11170e7ce858fb",
        "d92eeed1eb3faf96d09dfe7dece0c54dd7853a350ffbdff43e54243b5854d05e",
    ),
    ("--girth", "8", "--r", "3", "--N", "1" + "0" * 40): (
        "65b7cbba6d9023d21d245e1d0fd1225ba5a9a0cfa65f3f1f5102b2f843260b10",
        "24055b15f7b5878935e78eb0e4e17295b804677c79514253a096df21d73bf404",
    ),
    ("--girth", "8", "--r", "200", "--N", "1" + "0" * 300): (
        "13c377e357a712173b4ce736a75eadb36a7cc26b97232354920a36732790d06b",
        "109ddfa39ee8511e714bb0488ae812a19c8098493d441b98a2c1ea0384e2be55",
    ),
    ("--girth", "8", "--p", "2", "--r", "5", "--N", "7" + "0" * 3000): (
        "af65243d1bc85680431d4f3151aacd82a36e9053f88005ea851b66ce10e05e00",
        "f5a3f894998aa1a67ad64e2787070f621f56e98ff6d9a1abe43d50b4ee9c44f4",
    ),
    # the certify `plan` shapes whose counts arith.mul lifts past libmpdec's 256-word line
    ("--girth", "6", "--p", "11", "--r", "3", "--N", "1" + "0" * 9999): (
        "155c6e02579d5c1e3d19d88e462a6804ad4d18faaede0f4718a50c03838d46c0",
        "cfc2b9e7c966fe5cbcd97cb493895789cfa80508d2213af1aaafbcd37cbcc051",
    ),
    ("--girth", "8", "--r", "3", "--N", "1" + "0" * 9499): (
        "159c004d3f88e4b3fdf70e2d692b05ef198ef153b833aab34eb4e58737ae3c59",
        "552e6278216cefe5366fc46677285475f44f24c5218978e2a48c11ac3b481f28",
    ),
}


def _random_bits(label: str, bits: int) -> int:
    return random.Random(label).getrandbits(bits) | 1 << (bits - 1)


# name -> (girth, p, N built on demand, sha256 of "exponent floored constant")
THEOREM_BOUNDS = {
    "g6-random-1e6bits": (6, 3, lambda: _random_bits("theorem-golden-6", 10**6),
                          "040da624f7a4aa95a07644be88c63afae842551a51ccb7dd4da1b617dc995659"),
    "g8-random-1e6bits": (8, None, lambda: _random_bits("theorem-golden-8", 10**6),
                          "cab992e5ba54cb7f9ed9ae0ea02ecd550e9fbf543c4b3e67434ad81cb6416286"),
    "g6-random-3e4bits": (6, 11, lambda: _random_bits("theorem-golden-6s", 3 * 10**4),
                          "ac33223175089bc206104b327c60c54df954f12ac3f096c24d392f84b121981a"),
    "g6-2^1000000": (6, 2, lambda: 1 << 10**6,
                     "a021b6340b4853e97d5b1a4677af49d78df099becc732e959fef50044e1014da"),
    "g6-2^999863": (6, 2, lambda: 1 << (10**6 - 137),
                    "de22cac37ca81ad400d4d9a7b43fdf15fafc49b8d86f1161b9dfac54610e52d5"),
    "g8-2^999500": (8, None, lambda: 1 << (10**6 - 500),
                    "0a6cbf30fbdfc034996d830b8a0fa69aebb0c640f246f20bd6e66d8f046da537"),
    "g6-10^100000": (6, 3, lambda: 10**10**5,
                     "8108998fbf20f46d08230513a03f9418fd56a20f3cc7aeaa5a34019c25f108fc"),
    "g8-10^99997": (8, None, lambda: 10 ** (10**5 - 3),
                    "f47328e9b30796c1c59b207e53cc626a60127825be3ac1c8bcc3161a7eb4d5d3"),
    "g6-5^88210": (6, 5, lambda: 5**88210,
                   "405d00a737c2740d5a75eefc098c160e0e184818a3fcc8b7fef4d91573636789"),
    "g6-7^50000": (6, 7, lambda: 7**50000,
                   "01c7e456c8b4b1e4553fe5f4c675aa3d32f904d29de06488b9ff007126554318"),
    "g6-3^9800": (6, 3, lambda: 3**9800,
                  "aaf9efdb86c00a0956df13919893668134ad6c11a768802b75c7286dee22cdad"),
    "g8-2^77441": (8, None, lambda: 2**77441,
                   "9ac2446b92755901466bb9d5f7e181cd31f8fa4dc16aa55f408f4536478036ac"),
    "g8-2^77439": (8, None, lambda: 2**77439,
                   "d645d882db7eada9ab74b6032ef8131b72e1d3d78058f0f12081094844ce9baf"),
}


@pytest.mark.parametrize("key", list(CERTIFICATES), ids=lambda k: "-".join(map(str, k)))
def test_certificate_digest(key):
    assert sha(certificate(*key).serialize()) == CERTIFICATES[key]


@pytest.mark.parametrize("argv", list(PLANS), ids=lambda a: f"g{a[1]}-{len(a[-1])}digits")
def test_plan_stdout_digest(argv, tmp_path, capsys):
    cert = str(tmp_path / "cert.txt")
    assert main(["plan", *argv, "--cert", cert]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"certificate {cert} VALID"
    lines[-1] = "certificate <path> VALID"
    with open(cert, encoding="ascii", newline="") as fh:
        cert_text = fh.read()
    assert (sha("\n".join(lines) + "\n"), sha(cert_text)) == PLANS[argv]


def test_hexagon_q5_digest():
    digest = "278c189da1c51329bdae10ee0a7af80cb23650e947ab327e513da254fbc76d42"
    assert sha(serialize_bipartite(split_cayley_hexagon(5))) == digest


@pytest.mark.parametrize("build, q, digest", [
    (projective_plane, 31, "795ffa67cd4967797a42c4cb78934149b78cfa08db7e9913e95b33a6dd14271d"),
    (symplectic_quadrangle, 11, "53de47bdf14cf5041d103d886a8c7707bbe98ee0d422f2de6ab5dfb85d329348"),
])
def test_plane_and_quadrangle_digests(build, q, digest):
    assert sha(serialize_bipartite(build(q))) == digest


def test_seed_brackets():
    hexagon = plan(6, 2, 513, 10**300)
    assert (hexagon.m_star, hexagon.n_star) == (9, 2)
    octagon = plan(8, None, 200, 10**300)
    assert (octagon.m_star, octagon.n_star) == (9, 1)


@pytest.mark.parametrize("name", list(THEOREM_BOUNDS))
def test_theorem_bound_digest(name):
    girth, p, n_value, digest = THEOREM_BOUNDS[name]
    tb = theorem_bound(girth, p, n_value())
    assert sha(f"{tb.exponent!r} {tb.bound.exponent} {tb.derived_constant!r}") == digest


# Templates written next to the recipes; the first gives a non-uniform stage.
TEMPLATE_FILES = {
    "tpl.hgt": "hgt 1\nvertices 4\nedges 2\ne 0 1\ne 1 2 3\n",
    "tpl3.hgt": "hgt 1\nvertices 3\nedges 2\ne 0 1\ne 1 2\n",
}

# name -> (recipe text, {file written to the output directory: sha256})
RECIPES = {
    "readme": (
        "rcp 1\ntarget 6\nstage gen greedy left=630 right=30 deg=21 girth=12 seed=1\nstage nbhd\n"
        "stage substitute template=path7 k=3\ncertify girth=6 p=5 r=3 N=3967295312526\n",
        {
            "certificate.txt": "2319db5013468035beb46db7bd6d552e295597d34679a5cda055982ba62dc504",
            "report.txt": "5cf746b181996b45772873771b612af526417da802f59c64a4ff30aff5012036",
            "stage_01_gen.bgt": "ea51bb52bfa7f838561d333ed6bcd10e91679f7dd891d2692337af867dd39259",
            "stage_02_nbhd.hgt": "8b75829cfa01fc1cd4abbbe6710f97559f1d35a7bdcda9b2f3f9fe80b7d04607",
            "stage_03_substitute.hgt": "78c641b214f6c5b53cd0ca0bd0171324a4a7ae2beae3f131ae12c4364a0be280",
        },
    ),
    "greedy": (
        "rcp 1\ntarget 5\nstage gen greedy left=500 right=100 deg=10 girth=10 seed=4242\nstage nbhd\n"
        "stage split r=2\nstage pad to=600\n",
        {
            "report.txt": "31b31c69a6b66a76cbf7207faa8871615d3c4860ab5ccdde29eea24a1aa3104f",
            "stage_01_gen.bgt": "1d5a889c6a97accc5a9755f434826fe7aa7527e4f8ab176a47719432277cdd26",
            "stage_02_nbhd.hgt": "85ab449a061cc08be30e58fd661dbc95e878cd3bf269996030536c6ef40d6da4",
            "stage_03_split.hgt": "3b6a4a974d0315d4991c1a202354addd3fc255e2cee23b192f1a2960925913c6",
            "stage_04_pad.hgt": "9f09723e54ae41944b3b18b3025519f70155a367eb208bb7247d7a96a889ee3f",
        },
    ),
    "plane": (
        "rcp 1\ntarget 3\nstage gen plane q=13\nstage nbhd\nstage substitute template=path7 k=2\n"
        "stage split r=2\nstage pad to=200\ncertify girth=6 p=3 r=4 N=" + "7" * 40 + "\n",
        {
            "certificate.txt": "26b4807aabaf0e623b3746a946ff178f646adcc0377c18773b424c601e6d38f6",
            "report.txt": "f0a2fd6332d8f063e50556e5a5503ea5ba23e126da3fe898fe05768f214335bf",
            "stage_01_gen.bgt": "0d98046e499326afb23f16d789c39bb69554358d30cbdd7726f7e92a005f0bdc",
            "stage_02_nbhd.hgt": "123288632b19645c29620f87d872be82582466241f8cb138d728ee2a30e226a2",
            "stage_03_substitute.hgt": "1028691610d06e3345d2bf184836db89f6949b6734d90d9384dad9d8e1761f76",
            "stage_04_split.hgt": "fad8ea02747cd97305989dc33527660a9fe709442f78ad9440877a6ca9a8cde8",
            "stage_05_pad.hgt": "d4a2b86c7e028f8a1693b136d191e53b4648034c9feb6ac3f67bfbf85edb3550",
        },
    ),
    "quadrangle": (
        "rcp 1\ntarget 4\nstage gen quadrangle q=7\nstage nbhd\nstage substitute template=path7 k=1\n"
        "stage split r=2\ncertify girth=8 r=3 N=" + "5" * 45 + "\n",
        {
            "certificate.txt": "24055b15f7b5878935e78eb0e4e17295b804677c79514253a096df21d73bf404",
            "report.txt": "ff8c35dc292185993d641cc214e5aa050bcacbb8ee3ceb664e440da78c5db0d5",
            "stage_01_gen.bgt": "3fafc907ab20d45a1ef12fc6322c48bdc3852dfca62d85a791ae1f2be3269d02",
            "stage_02_nbhd.hgt": "3f5c3ab12f7979320f9c983f8bc7bc9b67c38ab4258ffccede031bb3b8697592",
            "stage_03_substitute.hgt": "9105912cc245938f23cd2c28070a94de8067ded49914e269335fa2baf25efa19",
            "stage_04_split.hgt": "2519c0a03fd3c1edadd51b0966c5fd8264ba59da1d1fd1d1e6cdb29af40f2fff",
        },
    ),
    "hexagon-split-pad": (
        "rcp 1\ntarget 6\nstage gen hexagon q=2\nstage nbhd\nstage split r=2\nstage pad to=100\n",
        {
            "report.txt": "24ffa6ee829824173b70eefe299c26d5f34fc80eb43f24962ccb6533b8805382",
            "stage_01_gen.bgt": "2980ea4fb064f64c7987b02c0eb256c6af705039267a6cdf3c1159abe0d6264b",
            "stage_02_nbhd.hgt": "ee00883663547ad478069fc27c82b3381ae54062285586c639b8047ab8bdbe44",
            "stage_03_split.hgt": "3d17103502aeaba5220a8ef55db3b9bfa789211815474fb3f9d27f069eeaff8e",
            "stage_04_pad.hgt": "92a7412712381900844e8476c3c2086bb8a80a942ff5eceb74a010148501bb52",
        },
    ),
    "loose-path": (
        "rcp 1\ntarget 3\nstage gen plane q=5\nstage nbhd\nstage substitute template=loose-path:2:3 k=1\n",
        {
            "report.txt": "b34a500fe08d2a74ce7498872b870e9092eaeb1450704780f5c432ee3b739f53",
            "stage_01_gen.bgt": "dc60fefe7df81e6d930323ac8f697bd6a6788203807edb672e1f2203f4450f53",
            "stage_02_nbhd.hgt": "126de149858901505ec47b609f787ac9868926d2f5a6a7adc16b236177f0d51a",
            "stage_03_substitute.hgt": "59cb70700b72550d21c89634432dfbca610c1200f68a2de03ea83edb50997d96",
        },
    ),
    "template-file": (
        "rcp 1\ntarget 3\nstage gen plane q=3\nstage nbhd\nstage substitute template=<tmp>/tpl.hgt k=1\n",
        {
            "report.txt": "c8871565c944860d1cf35b61264070cff535d9b0dafed0f98af0ee89a35ea376",
            "stage_01_gen.bgt": "33a26ee46d0463e67f8269d7af83fe0b2bd17bedb8cb345468bda48840a2d330",
            "stage_02_nbhd.hgt": "cad6cd505a349430f7a64e8b74da7b033fdebcd49eed789bc1b0697dc1d35afc",
            "stage_03_substitute.hgt": "9ca5181af72e8ed51eb5923f7d5934756612acddef91f6e9c17fe001045ab739",
        },
    ),
}

# argv, run in order in one directory -> sha256 of its stdout
COMMANDS = {
    "gen plane --q 7 <tmp>/p7.bgt": "c3ecccc8b051d36b542f907810c2cb11ff59029e60339a727abfdd5e0cc8524d",
    "gen quadrangle --q 3 <tmp>/w3.bgt": "3774ea1016715b2d2ad7f1e1ccdcc5744bd0242d8da43d419850a027f38a2fbc",
    "gen hexagon --q 2 <tmp>/h2.bgt": "3db3bba9372879165a5b37f26b3f211e194b9c66529834424a87a77437d6cd7a",
    "gen greedy --left 30 --right 30 --deg 3 --girth 12 --seed 1 <tmp>/g.bgt":
        "4ca0f37c896d8ec062f2137fc244e5cd208edcb3ae331488297f2be3754f54a9",
    "transform nbhd <tmp>/p7.bgt <tmp>/p7.hgt": "0b7cad4fa69ba8d80e7992c09d30d4901c40bfa776cefe60ec3e32ba699c91c6",
    "transform substitute <tmp>/p7.hgt <tmp>/sub.hgt --template path7 --k 1":
        "18f939eafe46e5ab83f2775021c61f8f489db7456417a78167161f7e37b120ae",
    "transform split <tmp>/sub.hgt <tmp>/pairs.hgt --r 2":
        "142108a3bc1e2f03a1a8c8b88a598eaf5a1edd34aa3e36352b94b253d1e5e627",
    "transform pad <tmp>/pairs.hgt <tmp>/padded.hgt --to 100":
        "7c7d63f42360a1022a0aba11134bf7a24f5f795097074999281be2d7fbffcf12",
    "transform nbhd <tmp>/h2.bgt <tmp>/h2.hgt": "ad5593cb3253af92d0d71b40568802850647e98a16f4c4e972b45759596a54a1",
    "transform substitute <tmp>/h2.hgt <tmp>/h2sub.hgt --template <tmp>/tpl3.hgt --k 1":
        "a9441e560f30e8f6dc29630e52e01de6016901c07b953978bd895dea3f794b1e",
    "report <tmp>/p7.bgt": "bb9cd59c7608ae37dda62f7f667637e376ebd31aa525b14c1b4998e05e77eb69",
    "girth <tmp>/p7.bgt": "8e3024e32ad03f31cb760b8f0ff1916df9e1f613b6704033127c70d44bd50ad2",
    "report <tmp>/w3.bgt": "f959a063026bea4f7cabb95dd824552a68da4f9e7c169a87dcfb58ea6f0ce669",
    "girth <tmp>/w3.bgt": "cc0e8200ea7d2b5ba2cd006f59c7703b78904d5d98c8d866faeb64743185b3db",
    "report <tmp>/h2.bgt": "0e1e4ac2f09a28007803c27c88a8ee0e556ecc134bf59883ce9c06b09a944974",
    "girth <tmp>/h2.bgt": "956ee3421d89c2d799980c4d859c25b1bddd1472eaf7dcb477426cbcda645383",
    "report <tmp>/g.bgt": "4c01fae76444233ca4cd3b93c7b4b23efefc5c8b654bc375e6b4e989cf55a1ce",
    "girth <tmp>/g.bgt": "45ad6cc4d8ad5758171514e4336e1b88d99e17b05e8c76978e3608ac83c615c9",
    "report <tmp>/p7.hgt": "f13a8392fdb30d52dde55884fcad3d097146e2274cf0829c0aa51f3c600cee5b",
    "girth <tmp>/p7.hgt": "25ea3118b35c736022cc36c5ecf4bb14097508785bf5a407f4eb2042c656ccf5",
    "report <tmp>/sub.hgt": "b9d938261db1cfe477c8c595b071092c5de8093aa864c4ff3bc5d2b2bb03b9c8",
    "girth <tmp>/sub.hgt": "25ea3118b35c736022cc36c5ecf4bb14097508785bf5a407f4eb2042c656ccf5",
    "report <tmp>/pairs.hgt": "74829abe6270804f6c784c96fbda518be8fc8f2550a54df298e3c6f552e2f85f",
    "girth <tmp>/pairs.hgt": "25ea3118b35c736022cc36c5ecf4bb14097508785bf5a407f4eb2042c656ccf5",
    "report <tmp>/padded.hgt": "72ae2e335765364bf1298abb4476b05f41f15412fca3ae476c67116abf165971",
    "girth <tmp>/padded.hgt": "25ea3118b35c736022cc36c5ecf4bb14097508785bf5a407f4eb2042c656ccf5",
    "report <tmp>/h2.hgt": "49f455cd30bd8011c6d35e2ecba961c01f37cdd4387f60aec281ee8cc38edd72",
    "girth <tmp>/h2.hgt": "ff017e696c4c795fbd69b1a4a041f088e900e90db7e5dff9c299abccbe0e0b02",
    "report <tmp>/h2sub.hgt": "57ecdb896457625d76a21e9333b9b4bf9e43d41de665d6b0b1019d43a630fee6",
    "girth <tmp>/h2sub.hgt": "ff017e696c4c795fbd69b1a4a041f088e900e90db7e5dff9c299abccbe0e0b02",
    "girth <tmp>/h2.hgt --oracle-max 6": "c28ac5db007de51b944bdbf27a4da5ab66027c3741830fe750a50de01163c525",
    "gen quadrangle --q 2 <tmp>/w2.bgt": "5c72ccb27bd7c3f491f014f580e9055a150c9abc2a4cd28b299850fb8cf43421",
    "gen quadrangle --q 5 <tmp>/w5.bgt": "53d643732a24eb0ce8df74da151b961f50d4194d4aae064fef4923be80e46f2f",
    "gen hexagon --q 3 <tmp>/h3.bgt": "b605b445fcc5d55678e13fb344cdc9f98ab4a5c12f93ce38775c4843152f7c19",
    "gen plane --q 2 <tmp>/p2.bgt": "0e1c4aac8e22e82de83c7ccbd2205799b961aa3f5bd1876578914abc397f49cd",
    "gen plane --q 11 <tmp>/p11.bgt": "bf9ae41648fe88c312139225f23036e514f68bed476d73a5392651628a8cd10c",
    "gen plane --q 13 <tmp>/p13.bgt": "279d1b7b1ba68c45ec53eca2332a4ecedbf83c818a32e065e5bdbdbd3c705c73",
    "gen quadrangle --q 7 <tmp>/w7.bgt": "fd965e975421b7651ebf2025715c5f83bd25e51b041bfbea27c578ed51d61e00",
    # greedy with the left side the smaller one
    "gen greedy --left 30 --right 200 --deg 3 --girth 10 --seed 7 <tmp>/gw.bgt":
        "64bc992c146da485c4f04c330fedd13abf3095431763bba7ae27285518bb9546",
}

# files the commands above write -> sha256
COMMAND_FILES = {
    "g.bgt": "e9bdb0def5baf55275b776dd3b46f82c8dea2c5899f8168d01475dbdd691278c",
    "gw.bgt": "65b2b54213ae8536a8623437c5b5bb4ab1cb26193fdd32ced868f48e7a1a2285",
    "h3.bgt": "6769ba165cd328dc63e9dbaf47ff1ae5bb5e6ff143908444d9d2b42dc9e97d02",
    "h2.bgt": "2980ea4fb064f64c7987b02c0eb256c6af705039267a6cdf3c1159abe0d6264b",
    "h2.hgt": "ee00883663547ad478069fc27c82b3381ae54062285586c639b8047ab8bdbe44",
    "h2sub.hgt": "60aff30b5760d897d8ff10352e2b8243324f0723516eb951d499d33e2577637b",
    "p2.bgt": "54b9c99833588b877247078154814bb8e0adbceae51af16211ac2d1d592fd15a",
    "p7.bgt": "6e9b75df75ab030654910e735a88938fd959e0d111ce397ac872e78086a4b560",
    "p11.bgt": "5d700b66c1c475ecae444cb407fbe0e3695d6aba01bbfc1a41f4d0d73af5b84b",
    "p13.bgt": "0d98046e499326afb23f16d789c39bb69554358d30cbdd7726f7e92a005f0bdc",
    "p7.hgt": "f1579b399c016df4a4a04fc1ac7c03e631f9c435fed1b2cc562eafca448e1582",
    "padded.hgt": "30c18bafcdac7a01f50f90371468ce0c6e1cbb605a2f41e4534043e1b10b2270",
    "pairs.hgt": "7a7a4f621a8407409d5716aa488c82e36783121ffaf6f503a6e54faa56747bf1",
    "sub.hgt": "5714e4bee1ee0f4199fa9e2a8d33807e67e614e2017c52ce6bfed8aad02da90b",
    "w2.bgt": "59b9ccdf76e204b85f8b7155c2e5ff5a507a9d4a1d5132827955d404e57db6b2",
    "w3.bgt": "f9ed4032515ac749fa70ac4c07f0ec62d45071bbd5a297ff435ca4e0166625b4",
    "w5.bgt": "6939b7929256b7702219a11c23355d7cb8cdc55aea855f6842713cd201ee99b1",
    "w7.bgt": "3fafc907ab20d45a1ef12fc6322c48bdc3852dfca62d85a791ae1f2be3269d02",
}


def _write_templates(tmp_path) -> None:
    for name, text in TEMPLATE_FILES.items():
        (tmp_path / name).write_text(text)


def _digests(directory, tmp_path, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(directory, name), encoding="ascii", newline="") as fh:
            out[name] = sha(fh.read().replace(str(tmp_path), "<tmp>"))
    return out


@pytest.mark.parametrize("name", list(RECIPES))
def test_pipeline_file_digests(name, tmp_path, capsys):
    text, digests = RECIPES[name]
    _write_templates(tmp_path)
    recipe = tmp_path / "r.rcp"
    recipe.write_text(text.replace("<tmp>", str(tmp_path)))
    out_dir = tmp_path / "out"
    assert main(["pipeline", str(recipe), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert _digests(out_dir, tmp_path, sorted(os.listdir(out_dir))) == digests


def test_command_stdout_digests(tmp_path, capsys):
    _write_templates(tmp_path)
    got = {}
    for command in COMMANDS:
        assert main(command.replace("<tmp>", str(tmp_path)).split()) == 0, command
        got[command] = sha(capsys.readouterr().out.replace(str(tmp_path), "<tmp>"))
    assert got == COMMANDS
    assert _digests(tmp_path, tmp_path, COMMAND_FILES) == COMMAND_FILES
