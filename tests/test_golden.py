"""Golden digests: certificates and `plan` output pinned byte for byte.

Every certificate in the grid is serialized and hashed; a change to any
check line, value line or status shows up as a digest mismatch.  The grid
runs without a digit budget, so it pins what a certificate says, not
whether the default budget admits it.  `plan` stdout is pinned with only
the `certificate <path>` line normalised, together with the certificate
file it writes.  `theorem_bound` is pinned by the repr of its display
exponent, its floored exponent and the repr of its derived constant, at N
away from the exact ties where the floor sits on a multiple of 1/72.
"""

import hashlib
import random

import pytest

from hypergirth import (
    certificate,
    plan_parameters_hexagon,
    plan_parameters_octagon,
    theorem_bound,
)
from hypergirth.cli import main


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# (girth, p, m, n, r) -> sha256 of certificate(...).serialize()
CERTIFICATES = {
    # girth-6 route, VALID at n = 1..4
    (6, 5, 2, 1, 3): "2319db5013468035beb46db7bd6d552e295597d34679a5cda055982ba62dc504",
    (6, 5, 2, 2, 3): "827ad0d74d79c99e217834b4c86b9b8a9ad9754d89afdd6bbd72838f04c5a2a3",
    (6, 5, 2, 3, 3): "22be5c04bf47807111a8664c79d0ee2f298e58f18afa537edbcbd8fbb3554996",
    (6, 5, 2, 4, 3): "a0f267542274a49472e2ea45cec5bb3f93c88a09d8490d87793951f4ebd5565e",
    (6, 3, 3, 1, 5): "5c2a55ca6e18f632d1f674306aae2761fc3bea4b3aeadc7c0853d0e3f0c5da80",
    (6, 3, 3, 2, 5): "2a52142931183188df40792b081b8a85b0c736b6eea27623e68720f6652c2ffa",
    (6, 3, 3, 3, 5): "a28a09f1c8d22e9933e3fedda8349683c888d9dff35e04c1d3403394947e784f",
    (6, 3, 3, 4, 5): "9699d905b2aa2866fae4ce6a353ae8ab49c47dcb00ef32464ab1207f97fec4da",
    (6, 2, 4, 1, 9): "fb30ae7fbfecb56fb2ea486c91900b9ef78614b8fd05035a9c858aeeac384913",
    (6, 2, 4, 4, 9): "3b1496a9b5bca7e2591ab57de37264d9f251e0428dff49b3d886da612b61ffbb",
    # girth-8 route, VALID at n = 1..4
    (8, None, 5, 1, 3): "d92eeed1eb3faf96d09dfe7dece0c54dd7853a350ffbdff43e54243b5854d05e",
    (8, None, 5, 2, 3): "9cb2e192718c3ddc692af1946e701f2b2b1244627e0c002435a183956e7fae6e",
    (8, None, 5, 3, 3): "1e422fa84e699fd5f17245ae48f648381f8ac54b3ad0f69370e3f8ee46c22f16",
    (8, None, 5, 4, 3): "3044633417455f743e0ee9380088bd5cb8163a76784573b43afb0de58f1d2aac",
    (8, 2, 7, 1, 10): "d1ee809faecd1559b71b6d2f6994d196a20cac0c46909caf04190cb08b534285",
    (8, 2, 7, 4, 10): "e26c243675dfd7a4ac5a9148be01ddc7018152e9fb07a0b96b51b953486e8657",
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
    assert sha(certificate(*key, digit_budget=None).serialize()) == CERTIFICATES[key]


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


def test_seed_brackets():
    hexagon = plan_parameters_hexagon(2, 513, 10**300)
    assert (hexagon.m_star, hexagon.n_star) == (9, 2)
    octagon = plan_parameters_octagon(200, 10**300)
    assert (octagon.m_star, octagon.n_star) == (9, 1)


@pytest.mark.parametrize("name", list(THEOREM_BOUNDS))
def test_theorem_bound_digest(name):
    girth, p, n_value, digest = THEOREM_BOUNDS[name]
    tb = theorem_bound(girth, p, n_value())
    assert sha(f"{tb.exponent!r} {tb.bound.exponent} {tb.derived_constant!r}") == digest
