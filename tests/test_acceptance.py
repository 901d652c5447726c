"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here (girth and arithmetic checks are
exact, the asymptotic exponents are compared to an independent
high-precision evaluation at 12 significant digits).
"""

import hashlib
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction

from hypergirth import (
    Hypergraph,
    certificate,
    girth_bipartite,
    girth_hypergraph,
    girth_oracle,
    greedy_high_girth_bipartite,
    loose_path,
    neighborhood_hypergraph,
    plan,
    projective_plane,
    split_cayley_hexagon,
    substitute_edges,
    symplectic_quadrangle,
    theorem_bound,
)
from hypergirth.planner import ROUTES
from hypergirth.transforms import SubstitutionPlan

from conftest import subprocess_env


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


def cycle_hypergraph(k: int) -> Hypergraph:
    return Hypergraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def matching(r: int, count: int) -> Hypergraph:
    return Hypergraph.from_edges(r * count, [tuple(range(i * r, (i + 1) * r)) for i in range(count)])


def test_criterion_1_geometry_fingerprints():
    with criterion(1, "geometry fingerprints with exact girths"):
        t0 = time.monotonic()
        plane = projective_plane(2)
        assert (plane.n_left, plane.n_right) == (7, 7)
        assert girth_bipartite(plane).girth == 6

        quad = symplectic_quadrangle(2)
        assert (quad.n_left, quad.n_right) == (15, 15)
        assert girth_bipartite(quad).girth == 8

        hexa = split_cayley_hexagon(2)
        assert (hexa.n_left, hexa.n_right) == (63, 63)
        assert set(hexa.left_degrees) == {3} and set(hexa.right_degrees) == {3}
        assert girth_bipartite(hexa).girth == 12
        small_elapsed = time.monotonic() - t0
        assert small_elapsed < 10.0, f"small fingerprints took {small_elapsed:.1f}s"

        t0 = time.monotonic()
        hexa3 = split_cayley_hexagon(3)
        assert (hexa3.n_left, hexa3.n_right) == (364, 364)
        assert set(hexa3.left_degrees) == {4} and set(hexa3.right_degrees) == {4}
        assert girth_bipartite(hexa3).girth == 12
        big_elapsed = time.monotonic() - t0
        assert big_elapsed < 120.0, f"hexagon q=3 took {big_elapsed:.1f}s"


def test_criterion_2_girth_doubling():
    with criterion(2, "bipartite girth equals twice the neighborhood-hypergraph girth"):
        geometries = [
            projective_plane(2),
            symplectic_quadrangle(2),
            split_cayley_hexagon(2),
            split_cayley_hexagon(3),
        ]
        for g in geometries:
            doubled = girth_hypergraph(neighborhood_hypergraph(g)).girth
            assert girth_bipartite(g).girth == 2 * doubled

        checked = 0
        for seed in range(1, 101):
            target = 6 + 2 * ((seed - 1) % 6)  # girth targets 6..16
            g, _ = greedy_high_girth_bipartite(60, 20, 3, target, seed)
            h = neighborhood_hypergraph(g)
            bg = girth_bipartite(g)
            hg = girth_hypergraph(h)
            if bg.girth is None:
                assert hg.girth is None
            else:
                assert bg.girth == 2 * hg.girth
            checked += 1
        assert checked >= 100


def test_criterion_3_substitution_preserves_girth():
    with criterion(3, ">= 200 substitution trials keep girth >= g, oracle-confirmed"):
        pools = {
            4: [(cycle_hypergraph(4), 2), (cycle_hypergraph(4), 1), (cycle_hypergraph(6), 1),
                (loose_path(2, 3), 1), (matching(2, 2), 2), (loose_path(4, 2), 1)],
            6: [(cycle_hypergraph(6), 1), (cycle_hypergraph(8), 1), (loose_path(3, 3), 1),
                (matching(3, 2), 1), (loose_path(2, 3), 1)],
            8: [(cycle_hypergraph(8), 1), (loose_path(3, 3), 1), (matching(2, 4), 1),
                (loose_path(4, 2), 1), (loose_path(2, 3), 1)],
        }
        trials = 0
        oracle_confirmed = 0
        for i in range(201):
            g = (4, 6, 8)[i % 3]
            template, k = pools[g][i % len(pools[g])]
            graph, _ = greedy_high_girth_bipartite(96, 12, 8, 2 * g, 1000 + i)
            kept = sorted(set(nb for nb in graph.right_neighbors if len(nb) == 8))
            host = Hypergraph(graph.n_left, tuple(kept))
            assert host.num_edges > 0
            host_girth = girth_hypergraph(host).girth
            assert host_girth is None or host_girth >= g
            template_girth = girth_hypergraph(template).girth
            assert template_girth is None or template_girth >= g

            out = substitute_edges(SubstitutionPlan(host, template, k))
            out_girth = girth_hypergraph(out).girth
            assert out_girth is None or out_girth >= g, (i, g, out_girth)
            trials += 1
            if out.incidence_count <= 2000:
                assert girth_oracle(out, g - 1).girth is None
                oracle_confirmed += 1
        assert trials >= 200
        assert oracle_confirmed >= 200


def test_criterion_4_exact_formulas():
    with criterion(4, "substrate counts, order sequences and level-crossing identities exact"):
        assert ROUTES[6].v(2) == 819
        assert ROUTES[6].substrate(2)[1] == 2457
        assert ROUTES[8].v(2) == 1755
        assert ROUTES[8].substrate(2)[1] == 2925

        assert ROUTES[6].order(5, 2, 2).expand() == 5**19 == 19073486328125

        # the standing assumption p^(m-1) >= 5 pins each base's smallest m;
        # the sweep covers every valid (p, m, n) in the box, and the invalid
        # combinations are rejected rather than silently skipped
        minimum_m = {2: 4, 3: 3, 5: 2, 7: 2}
        import pytest

        from hypergirth import PreconditionError

        for p, m_min in minimum_m.items():
            for m in range(2, m_min):
                with pytest.raises(PreconditionError):
                    ROUTES[6].order(p, m, 1)
        combos = 0
        for p, m_min in minimum_m.items():
            for m in range(m_min, 13):
                exps = [Fraction(m)]
                for _ in range(3):
                    exps.append(9 * exps[-1] + 1)
                for n in range(1, 5):
                    assert ROUTES[6].order(p, m, n).exponent == exps[n - 1]
                    combos += 1
        assert combos > 100

        for m in range(5, 14, 2):
            exps = [Fraction(m)]
            for _ in range(3):
                exps.append(10 * exps[-1] + 1)
            for n in range(1, 5):
                assert ROUTES[8].order(2, m, n).exponent == exps[n - 1]

        for n in range(1, 4):
            for p in (2, 3, 5):
                assert (
                    ROUTES[6].order(p, 9 ** (n + 1) + 1, n).exponent
                    == ROUTES[6].order(p, 9**n, n + 1).exponent
                )
            # m = 10^n is even: the girth-8 premises refuse the order, so
            # read its (n+1)-th exponent
            closed = ROUTES[8].exponent(10**n, n + 1)
            assert (
                ROUTES[8].order(2, 10 ** (n + 1) + 1, n).exponent
                == closed
                == 10 ** (2 * n) + Fraction(10**n - 1, 9)
            )


def test_criterion_5_certificates():
    with criterion(5, "girth-6 and girth-8 certificates VALID with 64th/72nd-power edge bounds"):
        t0 = time.monotonic()
        hex_cert = certificate(6, 5, 2, 2, 3)
        hex_elapsed = time.monotonic() - t0
        assert hex_cert.valid
        assert hex_elapsed < 30.0
        vals = dict(hex_cert.values)
        assert vals["order_2"] == "5^19"
        assert vals["edge_bound"] == "5^231"
        assert ROUTES[6].edge_bound(5, 2, 2).exponent == 231
        edge_check = [c for c in hex_cert.checks if c.name == "edge-bound"]
        assert edge_check and edge_check[0].passed and "64" in edge_check[0].statement
        assert int(vals["edges"]) ** 64 >= 5 ** (64 * 231)

        t0 = time.monotonic()
        oct_cert = certificate(8, None, 5, 2, 3)
        oct_elapsed = time.monotonic() - t0
        assert oct_cert.valid
        assert oct_elapsed < 30.0
        vals8 = dict(oct_cert.values)
        assert vals8["order_2"] == "2^51"
        assert vals8["edge_bound"] == "2^616"
        assert ROUTES[8].edge_bound(2, 5, 2).exponent == 616
        edge_check8 = [c for c in oct_cert.checks if c.name == "edge-bound"]
        assert edge_check8 and edge_check8[0].passed and "72" in edge_check8[0].statement


def test_criterion_6_sandwich_planning():
    with criterion(6, "sandwich planning returns the pinned (m, n) and re-checks exactly"):
        def hexagon_v(q):
            return (1 + q) * (1 + q**4 + q**8)

        def octagon_v(q):
            return (1 + q) * (1 + q**3 + q**6 + q**9)

        n_star = hexagon_v(25)
        cases = [
            (n_star, (2, 1)),
            (hexagon_v(5**3) - 1, (2, 1)),
            (hexagon_v(5**3), (3, 1)),
        ]
        for n_value, expected in cases:
            res = plan(6, 5, 3, n_value)
            assert (res.m, res.n) == expected
            assert (res.m_star, res.n_star) == (2, 1)
            assert res.seed_vertices == n_star == 3967295312526
            low = hexagon_v(ROUTES[6].order(5, res.m, res.n).expand())
            high = hexagon_v(ROUTES[6].order(5, res.m + 1, res.n).expand())
            assert low <= n_value < high

        oct_cases = [
            (octagon_v(2**5), (5, 1)),
            (octagon_v(2**7) - 1, (5, 1)),
            (octagon_v(2**7), (7, 1)),
        ]
        for n_value, expected in oct_cases:
            res = plan(8, None, 3, n_value)
            assert (res.m, res.n) == expected
            assert (res.m_star, res.n_star) == (5, 1)
            low = octagon_v(ROUTES[8].order(2, res.m, res.n).expand())
            high = octagon_v(ROUTES[8].order(2, res.m + 2, res.n).expand())
            assert low <= n_value < high


def test_criterion_7_theorem_exponents():
    with criterion(7, "display exponents match an independent evaluation to 12 digits"):
        with localcontext() as ctx:
            ctx.prec = 60
            for exp2 in (100, 10**6):
                n_value = 2**exp2
                for p in (2, 5):
                    log_p_n = Decimal(exp2) * Decimal(2).ln() / Decimal(p).ln()
                    expected = Decimal(11) / 8 * (1 - 33 / log_p_n.sqrt())
                    got = theorem_bound(6, p, n_value).exponent
                    assert abs(got - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))
                expected8 = Decimal(11) / 9 * (1 - 13 * (Decimal(10) / Decimal(exp2)).sqrt())
                got8 = theorem_bound(8, None, n_value).exponent
                assert abs(got8 - float(expected8)) <= 1e-12 * max(1.0, abs(float(expected8)))
        # spot values pinned exactly: sqrt(log2 2^100) = 10, so the girth-6
        # display collapses to (11/8)(1 - 3.3)
        assert theorem_bound(6, 2, 2**100).exponent == -3.1625
        assert theorem_bound(6, 2, 2 ** (10**6)).exponent == 1.329625


def test_criterion_8_end_to_end_pipelines(tmp_path):
    from hypergirth import parse_recipe, run_pipeline

    with criterion(8, "end-to-end recipes produce the promised structures"):
        t0 = time.monotonic()
        recipe = parse_recipe(
            "rcp 1\n"
            "target 6\n"
            "stage gen greedy left=630 right=30 deg=21 girth=12 seed=1\n"
            "stage nbhd\n"
            "stage substitute template=path7 k=3\n"
        )
        report, greedy = run_pipeline(recipe, str(tmp_path / "p1"))
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
        final = report.stages[-1]
        assert final.kind == "hypergraph"
        assert final.girth == "inf" or int(final.girth) >= 6
        assert ("uniformity", "3") in final.summary
        assert final.actual_edges == final.predicted_edges == 270

        recipe2 = parse_recipe(
            "rcp 1\n"
            "target 6\n"
            "stage gen hexagon q=2\n"
            "stage nbhd\n"
            "stage split r=2\n"
            "stage pad to=100\n"
        )
        report2, _ = run_pipeline(recipe2, str(tmp_path / "p2"))
        final2 = report2.stages[-1]
        assert ("vertices", "100") in final2.summary
        assert final2.actual_edges == 63
        assert ("uniformity", "2") in final2.summary
        assert final2.girth == "inf" or int(final2.girth) >= 6


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "hypergirth", *args],
        capture_output=True, text=True, cwd=cwd, env=subprocess_env(),
    )
    assert proc.returncode == 0, f"{args}: {proc.stderr}"
    return proc.stdout


def _tree_hashes(root):
    hashes = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            hashes[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return hashes


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "repeated runs of every acceptance command are bit-identical"):
        recipe_text = (
            "rcp 1\n"
            "target 6\n"
            "stage gen hexagon q=2\n"
            "stage nbhd\n"
            "stage split r=2\n"
            "stage pad to=100\n"
            "certify girth=6 p=5 r=3 N=3967295312526\n"
        )
        runs = []
        for tag in ("one", "two"):
            work = tmp_path / tag
            work.mkdir()
            (work / "r.rcp").write_text(recipe_text)
            outputs = {}
            outputs["gen plane"] = _run_cli(["gen", "plane", "--q", "2", "p.bgt"], work)
            outputs["gen quadrangle"] = _run_cli(["gen", "quadrangle", "--q", "2", "w.bgt"], work)
            outputs["gen hexagon"] = _run_cli(["gen", "hexagon", "--q", "2", "h.bgt"], work)
            outputs["gen greedy"] = _run_cli(
                ["gen", "greedy", "--left", "30", "--right", "30", "--deg", "3",
                 "--girth", "12", "--seed", "1", "g.bgt"], work)
            outputs["nbhd"] = _run_cli(["transform", "nbhd", "h.bgt", "h.hgt"], work)
            outputs["substitute"] = _run_cli(
                ["transform", "substitute", "h.hgt", "sub.hgt", "--template",
                 "loose-path:1:2", "--k", "1"], work)
            outputs["split"] = _run_cli(["transform", "split", "h.hgt", "s.hgt", "--r", "2"], work)
            outputs["pad"] = _run_cli(["transform", "pad", "s.hgt", "pad.hgt", "--to", "100"], work)
            outputs["girth"] = _run_cli(["girth", "h.hgt", "--oracle-max", "6"], work)
            outputs["report"] = _run_cli(["report", "h.hgt"], work)
            outputs["plan6"] = _run_cli(
                ["plan", "--girth", "6", "--p", "5", "--r", "3",
                 "--N", "3967295312526", "--cert", "c6.txt"], work)
            outputs["plan8"] = _run_cli(
                ["plan", "--girth", "8", "--r", "3",
                 "--N", "1161119713493025", "--cert", "c8.txt"], work)
            _run_cli(["pipeline", "r.rcp", "--out-dir", "pipe"], work)
            runs.append((outputs, _tree_hashes(work)))

        out_one, hash_one = runs[0]
        out_two, hash_two = runs[1]
        assert out_one == out_two
        assert set(hash_one) == set(hash_two)
        for rel in hash_one:
            assert hash_one[rel] == hash_two[rel], f"{rel} differs between runs"
        assert any(rel.endswith("certificate.txt") for rel in hash_one)
