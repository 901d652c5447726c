import itertools

import pytest

from hypergirth import (
    FormatError,
    PreconditionError,
    PrimeField,
    girth_bipartite,
    greedy_high_girth_bipartite,
    projective_plane,
    serialize_bipartite,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from hypergirth.pipeline import parse_recipe, run_op, run_pipeline


class TestPrimeField:
    def test_rejects_composite(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(PreconditionError):
                PrimeField(bad)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_axioms_spot_check(self, p):
        f = PrimeField(p)
        elems = list(f.elements())
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in elems:
            assert f.add(a, f.neg(a)) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1

    def test_inverse_of_zero(self):
        with pytest.raises(PreconditionError):
            PrimeField(5).inv(0)


class TestProjectivePlane:
    def test_q2_is_heawood(self, plane2):
        assert (plane2.n_left, plane2.n_right) == (7, 7)
        assert plane2.num_incidences == 21
        assert girth_bipartite(plane2).girth == 6
        assert set(plane2.left_degrees) == {3} and set(plane2.right_degrees) == {3}

    @pytest.mark.parametrize("q,side", [(3, 13), (5, 31)])
    def test_counts(self, q, side):
        g = projective_plane(q)
        assert g.n_left == g.n_right == side == q * q + q + 1
        assert g.num_incidences == side * (q + 1)
        assert girth_bipartite(g).girth == 6

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 17])
    def test_bad_orders(self, q):
        with pytest.raises(PreconditionError):
            projective_plane(q)


class TestSymplecticQuadrangle:
    def test_q2_fingerprint(self, quad2):
        assert (quad2.n_left, quad2.n_right) == (15, 15)
        assert quad2.num_incidences == 45
        assert girth_bipartite(quad2).girth == 8
        assert set(quad2.left_degrees) == {3} and set(quad2.right_degrees) == {3}

    def test_q3(self):
        g = symplectic_quadrangle(3)
        assert (g.n_left, g.n_right, g.num_incidences) == (40, 40, 160)
        assert girth_bipartite(g).girth == 8

    def test_neighborhood_girth_four(self, quad2):
        from hypergirth import girth_hypergraph, neighborhood_hypergraph

        assert girth_hypergraph(neighborhood_hypergraph(quad2)).girth == 4

    @pytest.mark.parametrize("q", [1, 4, 11])
    def test_bad_orders(self, q):
        with pytest.raises(PreconditionError):
            symplectic_quadrangle(q)


class TestSplitCayleyHexagon:
    def test_q2_fingerprint(self, hex2):
        assert (hex2.n_left, hex2.n_right) == (63, 63)
        assert hex2.num_incidences == 189
        assert set(hex2.left_degrees) == {3} and set(hex2.right_degrees) == {3}
        assert girth_bipartite(hex2).girth == 12

    def test_neighborhood_is_three_uniform_girth_six(self, hex2):
        from hypergirth import girth_hypergraph, neighborhood_hypergraph, validate

        h = neighborhood_hypergraph(hex2)
        rep = validate(h)
        assert rep.uniformity == 3 and rep.regularity == 3
        assert girth_hypergraph(h).girth == 6

    def test_bad_orders(self):
        with pytest.raises(PreconditionError):
            split_cayley_hexagon(4)


class TestGreedy:
    def test_spec_example(self):
        g, rep = greedy_high_girth_bipartite(30, 30, 3, 12, 1)
        assert max(g.right_degrees) <= 3
        girth = girth_bipartite(g).girth
        assert girth is None or girth >= 12

    def test_degree_one_is_forest(self):
        g, rep = greedy_high_girth_bipartite(10, 10, 1, 6, 3)
        assert girth_bipartite(g).is_infinite
        assert max(g.right_degrees) <= 1

    def test_underfilled_reported(self):
        g, rep = greedy_high_girth_bipartite(4, 4, 4, 6, 7)
        assert rep.rights_below_target > 0
        assert not rep.filled
        girth = girth_bipartite(g).girth
        assert girth is None or girth >= 6
        assert sum(count for _, count in rep.degree_histogram) == 4
        assert any("rights-below-target" in line for line in rep.lines())

    def test_deterministic(self):
        a, _ = greedy_high_girth_bipartite(25, 25, 3, 8, 42)
        b, _ = greedy_high_girth_bipartite(25, 25, 3, 8, 42)
        assert serialize_bipartite(a) == serialize_bipartite(b)
        c, _ = greedy_high_girth_bipartite(25, 25, 3, 8, 43)
        assert serialize_bipartite(a) != serialize_bipartite(c)

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_girth_floor_holds_over_seeds(self, seed):
        target = 6 + 2 * (seed % 4)
        g, rep = greedy_high_girth_bipartite(24, 18, 3, target, seed)
        girth = girth_bipartite(g).girth
        assert girth is None or girth >= target
        assert max(g.right_degrees, default=0) <= 3

    def test_validation(self):
        with pytest.raises(PreconditionError):
            greedy_high_girth_bipartite(0, 5, 2, 6, 1)
        with pytest.raises(PreconditionError, match="even"):
            greedy_high_girth_bipartite(5, 5, 2, 7, 1)


class TestGeometrySpec:
    """The generator rows of the op table, as `gen` and recipe stages use them."""

    def test_dispatch(self):
        g, predicted, rep = run_op("plane", None, {"q": 2})
        assert g.n_left == 7 and predicted == 21 and rep is None
        g, predicted, rep = run_op("greedy", None, {"left": 5, "right": 5, "deg": 2, "girth": 6, "seed": 0})
        assert rep is not None and predicted is None

    def test_errors(self, tmp_path):
        with pytest.raises(FormatError, match="needs a kind in"):
            parse_recipe("rcp 1\ntarget 2\nstage gen cube q=2\n")
        with pytest.raises(PreconditionError, match=r"missing \['q'\]"):
            run_pipeline(parse_recipe("rcp 1\ntarget 2\nstage gen plane\n"), str(tmp_path / "a"))
        with pytest.raises(PreconditionError, match="missing"):
            run_pipeline(parse_recipe("rcp 1\ntarget 2\nstage gen greedy left=3\n"), str(tmp_path / "b"))
