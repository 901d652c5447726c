import itertools
import random
import time

import pytest

from hypergirth import (
    BipartiteGraph,
    EmptySplitWarning,
    Hypergraph,
    PreconditionError,
    ResourceBudgetError,
    SubstitutionPlan,
    build_recursive,
    girth_bipartite,
    girth_hypergraph,
    girth_oracle,
    greedy_high_girth_bipartite,
    loose_path,
    neighborhood_hypergraph,
    serialize_hypergraph,
    split_edges,
    substitute_edges,
    validate,
)
from hypergirth.core import VERTEX_BUDGET


class TestNeighborhoodHypergraph:
    def test_direct_definition(self):
        g = BipartiteGraph.from_incidences(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        h = neighborhood_hypergraph(g)
        assert h.num_vertices == 3
        assert h.edges == ((0, 1), (1, 2))

    def test_empty_neighborhood_dropped(self):
        g = BipartiteGraph.from_incidences(2, 3, [(0, 0), (1, 2)])
        h = neighborhood_hypergraph(g)
        assert h.edges == ((0,), (1,))

    def test_duplicate_neighborhoods_error_names_vertices(self):
        g = BipartiteGraph.from_incidences(2, 3, [(0, 0), (1, 0), (0, 2), (1, 2)])
        with pytest.raises(PreconditionError) as exc:
            neighborhood_hypergraph(g)
        assert str(exc.value) == "right vertices 0 and 2 have the same neighborhood (0, 1)"

    def test_heawood_gives_fano(self, plane2):
        h = neighborhood_hypergraph(plane2)
        rep = validate(h)
        assert h.num_vertices == 7 and h.num_edges == 7
        assert rep.uniformity == 3 and rep.regularity == 3
        assert girth_hypergraph(h).girth == 3
        # Steiner property pins the structure regardless of labeling:
        # every vertex pair lies in exactly one triple.
        cover = {pair: 0 for pair in itertools.combinations(range(7), 2)}
        for e in h.edges:
            for pair in itertools.combinations(e, 2):
                cover[pair] += 1
        assert set(cover.values()) == {1}


class TestSubstituteEdges:
    def test_block_placement(self):
        host = Hypergraph(7, (tuple(range(7)),))
        template = Hypergraph(3, ((0, 1, 2),))
        out = substitute_edges(SubstitutionPlan(host, template, 2))
        assert out.edges == ((0, 1, 2), (3, 4, 5))
        assert out.num_vertices == 7

    def test_offset_blocks_follow_sorted_positions(self):
        host = Hypergraph(10, ((1, 3, 4, 6, 8, 9),))
        template = Hypergraph(2, ((0, 1),))
        out = substitute_edges(SubstitutionPlan(host, template, 3))
        assert out.edges == ((1, 3), (4, 6), (8, 9))

    def test_hexagon_host_two_element_template(self, hex2):
        host = neighborhood_hypergraph(hex2)
        out = substitute_edges(SubstitutionPlan(host, Hypergraph(2, ((0, 1),)), 1))
        assert out.num_edges == 63
        assert validate(out).uniformity == 2
        girth = girth_hypergraph(out).girth
        assert girth is None or girth >= 6

    def test_path_template_into_uniform_host(self):
        g, _ = greedy_high_girth_bipartite(630, 30, 21, 12, 1)
        host = neighborhood_hypergraph(g)
        assert validate(host).uniformity == 21
        out = substitute_edges(SubstitutionPlan(host, loose_path(3, 3), 3))
        assert validate(out).uniformity == 3
        assert out.num_edges == 3 * 3 * host.num_edges
        girth = girth_hypergraph(out).girth
        assert girth is None or girth >= 6

    def test_edge_count_formula_randomized(self):
        rng = random.Random(4)
        for _ in range(20):
            width = rng.randint(4, 9)
            host = Hypergraph.from_edges(
                3 * width, [range(i * width, (i + 1) * width) for i in range(3)]
            )
            t_edges = rng.randint(1, 3)
            template = loose_path(t_edges, 2)
            k = rng.randint(1, width // template.num_vertices) if width >= template.num_vertices else 0
            if k == 0:
                continue
            out = substitute_edges(SubstitutionPlan(host, template, k))
            assert out.num_edges == k * template.num_edges * host.num_edges

    def test_plan_rejects_small_edges(self):
        host = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
        with pytest.raises(PreconditionError, match="host edge 0 has 3 vertices"):
            SubstitutionPlan(host, loose_path(2, 2), 2)
        with pytest.raises(PreconditionError, match="copies_per_edge"):
            SubstitutionPlan(host, loose_path(1, 2), 0)

    def test_duplicate_output_is_hard_error(self):
        host = Hypergraph(4, ((0, 1, 2), (0, 1, 3)))  # girth 2
        with pytest.raises(PreconditionError) as exc:
            substitute_edges(SubstitutionPlan(host, Hypergraph(2, ((0, 1),)), 1))
        assert str(exc.value) == (
            "host edges 0 and 1 both produce edge (0, 1); substitution requires host girth >= 3"
        )

    @pytest.mark.parametrize("host,template", [(Hypergraph(3, ()), loose_path(1, 2)),
                                               (Hypergraph(3, ((0, 1, 2),)), Hypergraph(0, ()))])
    def test_nothing_to_place_ignores_the_copy_count(self, host, template):
        start = time.monotonic()
        assert substitute_edges(SubstitutionPlan(host, template, 10**30)) == Hypergraph(3, ())
        assert time.monotonic() - start < 1.0

    def test_first_clash_names_its_first_source(self):
        # edge (4, 5) comes from host edges 0, 1 and 2; (2, 3) from 1 and 2
        host = Hypergraph(8, ((0, 1, 4, 5), (2, 3, 4, 5), (2, 3, 4, 5, 6, 7)))
        with pytest.raises(PreconditionError) as exc:
            substitute_edges(SubstitutionPlan(host, Hypergraph(4, ((0, 1), (2, 3))), 1))
        assert str(exc.value).startswith("host edges 0 and 1 both produce edge (4, 5);")


class TestSplitEdges:
    def test_floor_seven_over_three(self):
        out = split_edges(Hypergraph(7, (tuple(range(7)),)), 3)
        assert out.edges == ((0, 1, 2), (3, 4, 5))

    def test_small_edges_skipped_silently(self):
        out = split_edges(Hypergraph(5, ((0, 1), (0, 2, 3, 4))), 3)
        assert out.edges == ((0, 2, 3),)
        assert validate(out).uniformity == 3

    def test_all_skipped_warns(self):
        with pytest.warns(EmptySplitWarning):
            out = split_edges(Hypergraph(3, ((0, 1), (1, 2))), 3)
        assert out.num_edges == 0

    def test_duplicate_output_is_hard_error(self):
        host = Hypergraph(5, ((0, 1, 2, 3), (0, 1, 2, 4)))  # girth 2
        with pytest.raises(PreconditionError) as exc:
            split_edges(host, 2)
        assert str(exc.value) == (
            "host edges 0 and 1 both produce edge (0, 1); splitting requires host girth >= 3"
        )

    def test_r_validation(self):
        with pytest.raises(PreconditionError):
            split_edges(Hypergraph(3, ((0, 1, 2),)), 1)

    def test_hexagon_split(self, hex2):
        host = neighborhood_hypergraph(hex2)
        out = split_edges(host, 2)
        assert out.num_edges == 63
        assert validate(out).uniformity == 2
        girth = girth_hypergraph(out).girth
        assert girth is None or girth >= 6

    def test_never_decreases_girth_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(6, 12)
            edges = set()
            for _ in range(rng.randint(2, 8)):
                size = rng.randint(2, 5)
                edges.add(tuple(sorted(rng.sample(range(n), size))))
            h = Hypergraph(n, tuple(sorted(edges)))
            before = girth_hypergraph(h).girth
            try:
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", EmptySplitWarning)
                    out = split_edges(h, 2)
            except PreconditionError:
                continue  # duplicate sub-edges: host girth 2, allowed to refuse
            after = girth_hypergraph(out).girth
            if after is not None:
                assert before is not None and before <= after


class TestLoosePath:
    def test_seven_vertex_path(self):
        h = loose_path(3, 3)
        assert h.num_vertices == 7
        assert h.edges == ((0, 1, 2), (2, 3, 4), (4, 5, 6))
        assert girth_hypergraph(h).is_infinite

    def test_validation(self):
        with pytest.raises(PreconditionError):
            loose_path(0, 3)

    @pytest.mark.parametrize(
        "num_edges,r", [(10**30, 3), (VERTEX_BUDGET // 2 + 1, 3), (1, VERTEX_BUDGET + 2)]
    )
    def test_vertex_budget(self, num_edges, r):
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=f"^loose path has .* budget is {VERTEX_BUDGET}$"):
            loose_path(num_edges, r)
        assert time.monotonic() - start < 1.0


class TestBuildRecursive:
    def test_single_base(self, hex2):
        assert build_recursive([hex2], []) == neighborhood_hypergraph(hex2)

    def test_two_stage(self, hex2):
        g, rep = greedy_high_girth_bipartite(504, 8, 63, 12, 1)
        assert rep.filled
        out = build_recursive([hex2, g], [1])
        assert validate(out).uniformity == 3
        girth = girth_hypergraph(out).girth
        assert girth is None or girth >= 6

    def test_stage_error_reports_sizes(self, hex2):
        g, _ = greedy_high_girth_bipartite(50, 8, 10, 12, 1)
        with pytest.raises(PreconditionError) as exc:
            build_recursive([hex2, g], [1])
        assert str(exc.value) == "stage 2: host edge 0 has 7 vertices but 1 template copies need 63"

    def test_arity_validation(self, hex2):
        with pytest.raises(PreconditionError, match="copy counts"):
            build_recursive([hex2], [2])
        with pytest.raises(PreconditionError, match="at least one base"):
            build_recursive([], [])


class TestGirthDoubling:
    def test_on_geometries(self, plane2, quad2, hex2):
        for g in (plane2, quad2, hex2):
            assert girth_bipartite(g).girth == 2 * girth_hypergraph(neighborhood_hypergraph(g)).girth

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_on_greedy_instances(self, seed):
        target = 6 + 2 * ((seed - 1) % 6)
        g, _ = greedy_high_girth_bipartite(60, 20, 3, target, seed)
        h = neighborhood_hypergraph(g)
        bg = girth_bipartite(g)
        hg = girth_hypergraph(h)
        if bg.girth is None:
            assert hg.girth is None
        else:
            assert bg.girth == 2 * hg.girth


class TestSubstitutionPreservation:
    def test_randomized_trials(self):
        # Smaller in-module version of the full acceptance sweep.
        def cycle_hypergraph(k):
            return Hypergraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])

        for i in range(40):
            g = (4, 6, 8)[i % 3]
            graph, _ = greedy_high_girth_bipartite(96, 12, 8, 2 * g, 500 + i)
            kept = sorted(set(nb for nb in graph.right_neighbors if len(nb) == 8))
            host = Hypergraph(graph.n_left, tuple(kept))
            if host.num_edges == 0:
                continue
            template, k = [(cycle_hypergraph(g), 1), (loose_path(2, 3), 1), (loose_path(3, 2), 2)][i % 3]
            out = substitute_edges(SubstitutionPlan(host, template, k))
            girth = girth_hypergraph(out).girth
            assert girth is None or girth >= g
            if out.incidence_count <= 2000:
                assert girth_oracle(out, g - 1).girth is None


def test_determinism_bit_identical(hex2):
    a = substitute_edges(SubstitutionPlan(neighborhood_hypergraph(hex2), loose_path(1, 3), 1))
    b = substitute_edges(SubstitutionPlan(neighborhood_hypergraph(hex2), loose_path(1, 3), 1))
    assert serialize_hypergraph(a) == serialize_hypergraph(b)
