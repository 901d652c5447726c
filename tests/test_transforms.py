import functools
import importlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import CERTIFICATES, sha

from hypergirth import (
    BipartiteGraph,
    EmptySplitWarning,
    Hypergraph,
    PreconditionError,
    ResourceBudgetError,
    build_recursive,
    girth_bipartite,
    girth_hypergraph,
    girth_oracle,
    greedy_high_girth_bipartite,
    loose_path,
    neighborhood_hypergraph,
    projective_plane,
    serialize_hypergraph,
    split_cayley_hexagon,
    split_edges,
    substitute_edges,
    symplectic_quadrangle,
    transforms,
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
        out = substitute_edges(host, template, 2)
        assert out.edges == ((0, 1, 2), (3, 4, 5))
        assert out.num_vertices == 7

    def test_offset_blocks_follow_sorted_positions(self):
        host = Hypergraph(10, ((1, 3, 4, 6, 8, 9),))
        template = Hypergraph(2, ((0, 1),))
        out = substitute_edges(host, template, 3)
        assert out.edges == ((1, 3), (4, 6), (8, 9))

    def test_hexagon_host_two_element_template(self, hex2):
        host = neighborhood_hypergraph(hex2)
        out = substitute_edges(host, Hypergraph(2, ((0, 1),)), 1)
        assert out.num_edges == 63
        assert validate(out).uniformity == 2
        girth = girth_hypergraph(out).girth
        assert girth is None or girth >= 6

    def test_path_template_into_uniform_host(self):
        g, _ = greedy_high_girth_bipartite(630, 30, 21, 12, 1)
        host = neighborhood_hypergraph(g)
        assert validate(host).uniformity == 21
        out = substitute_edges(host, loose_path(3, 3), 3)
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
            out = substitute_edges(host, template, k)
            assert out.num_edges == k * template.num_edges * host.num_edges

    def test_plan_rejects_small_edges(self):
        host = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
        with pytest.raises(PreconditionError, match="host edge 0 has 3 vertices"):
            substitute_edges(host, loose_path(2, 2), 2)
        with pytest.raises(PreconditionError, match="copies_per_edge"):
            substitute_edges(host, loose_path(1, 2), 0)

    def test_duplicate_output_is_hard_error(self):
        host = Hypergraph(4, ((0, 1, 2), (0, 1, 3)))  # girth 2
        with pytest.raises(PreconditionError) as exc:
            substitute_edges(host, Hypergraph(2, ((0, 1),)), 1)
        assert str(exc.value) == (
            "host edges 0 and 1 both produce edge (0, 1); substitution requires host girth >= 3"
        )

    @pytest.mark.parametrize("host,template", [(Hypergraph(3, ()), loose_path(1, 2)),
                                               (Hypergraph(3, ((0, 1, 2),)), Hypergraph(0, ()))])
    def test_nothing_to_place_ignores_the_copy_count(self, host, template):
        start = time.monotonic()
        assert substitute_edges(host, template, 10**30) == Hypergraph(3, ())
        assert time.monotonic() - start < 1.0

    def test_first_clash_names_its_first_source(self):
        # edge (4, 5) comes from host edges 0, 1 and 2; (2, 3) from 1 and 2
        host = Hypergraph(8, ((0, 1, 4, 5), (2, 3, 4, 5), (2, 3, 4, 5, 6, 7)))
        with pytest.raises(PreconditionError) as exc:
            substitute_edges(host, Hypergraph(4, ((0, 1), (2, 3))), 1)
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
            out = substitute_edges(host, template, k)
            girth = girth_hypergraph(out).girth
            assert girth is None or girth >= g
            if out.incidence_count <= 2000:
                assert girth_oracle(out, g - 1).girth is None


def test_determinism_bit_identical(hex2):
    a = substitute_edges(neighborhood_hypergraph(hex2), loose_path(1, 3), 1)
    b = substitute_edges(neighborhood_hypergraph(hex2), loose_path(1, 3), 1)
    assert serialize_hypergraph(a) == serialize_hypergraph(b)


# Built towers against transforms.tower_counts, the count rule the
# certificate states its vertex, edge and final-edge counts with.
GEOMETRIES = {"PG": projective_plane, "W": symplectic_quadrangle, "H": split_cayley_hexagon}
# Small bases: (kind, q) of a geometry, or ("greedy", left, right, degree, girth, seed).
TOWER_BASES = [
    *[("PG", q) for q in (2, 3, 7, 13, 17)],
    *[("W", q) for q in (2, 3, 7)],
    *[("H", q) for q in (2, 3)],
    *[("greedy", *shape, seed) for shape in ((3, 1, 3, 6), (4, 2, 2, 6), (40, 8, 5, 6), (60, 12, 8, 6),
                                             (504, 8, 63, 12)) for seed in (1, 2, 3)],
]


@functools.cache
def tower_base(key: tuple) -> tuple[BipartiteGraph, Hypergraph, int | None]:
    """The base graph of ``key``, its neighbourhood hypergraph, and half its
    girth (None for a forest)."""
    kind, *args = key
    g = GEOMETRIES[kind](*args) if kind in GEOMETRIES else greedy_high_girth_bipartite(*args)[0]
    girth = girth_bipartite(g).girth
    return g, neighborhood_hypergraph(g), None if girth is None else girth // 2


def admitted_copies(host: Hypergraph, num_vertices: int) -> list[int]:
    """Every copy count that substitute_edges admits for a template on
    ``num_vertices`` vertices; the template's edges play no part in it."""
    template, counts = Hypergraph(num_vertices, ()), []
    for k in itertools.count(1):
        try:
            substitute_edges(host, template, k)
        except PreconditionError:
            return counts
        counts.append(k)


def check_tower(keys: list[tuple], r: int) -> list[tuple[int, int, int]]:
    """Build the tower on the bases ``keys`` at every tuple of copy counts
    substitute_edges admits, then split it into r-edges.  Its vertex, edge
    and split-edge counts must be transforms.tower_counts on the
    neighbourhood hypergraphs' own (v, b), and its exact girth at least the
    least halved base girth.  Returns the counts."""
    stages = [tower_base(key) for key in keys]
    counts = [(h.num_vertices, h.num_edges) for _, h, _ in stages]
    sizes = {len(edge) for edge in stages[0][1].edges}
    assert len(sizes) == 1, "the split factor needs a uniform bottom"
    promised = min((half for _, _, half in stages if half is not None), default=None)
    choices = [admitted_copies(h, v) for (_, h, _), (v, _) in zip(stages[1:], counts)]
    assert all(choices), "a stage admits no copy count"
    built = []
    for copies in itertools.product(*choices):
        tower = build_recursive([g for g, _, _ in stages], list(copies))
        built.append((tower.num_vertices, tower.num_edges, split_edges(tower, r).num_edges))
        assert built[-1] == transforms.tower_counts(counts, copies, min(sizes) // r), (keys, copies)
        girth = girth_hypergraph(tower).girth
        assert promised is None or girth is None or girth >= promised, (keys, copies, girth)
    return built


def uniform(key: tuple) -> bool:
    return len({len(edge) for edge in tower_base(key)[1].edges}) == 1


@st.composite
def towers(draw):
    """(bases, r): a uniform bottom and up to two hosts, each host's smallest
    edge holding a copy of the tower below it, and 2 <= r <= the bottom's
    edge size."""
    keys = [draw(st.sampled_from([key for key in TOWER_BASES if uniform(key)]))]
    while len(keys) < 3 and draw(st.booleans()):
        below = tower_base(keys[-1])[1].num_vertices
        hosts = [key for key in TOWER_BASES if min(map(len, tower_base(key)[1].edges)) >= below]
        if not hosts:
            break
        keys.append(draw(st.sampled_from(hosts)))
    return keys, draw(st.integers(2, len(tower_base(keys[0])[1].edges[0])))


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(towers())
def test_built_towers_have_the_tower_counts(tower):
    check_tower(*tower)


@pytest.mark.parametrize("keys, r, first", [
    ([("PG", 2), ("PG", 13)], 3, (183, 1281, 1281)),  # copies 1 and 2: 2562 edges at 2
    ([("W", 2), ("W", 17)], 2, (5220, 78300, 78300)),
    ([("greedy", 4, 2, 2, 6, 1), ("PG", 3), ("PG", 13)], 2, (183, 4758, 4758)),
])
def test_known_towers(keys, r, first):
    built = check_tower(keys, r)
    assert built[0] == first
    if keys[1] == ("PG", 13):
        assert built[1][:2] == (183, 2562)


def tower_counts_previous_b(stages, copies, split):
    """Mutant: each stage multiplies by b_(i-1) instead of b_i."""
    edges = stages[0][1]
    for (_, b), k in zip(stages[:-1], copies, strict=True):
        edges = k * edges * b
    return stages[-1][0], edges, split * edges


def tower_counts_without_copies(stages, copies, split):
    """Mutant: the copy count is dropped."""
    edges = stages[0][1]
    for _, b in stages[1:]:
        edges = edges * b
    return stages[-1][0], edges, split * edges


@pytest.mark.parametrize("mutant", [tower_counts_previous_b, tower_counts_without_copies])
def test_a_wrong_tower_rule_is_caught(monkeypatch, mutant):
    # Both the built towers and the certificate digests catch each mutant.
    certificate_module = importlib.import_module("hypergirth.certificate")
    monkeypatch.setattr(transforms, "tower_counts", mutant)
    monkeypatch.setattr(certificate_module, "tower_counts", mutant)
    with pytest.raises(AssertionError):
        check_tower([("PG", 2), ("PG", 13)], 3)
    changed = [key for key, digest in CERTIFICATES.items()
               if sha(certificate_module.certificate(*key).serialize()) != digest]
    assert changed
