import bisect
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
from hypergirth import girth as girth_mod
from hypergirth.cli import main
from hypergirth.core import VERTEX_BUDGET
from hypergirth.errors import VerificationError
from hypergirth.girth import BergeCycle, BipartiteCycle, GirthReport
from hypergirth.pipeline import pad_vertices


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


@st.composite
def carry_graphs(draw):
    """A bipartite graph with distinct nonempty right neighbourhoods: an even
    cycle of length 4 to 12 with random chords, a forest, or random
    incidences, plus right vertices left empty and isolated left vertices."""
    k = draw(st.integers(2, 6))
    n_left, n_right = k + draw(st.integers(0, 3)), k + draw(st.integers(0, 3))
    shape = draw(st.sampled_from(("cycle", "forest", "random")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = set()
    if shape == "cycle":
        left, right = rng.sample(range(n_left), k), rng.sample(range(n_right), k)
        pairs = {(left[i], right[i]) for i in range(k)} | {(left[(i + 1) % k], right[i]) for i in range(k)}
        pairs |= {(rng.randrange(n_left), rng.randrange(n_right)) for _ in range(draw(st.integers(0, 2)))}
    elif shape == "forest":
        component = list(range(n_left + n_right))  # union-find over left ids, then right ids
        def root(x):
            while component[x] != x:
                x = component[x]
            return x
        for _ in range(draw(st.integers(0, 2 * (n_left + n_right)))):
            u, v = rng.randrange(n_left), rng.randrange(n_right)
            if root(u) != root(n_left + v):
                component[root(u)] = root(n_left + v)
                pairs.add((u, v))
    else:
        density = 0.2 + 0.4 * rng.random()
        pairs = {(u, v) for u in range(n_left) for v in range(n_right) if rng.random() < density}
    g = BipartiteGraph.from_incidences(n_left, n_right, pairs)
    seen = set()  # a repeated nonempty neighbourhood is emptied, so the precondition holds
    keep = []
    for v, nb in enumerate(g.right_neighbors):
        if nb not in seen:
            seen.add(nb)
            keep.append(v)
    return BipartiteGraph.from_incidences(n_left, n_right, [(u, v) for u, v in pairs if v in keep])


class TestCarriedGirth:
    """``nbhd`` and ``pad`` hand on a girth report their input already holds,
    and never compute one for this."""

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(carry_graphs(), st.integers(0, 5))
    def test_carried_girth_equals_a_fresh_sweep(self, g, extra):
        g.girth_report
        h = neighborhood_hypergraph(g)
        fresh = girth_hypergraph(Hypergraph(h.num_vertices, h.edges))
        carried = vars(h)["girth_report"]
        assert carried.girth == fresh.girth and carried.searched_to is None
        if fresh.girth is not None:
            carried.witness.check(h)
            assert len(carried.witness) == fresh.girth == g.girth_report.girth // 2
        padded = pad_vertices(h, h.num_vertices + extra)
        assert vars(padded)["girth_report"] is carried
        # padding leaves the sweep's own answer as it was, witness included
        assert girth_hypergraph(Hypergraph(padded.num_vertices, padded.edges)) == fresh

    @pytest.mark.parametrize("k", range(2, 7))
    def test_each_girth_from_4_to_12_is_carried(self, k):
        # a 2k-cycle with a pendant on its first right vertex (so a 4-cycle's two
        # neighbourhoods differ), a pendant edge, an empty right vertex and an isolated left vertex
        cycle = [(i, i) for i in range(k)] + [((i + 1) % k, i) for i in range(k)]
        g = BipartiteGraph.from_incidences(k + 3, k + 2, cycle + [(k + 1, 0), (0, k), (k, k)])
        assert g.girth_report.girth == 2 * k
        h = neighborhood_hypergraph(g)
        assert vars(h)["girth_report"].girth == k == girth_hypergraph(Hypergraph(h.num_vertices, h.edges)).girth

    def test_a_value_without_a_report_computes_its_own(self):
        g = BipartiteGraph.from_incidences(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
        h = neighborhood_hypergraph(g)
        assert "girth_report" not in vars(h) and "girth_report" not in vars(pad_vertices(h, 5))
        assert h.girth_report.girth == 2

    @pytest.mark.parametrize("build", [symplectic_quadrangle, split_cayley_hexagon])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_whole_report_carried_on_polygons_with_sorted_lines(self, build, q):
        g = build(q)  # its self-check holds the report; its lines are numbered in sorted order
        h = neighborhood_hypergraph(g)
        assert vars(h)["girth_report"] == girth_hypergraph(Hypergraph(h.num_vertices, h.edges))
        padded = pad_vertices(h, h.num_vertices + 3)
        assert padded.girth_report == girth_hypergraph(Hypergraph(padded.num_vertices, padded.edges))

    def test_a_wrong_edge_index_raises(self, monkeypatch):
        g = symplectic_quadrangle(3)
        monkeypatch.setattr(transforms, "bisect_left", lambda edges, nb: (bisect.bisect_left(edges, nb) + 1) % 40)
        with pytest.raises(VerificationError, match="maps to no edge"):
            neighborhood_hypergraph(g)

    def test_a_wrong_parent_report_raises(self):
        g = symplectic_quadrangle(2)
        nodes = g.girth_report.witness.nodes
        for report, message in [
            (GirthReport(8, BipartiteCycle(nodes[1:] + nodes[:1])), "does not alternate from a left node"),
            (GirthReport(10, BipartiteCycle(nodes)), "not half the girth long"),
        ]:
            twin = BipartiteGraph(g.n_left, g.n_right, g.incidences)
            vars(twin)["girth_report"] = report
            with pytest.raises(VerificationError, match=message):
                neighborhood_hypergraph(twin)

    def test_a_padded_witness_is_checked(self):
        h = neighborhood_hypergraph(symplectic_quadrangle(2))
        twin = Hypergraph(h.num_vertices, h.edges)
        witness = h.girth_report.witness
        vars(twin)["girth_report"] = GirthReport(4, BergeCycle(witness.vertices, witness.edge_indices[::-1]))
        with pytest.raises(VerificationError):
            pad_vertices(twin, 20)

    def test_one_sweep_for_a_quadrangle_recipe(self, tmp_path, monkeypatch, capsys):
        calls = []
        original = girth_mod._shortest_cycle
        monkeypatch.setattr(girth_mod, "_shortest_cycle", lambda adj, n_left: calls.append(n_left) or original(adj, n_left))
        recipe = tmp_path / "r.rcp"
        recipe.write_text("rcp 1\ntarget 4\nstage gen quadrangle q=3\nstage nbhd\nstage pad to=50\n")
        assert main(["pipeline", str(recipe), "--out-dir", str(tmp_path / "run")]) == 0
        assert calls == [40]
        report = (tmp_path / "run" / "report.txt").read_text().splitlines()
        assert [line for line in report if " girth " in line] == ["stage 1 girth 8", "stage 2 girth 4", "stage 3 girth 4"]


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
