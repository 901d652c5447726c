import time
from fractions import Fraction

import pytest

from hypergirth import (
    BipartiteGraph,
    Hypergraph,
    ResourceBudgetError,
    ValidationError,
    incidence_graph,
    validate,
)
from hypergirth.core import VERTEX_BUDGET, _pair_error, _show
from hypergirth.geometry import GREEDY_PAIR_BUDGET


class TestHypergraphInvariants:
    def test_canonical_construction(self):
        h = Hypergraph(4, ((0, 1), (0, 1, 2), (1, 2, 3)))
        assert h.num_edges == 3
        assert h.incidence_count == 8

    def test_from_edges_canonicalizes(self):
        h = Hypergraph.from_edges(5, [[4, 2, 0], [1, 3]])
        assert h.edges == ((0, 2, 4), (1, 3))

    def test_empty_edge_rejected(self):
        with pytest.raises(ValidationError, match="edge 0 is empty"):
            Hypergraph(3, ((),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            Hypergraph(3, ((0, 1), (0, 1)))
        with pytest.raises(ValidationError, match="duplicate edge"):
            Hypergraph.from_edges(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match=r"edge 0 \(0, 3\)"):
            Hypergraph(3, ((0, 3),))
        with pytest.raises(ValidationError, match="out of"):
            Hypergraph(2, ((-1, 0),))

    def test_unsorted_edge_rejected(self):
        with pytest.raises(ValidationError, match="not strictly increasing"):
            Hypergraph(3, ((1, 0),))
        with pytest.raises(ValidationError, match="repeats a vertex"):
            Hypergraph.from_edges(3, [(1, 1)])

    def test_edge_order_enforced(self):
        with pytest.raises(ValidationError, match="lexicographic"):
            Hypergraph(3, ((1, 2), (0, 1)))

    def test_immutable(self, fano):
        with pytest.raises(AttributeError):
            fano.num_vertices = 8

    def test_degrees(self, fano):
        assert fano.degrees == (3,) * 7
        assert fano.vertex_edges[0] == (0, 1, 2)


class TestBipartiteInvariants:
    def test_roundtrip_adjacency(self):
        g = BipartiteGraph.from_incidences(2, 3, [(1, 2), (0, 0), (1, 0)])
        assert g.incidences == ((0, 0), (1, 0), (1, 2))
        assert g.left_neighbors == ((0,), (0, 2))
        assert g.right_neighbors == ((0, 1), (), (1,))

    def test_range_checks(self):
        with pytest.raises(ValidationError, match="left id 1 out of"):
            BipartiteGraph(1, 1, ((1, 0),))
        with pytest.raises(ValidationError, match="right id 1 out of"):
            BipartiteGraph(1, 1, ((0, 1),))

    def test_order_and_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate incidence"):
            BipartiteGraph(2, 2, ((0, 0), (0, 0)))
        with pytest.raises(ValidationError, match="lexicographic"):
            BipartiteGraph(2, 2, ((1, 0), (0, 0)))


class TestIdsAreInts:
    """A bool or float id compares as a number but serializes as `False` or
    `0.5`, which no parser reads back, so the value types refuse it."""

    @pytest.mark.parametrize("edge, bad", [((0.5, 1), "0.5"), ((False, True), "False"), ((0, 1.0), "1.0"),
                                           (("0", "1"), "'0'"), ((0, "1"), "'1'")])
    def test_hypergraph_edge_ids(self, edge, bad):
        with pytest.raises(ValidationError, match=rf"edge 0 .*: id {bad} is not an int"):
            Hypergraph(3, (edge,))
        with pytest.raises(ValidationError, match=rf"edge 1 .*: id {bad} is not an int"):
            Hypergraph(3, ((0,), edge))

    @pytest.mark.parametrize("pair, bad", [((0.5, 1), "0.5"), ((0, True), "True"), (("0", 1), "'0'")])
    def test_bipartite_incidence_ids(self, pair, bad):
        with pytest.raises(ValidationError, match=rf"incidence 0 .*: id {bad} is not an int"):
            BipartiteGraph(2, 2, (pair,))

    def test_from_incidences_does_not_truncate(self):
        with pytest.raises(ValidationError, match=r"incidence 0 \(0.7, 1\): id 0.7 is not an int"):
            BipartiteGraph.from_incidences(2, 2, [(0.7, 1)])
        with pytest.raises(ValidationError, match=r"edge 0 \(0.5, 1\): id 0.5 is not an int"):
            Hypergraph.from_edges(3, [(1, 0.5)])

    # A str id among ints, or a list where a tuple belongs, does not compare:
    # each is refused as a ValidationError naming it, never a TypeError.
    def test_from_incidences_str_among_int_ids(self):
        with pytest.raises(ValidationError, match=r"^incidence 0 \('0', 1\): id '0' is not an int$"):
            BipartiteGraph.from_incidences(2, 2, [("0", 1), (0, 1)])

    def test_from_edges_str_among_int_ids(self):
        with pytest.raises(ValidationError, match=r"^edge 0 \(0, '1'\): id '1' is not an int$"):
            Hypergraph.from_edges(3, [(0, "1")])
        with pytest.raises(ValidationError, match=r"^edge 1 \('0', '1'\): id '0' is not an int$"):
            Hypergraph.from_edges(3, [(0, 1), ("0", "1")])

    def test_list_edge(self):
        with pytest.raises(ValidationError, match=r"^edge 0 \[0, 1\]: not a tuple$") as exc:
            Hypergraph(3, ([0, 1],))
        assert exc.value.index == 0

    def test_fraction_edge(self):
        with pytest.raises(ValidationError) as exc:
            Hypergraph(3, (Fraction(3, 2),))
        assert str(exc.value) == "edge 0 3/2: not a tuple"

    def test_list_incidence(self):
        with pytest.raises(ValidationError, match=r"^incidence 1 \[1, 1\]: not a tuple$") as exc:
            BipartiteGraph(2, 2, ((0, 1), [1, 1]))
        assert exc.value.index == 1

    # An incidence that does not unpack into two ids is refused by name,
    # never as the ValueError or TypeError of the unpacking.
    def test_incidence_of_three_ids(self):
        with pytest.raises(ValidationError, match=r"^incidence 0 \(0, 1, 1\): not a pair$") as exc:
            BipartiteGraph(2, 2, ((0, 1, 1),))
        assert exc.value.index == 0
        with pytest.raises(ValidationError, match=r"^incidence 1 \(1,\): not a pair$") as exc:
            BipartiteGraph(2, 2, ((0, 0), (1,)))
        assert exc.value.index == 1

    def test_from_incidences_not_a_pair(self):
        with pytest.raises(ValidationError, match=r"^incidence 0 5: not a pair$") as exc:
            BipartiteGraph.from_incidences(2, 2, [5])
        assert exc.value.index == 0
        with pytest.raises(ValidationError, match=r"^incidence 1 \(0, 1, 1\): not a pair$") as exc:
            BipartiteGraph.from_incidences(2, 2, iter([(0, 0), (0, 1, 1)]))
        assert exc.value.index == 1

    def test_pair_error_passes_on_an_error_from_elsewhere(self):
        """Where every incidence unpacks, the error did not come from the
        unpacking, and it is returned as given."""
        exc = ValueError("from elsewhere")
        assert _pair_error([(0, 1), (1, 0)], exc) is exc
        assert _pair_error([], exc) is exc

    @pytest.mark.parametrize("sizes", [(2.5, 1), (2, True), (-1, 1), (1, "2")])
    def test_bipartite_class_sizes(self, sizes):
        with pytest.raises(ValidationError, match="class sizes must be nonnegative integers"):
            BipartiteGraph(*sizes, ())

    @pytest.mark.parametrize("count", [True, 2.0, -1])
    def test_hypergraph_vertex_count(self, count):
        with pytest.raises(ValidationError, match="num_vertices must be a nonnegative integer"):
            Hypergraph(count, ())


HUGE = 10**5000  # past the 4300-digit limit of int-to-str conversion
SHORT = r"1000000000000000000000000000000000000000\.\.\.\(5001 digits\)"


class TestHugeIds:
    """An id too long for str() is shown shortened, at any depth of tuples,
    lists, sets and frozensets, and any other value too long for str() by
    its type, so each refusal is a ValidationError, never the ValueError of
    the conversion; an id of up to 52 digits is shown in full, as str()
    shows it."""

    @pytest.mark.parametrize("build, message", [
        (lambda: Hypergraph(2, ((0, HUGE),)), rf"^edge 0 \(0, {SHORT}\): vertex ids out of \[0, 2\)$"),
        (lambda: Hypergraph(2, ((HUGE, 1),)), rf"^edge 0 \({SHORT}, 1\): vertex ids not strictly increasing$"),
        (lambda: Hypergraph(2, ((HUGE, 0.5),)), rf"^edge 0 \({SHORT}, 0.5\): id 0.5 is not an int$"),
        (lambda: Hypergraph(2, ([HUGE],)), rf"^edge 0 \[{SHORT}\]: not a tuple$"),
        (lambda: Hypergraph.from_edges(2, [(HUGE, HUGE)]), rf"^edge \({SHORT}, {SHORT}\) repeats a vertex$"),
        (lambda: Hypergraph(2, ({HUGE},)), rf"^edge 0 \{{{SHORT}\}}: not a tuple$"),
        (lambda: Hypergraph(2, (frozenset({HUGE}),)), rf"^edge 0 frozenset\(\{{{SHORT}\}}\): not a tuple$"),
        (lambda: Hypergraph(2, ((0, (HUGE,)),)), rf"^edge 0 \(0, \({SHORT},\)\): id \({SHORT},\) is not an int$"),
        (lambda: Hypergraph(2, ((0, {0: HUGE}),)), r"^edge 0 \(0, <dict>\): id <dict> is not an int$"),
        (lambda: Hypergraph((HUGE,), ()), rf"^num_vertices must be a nonnegative integer, got \({SHORT},\)$"),
    ], ids=["range", "increasing", "not-int", "not-tuple", "repeat", "set", "frozenset", "nested", "dict",
            "vertex-count"])
    def test_hypergraph(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: BipartiteGraph(2, 2, ((HUGE, 1),)),
         rf"^incidence 0 \({SHORT}, 1\): left id {SHORT} out of \[0, 2\)$"),
        (lambda: BipartiteGraph(2, 2, ((1, HUGE),)),
         rf"^incidence 0 \(1, {SHORT}\): right id {SHORT} out of \[0, 2\)$"),
        (lambda: BipartiteGraph(HUGE + 1, 2, ((HUGE, 0), (HUGE - 1, 0))),
         r"^incidence 1 \(9{40}\.\.\.\(5000 digits\), 0\): incidence order not lexicographic$"),
        (lambda: BipartiteGraph(HUGE + 1, 2, ((HUGE, 0), (HUGE, 0))),
         rf"^incidence 1 \({SHORT}, 0\): duplicate incidence$"),
        (lambda: BipartiteGraph(2, 2, ((HUGE, True),)), rf"^incidence 0 \({SHORT}, True\): id True is not an int$"),
        (lambda: BipartiteGraph(2, 2, ([HUGE, 0],)), rf"^incidence 0 \[{SHORT}, 0\]: not a tuple$"),
        (lambda: BipartiteGraph(2, 2, ((HUGE, 0, 1),)), rf"^incidence 0 \({SHORT}, 0, 1\): not a pair$"),
        (lambda: BipartiteGraph(2, 2, ({HUGE},)), rf"^incidence 0 \{{{SHORT}\}}: not a tuple$"),
        (lambda: BipartiteGraph([HUGE], 2, ()), rf"^class sizes must be nonnegative integers, got \[{SHORT}\]$"),
    ], ids=["left-range", "right-range", "order", "duplicate", "not-int", "not-tuple", "not-pair", "set",
            "class-size"])
    def test_bipartite(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_values_within_the_limit_shown_as_str_shows_them(self):
        cyclic = [1]
        cyclic.append(cyclic)
        through_list = ([],)
        through_list[0].append(through_list)
        for value in [(0, cyclic), through_list, set(), frozenset(), frozenset({1, 2}), {3}, (), [], (1,),
                      ("a", 1.5, True, None, b"x", [2, "b", (3,)], {"k": 1}), 10**51 + 7, 0.5]:
            assert _show(value) == str(value)

    def test_long_ids_shown_in_full(self):
        big = 10**51 + 7  # 52 digits
        with pytest.raises(ValidationError) as exc:
            BipartiteGraph(2, 2, ((big, 1),))
        assert str(exc.value) == f"incidence 0 {(big, 1)}: left id {big} out of [0, 2)"
        with pytest.raises(ValidationError) as exc:
            Hypergraph(2, ((0, big),))
        assert str(exc.value) == f"edge 0 {(0, big)}: vertex ids out of [0, 2)"


class TestVertexBudget:
    def test_admits_the_largest_greedy_grid(self):
        assert VERTEX_BUDGET >= GREEDY_PAIR_BUDGET + 1

    def test_at_the_budget(self):
        assert Hypergraph(VERTEX_BUDGET, ((0, 1),)).num_vertices == VERTEX_BUDGET
        assert BipartiteGraph(VERTEX_BUDGET - 1, 1, ((0, 0),)).n_right == 1

    @pytest.mark.parametrize(
        "build,count",
        [
            (lambda: Hypergraph(VERTEX_BUDGET + 1, ()), VERTEX_BUDGET + 1),
            (lambda: Hypergraph(10**30, ((0, 1),)), 10**30),
            (lambda: BipartiteGraph(VERTEX_BUDGET, 1, ()), VERTEX_BUDGET + 1),
            (lambda: BipartiteGraph(1, 10**30, ()), 10**30 + 1),
        ],
    )
    def test_refused_before_allocation(self, build, count):
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=f" has {count} vertices, budget is {VERTEX_BUDGET}$"):
            build()
        assert time.monotonic() - start < 1.0


class TestValidate:
    def test_fano_uniform_regular(self, fano):
        # independent degree count straight off the triple list
        degrees = [0] * 7
        for e in fano.edges:
            for v in e:
                degrees[v] += 1
        assert degrees == [3] * 7
        rep = validate(fano)
        assert rep.uniformity == 3
        assert rep.regularity == 3
        assert rep.isolated == 0
        assert not rep.uniformity_vacuous

    def test_empty_edge_set_is_vacuous(self):
        rep = validate(Hypergraph(5, ()))
        assert rep.uniformity is None
        assert rep.uniformity_vacuous
        assert rep.regularity == 0
        assert rep.isolated == 5

    def test_mixed_sizes(self):
        rep = validate(Hypergraph(3, ((0, 1), (0, 1, 2))))
        assert rep.uniformity is None
        assert not rep.uniformity_vacuous
        assert rep.regularity is None

    def test_vertexless(self):
        rep = validate(Hypergraph(0, ()))
        assert rep.regularity == 0
        assert rep.isolated == 0


class TestIncidenceGraph:
    def test_fano(self, fano):
        g = incidence_graph(fano)
        assert (g.n_left, g.n_right) == (7, 7)
        assert g.num_incidences == 21 == fano.incidence_count

    def test_single_edge(self):
        g = incidence_graph(Hypergraph(2, ((0, 1),)))
        assert (g.n_left, g.n_right, g.num_incidences) == (2, 1, 2)
        assert g.incidences == ((0, 0), (1, 0))

    def test_empty(self):
        g = incidence_graph(Hypergraph(4, ()))
        assert (g.n_left, g.n_right, g.num_incidences) == (4, 0, 0)

    def test_incidence_count_preserved_random(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 12)
            edges = set()
            for _ in range(rng.randint(0, 10)):
                size = rng.randint(1, min(4, n))
                edges.add(tuple(sorted(rng.sample(range(n), size))))
            h = Hypergraph(n, tuple(sorted(edges)))
            assert incidence_graph(h).num_incidences == h.incidence_count
