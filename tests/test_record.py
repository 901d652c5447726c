"""The package's value types are records: built from their fields by
position or keyword, immutable, equal and hashed by their fields only, and
shown as ``Name(field=value, ...)``.  The reprs were pinned from the
``@dataclass(frozen=True)`` versions these records replace."""

from fractions import Fraction

import pytest
from conftest import FANO_TRIPLES

from hypergirth import Hypergraph, PowerExpr, theorem_bound
from hypergirth.certificate import CertCheck
from hypergirth.core import StructureReport
from hypergirth.geometry import GreedyReport
from hypergirth.girth import BergeCycle, BipartiteCycle, GirthReport
from hypergirth.pipeline import Stage
from hypergirth.planner import ROUTES, Route

ROUTE_FIELDS = ("girth", "base", "line_power", "m_step", "edge_power", "c2", "premises")

REPRS = [
    (GirthReport(6), "GirthReport(girth=6, witness=None, searched_to=None)"),
    (GirthReport(3, BergeCycle((0, 1, 2), (0, 1, 2)), 5),
     "GirthReport(girth=3, witness=BergeCycle(vertices=(0, 1, 2), edge_indices=(0, 1, 2)), searched_to=5)"),
    (GirthReport(4, BipartiteCycle((("l", 0), ("r", 0), ("l", 1), ("r", 1)))),
     "GirthReport(girth=4, witness=BipartiteCycle(nodes=(('l', 0), ('r', 0), ('l', 1), ('r', 1))), searched_to=None)"),
    (CertCheck("copy-count", "p - 1 >= 1", "exact", True),
     "CertCheck(name='copy-count', statement='p - 1 >= 1', method='exact', passed=True)"),
    (StructureReport(3, False, None, 0),
     "StructureReport(uniformity=3, uniformity_vacuous=False, regularity=None, isolated=0)"),
    (Hypergraph(3, ((0, 1), (1, 2))), "Hypergraph(num_vertices=3, edges=((0, 1), (1, 2)))"),
]


@pytest.mark.parametrize("value, expected", REPRS, ids=[expected.split("(")[0] for _, expected in REPRS])
def test_repr_names_every_field(value, expected):
    assert repr(value) == expected


def _pairs():
    """Pairs of equal records, each built separately."""
    return [
        (GirthReport(3, BergeCycle((0, 1, 2), (0, 1, 2)), 5), GirthReport(3, BergeCycle((0, 1, 2), (0, 1, 2)), 5)),
        (Hypergraph(7, FANO_TRIPLES), Hypergraph(7, tuple(FANO_TRIPLES))),
        (CertCheck("a", "b", "c", True), CertCheck("a", "b", "c", True)),
        (PowerExpr(2, Fraction(5)), PowerExpr(2, 5)),
        (BipartiteCycle((("l", 0), ("r", 0))), BipartiteCycle((("l", 0), ("r", 0)))),
    ]


@pytest.mark.parametrize("index", range(len(_pairs())))
def test_equal_records_hash_equal(index):
    a, b = _pairs()[index]
    assert a is not b
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_a_differing_field_breaks_equality():
    assert GirthReport(6) != GirthReport(7)
    assert GirthReport(6) != GirthReport(6, None, 6)
    assert CertCheck("a", "b", "c", True) != CertCheck("a", "b", "c", False)


def test_another_class_with_the_same_values_is_not_equal():
    berge, stage = BergeCycle("x", ()), Stage("x", ())
    assert berge.__eq__(stage) is NotImplemented
    assert berge != stage and stage != berge
    assert GirthReport(6) != (6, None, None)
    assert GirthReport(6).__eq__((6, None, None)) is NotImplemented


def test_cached_values_do_not_count():
    h1, h2 = Hypergraph(7, FANO_TRIPLES), Hypergraph(7, FANO_TRIPLES)
    h1.vertex_edges, h1.girth_report
    assert "girth_report" in vars(h1) and "girth_report" not in vars(h2)
    assert h1 == h2 and h2 == h1 and hash(h1) == hash(h2)
    route = ROUTES[6]
    assert (route.growth, route.den) == (9, 8)
    copy = Route(*(getattr(route, name) for name in ROUTE_FIELDS))
    assert "growth" not in vars(copy)
    assert copy == route and hash(copy) == hash(route)
    assert (copy.growth, copy.den) == (9, 8)


def test_keyword_and_default_arguments():
    assert GirthReport(girth=6) == GirthReport(6) == GirthReport(6, None, None)
    assert vars(GirthReport(6)) == {"girth": 6, "witness": None, "searched_to": None}
    assert GirthReport(4, searched_to=9) == GirthReport(4, None, 9)
    assert GirthReport(searched_to=9, girth=None).searched_to == 9
    witness = BergeCycle((0, 1), (0, 1))
    assert GirthReport(2, witness).witness is witness
    assert Hypergraph(edges=((0, 1),), num_vertices=2) == Hypergraph(2, ((0, 1),))
    assert CertCheck(passed=True, method="m", statement="s", name="n") == CertCheck("n", "s", "m", True)


@pytest.mark.parametrize("build", [
    lambda: GirthReport(),
    lambda: GirthReport(1, None, None, 4),
    lambda: GirthReport(1, girth=2),
    lambda: GirthReport(1, x=2),
    lambda: GirthReport(witness=None),
    lambda: Hypergraph(3),
    lambda: CertCheck("a", "b", "c"),
    lambda: Stage("x", (), ()),
], ids=["none", "too-many", "twice", "unknown", "missing-required", "hypergraph-short", "certcheck-short",
        "stage-long"])
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_runs_exactly_once(monkeypatch):
    calls = []
    original = Hypergraph.__post_init__

    def counting(self):
        calls.append(self.num_vertices)
        original(self)

    monkeypatch.setattr(Hypergraph, "__post_init__", counting)
    Hypergraph(3, ((0, 1), (1, 2)))
    Hypergraph(edges=(), num_vertices=4)
    assert calls == [3, 4]


def test_post_init_may_store_a_normalised_field():
    expr = PowerExpr(2, 5)
    assert type(expr.exponent) is Fraction and expr.exponent == 5


def test_assignment_and_deletion_raise():
    report = GirthReport(6)
    with pytest.raises(AttributeError, match="^cannot assign to field 'girth'$"):
        report.girth = 3
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        report.other = 3
    with pytest.raises(AttributeError, match="^cannot delete field 'girth'$"):
        del report.girth
    assert report == GirthReport(6)


def test_a_caller_s_name_is_shown_by_short_value():
    # A keyword or attribute name of any length shows as its first 40
    # characters, so the message does not grow with the name.
    report, long = GirthReport(6), "n" * 300
    shown = repr("n" * 40)
    with pytest.raises(AttributeError, match=f"^cannot assign to field {shown}$"):
        setattr(report, long, 3)
    with pytest.raises(AttributeError, match=f"^cannot delete field {shown}$"):
        delattr(report, long)
    with pytest.raises(TypeError) as raised:
        GirthReport(6, **{long: 1, "x": 2})
    assert str(raised.value) == (
        f"GirthReport() takes ('girth', 'witness', 'searched_to'), got 1 by position and ({shown}, 'x') by keyword")


def test_a_field_whose_repr_raises_is_shown_by_short_value():
    # repr() of an int past the int-to-str digit limit raises ValueError
    huge, shown = 10**5000, "1000000000000000000000000000000000000000...(5001 digits)"
    assert repr(GirthReport(None, searched_to=huge)) == f"GirthReport(girth=None, witness=None, searched_to={shown})"
    assert repr(ROUTES[6].edge_bound(5, 2, 10**4)) == (
        "PowerExpr(base=5, exponent=Fraction(7775995951400898454686308127969991991511...(9543 digits), 1))")
    greedy = GreedyReport(9, 9, 2, 6, huge, 4, ((2, 4),), 0)
    assert repr(greedy) == (
        f"GreedyReport(n_left=9, n_right=9, right_degree=2, target_girth=6, seed={shown}, accepted=4, "
        "degree_histogram=((2, 4),), rights_below_target=0)"
    )
    bound = repr(theorem_bound(6, 5, 10 ** 10**6))
    assert bound.startswith("TheoremBound(girth=6, exponent=")
    assert ", bound=PowerExpr(base=1000000000000000000000000000000000000000...(1000001 digits), " in bound
