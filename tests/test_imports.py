"""Source rules checked on the syntax tree of each module of the package.

No linter ships with the toolchain, so this parses each module with
``ast``:

* every name a module imports is used in that module (``__init__.py`` is
  left out: its imports are the package's exports);
* budgets are constants: no parameter of any function has ``budget`` in
  its name, and only ``arith`` names the digit budget;
* the girth sweep's chunk width is the constant ``girth.SWEEP_CHUNK``: no
  function in ``girth`` takes a parameter with ``chunk`` in its name;
* no module reads the process environment;
* every module-level private function or class is named somewhere in the
  package outside its own body;
* ``__all__`` is the sorted names that ``__init__.py`` imports from the
  package's modules;
* every name in ``__all__`` is named by a module of the package outside its
  own definition, or is listed with its reason in ``UNREFERENCED_EXPORTS``;
* the CLI leaves reading its input to ``pipeline`` and
  ``formats.read_int``: no ``add_argument`` call in ``cli.py`` passes
  ``type=``, and ``cli.py`` imports none of the names that convert or type
  a value (``CLI_READER_NAMES``);
* each duplicated rule is called from one place: ``formats.read_int`` is
  the one caller of ``parse_decimal_int``, and ``Route.r_in_range`` is
  called by the planner's seed search and by ``certificate()`` alone;
* the CLI leaves writing its artifacts to ``pipeline``: ``cli.py``
  imports no serializer, no ``write_text_file`` and nothing of
  ``certificate`` (``CLI_WRITER_NAMES``);
* ``certificate()`` builds its rows only through the row helpers: it
  names no ``CertCheck`` and formats no exponent into a string itself, so
  a power row's statement is rendered from the exponent it is decided at;
* only ``formats`` frames text: no other module has a string constant
  that contains a carriage return, so no parser checks line endings
  itself;
* only ``core`` and ``formats`` read a value's raw incidences: no other
  module reads an ``incidences`` attribute, so the others go through the
  adjacency ``core`` derives once;
* the package has no runtime dependency: every module imports only the
  standard library and the package, and ``pyproject.toml`` lists no
  dependency; ``plan``, the one command with display floats, loads no
  mpmath;
* the polygon count rule is stated once: only ``geometry`` defines
  ``polygon_counts``, and a ``Route`` has only the fields that the rule
  cannot derive, so no derived constant comes back as a field;
* value types are ``arith.record``s: no module imports ``dataclasses``,
  only ``arith`` defines ``record``, and importing the CLI in a fresh
  interpreter loads neither ``dataclasses`` nor ``inspect``;
* a raised message shows a caller's value only through a renderer that
  bounds it (``BOUNDED_RENDERERS``): every other value that an f-string of
  a ``raise`` or an ``...Error(...)`` call interpolates is a module
  constant, or is listed with the reason it is bounded in
  ``BOUNDED_VALUES``, or is a gap still open in ``KNOWN_UNBOUNDED``.
"""

import ast
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest
from conftest import subprocess_env

from hypergirth.planner import Route

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypergirth"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names in an annotation, including those quoted as strings."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom re import compile, fullmatch as fm\n"
        "from typing import Iterator\n"
        "def f(x: 'Iterator[int]') -> None:\n    return fm(x, x)\n"
    )
    assert unused_imports(source) == ["compile", "math", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def budget_names(source: str) -> list[str]:
    """Parameters named ``*budget*`` and identifiers naming ``DIGIT_BUDGET``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arg) and "budget" in node.arg.lower():
            found.append(f"parameter {node.arg}")
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if isinstance(name, str) and "DIGIT_BUDGET" in name:
            found.append(f"name {name}")
    return found


def test_budget_checker_finds_names():
    source = (
        "from .arith import DEFAULT_DIGIT_BUDGET\nimport hypergirth.arith as a\n"
        "def f(x, digit_budget=None, *, incidence_budget=1):\n    return a.DIGIT_BUDGET\n"
        "g = lambda budget: budget\n"
    )
    assert budget_names(source) == [
        "name DEFAULT_DIGIT_BUDGET", "parameter digit_budget", "parameter incidence_budget",
        "name DIGIT_BUDGET", "parameter budget",
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_budgets_are_constants(module):
    found = budget_names((PACKAGE / module).read_text())
    if module == "arith.py":
        found = [f for f in found if not f.startswith("name ")]
    assert found == []


def parameters_named(source: str, word: str) -> list[str]:
    """Parameters of any function or lambda with ``word`` in their name."""
    return [node.arg for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.arg) and word in node.arg.lower()]


def test_parameter_checker_finds_names():
    source = "def f(adj, chunk=64, *, sweep_chunk=1):\n    return adj\ng = lambda Chunk_bits: 0\n"
    assert parameters_named(source, "chunk") == ["chunk", "sweep_chunk", "Chunk_bits"]


def test_sweep_chunk_is_a_constant():
    source = (PACKAGE / "girth.py").read_text()
    assert parameters_named(source, "chunk") == []
    assert "\nSWEEP_CHUNK = " in source


def environment_reads(source: str) -> list[str]:
    """Uses of ``os.environ`` or ``os.getenv``, as attributes or imported names."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [alias.name for alias in node.names if alias.name in names]
    return found


def test_environment_checker_finds_reads():
    source = "import os\nfrom os import getenv\nx = os.environ.get('A')\ny = os.path.join('a')\n"
    assert environment_reads(source) == ["getenv", "environ"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_environment_reads(module):
    assert environment_reads((PACKAGE / module).read_text()) == []


def _referenced_names(node: ast.AST) -> Counter:
    """How often each name is loaded, read as an attribute or imported under ``node``."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes that no module of
    ``sources`` names outside the definition's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and everywhere[node.name] == _referenced_names(node)[node.name]):
                found.append(f"{module}:{node.name}")
    return found


def test_dead_code_checker_finds_unreferenced_definitions():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n"
            "def _dead():\n    return _called()\n"
            "class _DeadClass:\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _imported():\n    return 0\n"
            "def _by_attribute():\n    return 0\n"
            "def __dunder__():\n    return 0\n"
            "def public():\n    def _nested():\n        return 0\n    return 0\n"
        ),
        "b.py": "from .a import _imported\nimport a\nx = a._by_attribute\n",
    }
    assert dead_private_definitions(sources) == ["a.py:_dead", "a.py:_DeadClass", "a.py:_recursive"]


def test_no_dead_private_definitions():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_definitions(sources) == []


# Exported names that no module of the package calls, each with the reason it is exported.
UNREFERENCED_EXPORTS = {
    "build_recursive": "the recursive tower whose edges the certificate counts; only the library builds it",
    "incidence_graph": "the bipartite incidence graph of a hypergraph, which the girth code builds "
                       "implicitly; the library's way to get it as a value",
    "reverify_certificate": "the library's entry point for re-verifying a certificate",
}


def dead_exports(sources: dict[str, str], exported: list[str]) -> list[str]:
    """Names of ``exported`` that no module of ``sources`` other than
    ``__init__.py`` names outside the name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items() if module != "__init__.py"}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    own = Counter()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in exported:
                own[node.name] += _referenced_names(node)[node.name]
    return [name for name in exported if everywhere[name] == own[name]]


def test_dead_export_checker_finds_unreferenced_names():
    sources = {
        "__init__.py": "from .a import used, dead, Recursive\n__all__ = ['used', 'dead', 'Recursive']\n",
        "a.py": (
            "def used():\n    return 1\n"
            "def dead():\n    return used()\n"
            "class Recursive:\n    def again(self):\n        return Recursive()\n"
        ),
    }
    assert dead_exports(sources, ["used", "dead", "Recursive"]) == ["dead", "Recursive"]


def test_exports_are_the_names_imported_from_the_package_modules():
    """``__all__`` is every name ``__init__.py`` imports from a module of the
    package, sorted, and nothing else: no submodule and no private name."""
    import hypergirth

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert hypergirth.__all__ == sorted(imported)
    assert len(imported) == len(set(imported))


def test_every_export_is_used_or_allowed():
    import hypergirth

    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(dead_exports(sources, hypergirth.__all__)) == sorted(UNREFERENCED_EXPORTS)


# What only the readers (pipeline.op_args, pipeline.plan_args, formats.read_int) may use to read an argument.
CLI_READER_NAMES = {"parse_decimal_int", "INT", "TEMPLATE", "resolve_template", "check_vertex_budget", "route_for"}


def cli_input_readers(source: str) -> list[str]:
    """``add_argument`` calls that pass ``type=``, and imported names of
    ``CLI_READER_NAMES``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" and any(kw.arg == "type" for kw in node.keywords)):
            found.append(f"line {node.lineno}: add_argument type=")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[-1] in CLI_READER_NAMES]
    return found


def test_cli_reader_checker_finds_types_and_imports():
    source = (
        "import argparse\nfrom .pipeline import OPS, INT, read_int\nfrom .planner import route_for as rf\n"
        "p = argparse.ArgumentParser()\np.add_argument('--q', type=int)\np.add_argument('--r', default=None)\n"
    )
    assert cli_input_readers(source) == ["line 2: import INT", "line 3: import route_for", "line 5: add_argument type="]


def test_cli_leaves_reading_to_pipeline():
    assert cli_input_readers((PACKAGE / "cli.py").read_text()) == []


def callers(source: str, name: str) -> list[str]:
    """The innermost function around each call of ``name``, as a name or an
    attribute; ``<module>`` outside any."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _called_name(node) == name:
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_caller_checker_finds_calls():
    source = (
        "x = parse(1)\ndef f():\n    def g():\n        return m.parse(2)\n    return parse\n"
        "class C:\n    def h(self):\n        return [parse(3), parse_all(4)]\n"
    )
    assert callers(source, "parse") == ["<module>", "g", "h"]


@pytest.mark.parametrize(
    "name,expected",
    [("parse_decimal_int", ["formats.py: read_int"]),
     ("r_in_range", ["certificate.py: certificate", "planner.py: fits"])],  # fits: Route.seed's bisect key
    ids=["parse_decimal_int", "r_in_range"],
)
def test_each_shared_rule_has_only_its_callers(name, expected):
    found = [f"{path.name}: {function}" for path in sorted(PACKAGE.glob("*.py"))
             for function in callers(path.read_text(), name)]
    assert found == expected


# What only pipeline's writers (run_stage, certify, run_pipeline) may use to write an artifact.
CLI_WRITER_NAMES = {"serialize_bipartite", "serialize_hypergraph", "write_text_file", "certificate"}


def cli_writers(source: str) -> list[str]:
    """Imported names of ``CLI_WRITER_NAMES``, and imports of a module of
    that name, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names] + [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: import {name}" for name in names
                  if name.split(".")[-1] in CLI_WRITER_NAMES]
    return found


def test_cli_writer_checker_finds_imports():
    source = (
        "from .formats import load, serialize_hypergraph\nfrom .pipeline import run_stage, write_text_file as w\n"
        "from .certificate import Certificate\nfrom . import certificate\nimport hypergirth.certificate\n"
        "from .pipeline import certify\n"
    )
    assert cli_writers(source) == [
        "line 1: import serialize_hypergraph", "line 2: import write_text_file", "line 3: import certificate",
        "line 4: import certificate", "line 5: import hypergirth.certificate",
    ]


def test_cli_leaves_writing_to_pipeline():
    assert cli_writers((PACKAGE / "cli.py").read_text()) == []


def hand_written_rows(source: str) -> list[str]:
    """Where ``certificate()`` names ``CertCheck`` itself, or formats an
    exponent into a string (a ``^`` or ``^(`` just before a formatted
    value), with their lines."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name == "certificate"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id == "CertCheck":
                found.append((node.lineno, "CertCheck"))
            elif isinstance(node, ast.JoinedStr):
                found += [(node.lineno, f"exponent {ast.unparse(value.value)}")
                          for text, value in zip(node.values, node.values[1:])
                          if isinstance(text, ast.Constant) and text.value.endswith(("^", "^("))
                          and isinstance(value, ast.FormattedValue)]
    return [f"line {lineno}: {what}" for lineno, what in sorted(found)]


def test_row_checker_finds_hand_written_rows():
    source = (
        "def _power_row(name, left, a, b):\n    return CertCheck(name, f'{left}^{a} >= p^{b}', 'm', True)\n"
        "def certificate(p, k, e, i, den):\n    checks = [_power_row('v', 'v_1', den, e)]\n"
        "    checks.append(CertCheck('edge-bound', f'edges^{k} >= p^({k} * {e})', 'bignum', True))\n"
        "    make = CertCheck\n    rows = [('r-range', f'2 <= r <= 1 + {p}^m', True)]\n"
        "    return [f'v_{i}^{den} < p^({den}m+1)', f'x^{k}']\n"
    )
    assert hand_written_rows(source) == [
        "line 5: CertCheck", "line 5: exponent k", "line 5: exponent k", "line 6: CertCheck",
        "line 8: exponent den", "line 8: exponent den", "line 8: exponent k",
    ]


def test_certificate_builds_rows_only_through_the_row_helpers():
    assert hand_written_rows((PACKAGE / "certificate.py").read_text()) == []


def carriage_return_constants(source: str) -> list[int]:
    """Lines, in order, of the string or bytes constants of ``source`` that
    contain a carriage return."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
                  and ("\r" if isinstance(node.value, str) else b"\r") in node.value)


def test_carriage_return_checker_finds_constants():
    source = (
        'x = "a\\rb"\ny = "\\r\\n".join([])\nz = b"\\r"\nw = "\\\\r"\n'
        'v = f"line {x}: \\r"\nu = "\\n"\n'
    )
    assert carriage_return_constants(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("module", [module for module in MODULES if module != "formats.py"])
def test_only_formats_frames_text(module):
    assert carriage_return_constants((PACKAGE / module).read_text()) == []


def incidence_reads(source: str) -> list[int]:
    """Lines, in order, of the reads of an ``incidences`` attribute in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "incidences")


def test_incidence_read_checker_finds_attributes():
    source = (
        "x = g.incidences\nfor u, v in load(p).incidences:\n    pass\ny = g.num_incidences\n"
        "incidences = 'incidences'\nz = getattr(g, 'left_neighbors')\nw = [a.incidences for a in gs]\n"
    )
    assert incidence_reads(source) == [1, 2, 7]


@pytest.mark.parametrize("module", [module for module in MODULES if module not in ("core.py", "formats.py")])
def test_only_core_and_formats_read_incidences(module):
    assert incidence_reads((PACKAGE / module).read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the modules ``source`` imports from outside the
    standard library and the package (relative imports are the package)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [top for top in (name.split(".")[0] for name in names)
                  if top not in sys.stdlib_module_names and top != "hypergirth"]
    return found


def test_foreign_import_checker_finds_names():
    source = (
        "from __future__ import annotations\nimport os.path, mpmath\nfrom decimal import Decimal\n"
        "from . import core\nfrom .arith import DECIMAL\nfrom hypergirth.core import VERTEX_BUDGET\n"
        "def f():\n    from numpy.linalg import norm\n"
    )
    assert foreign_imports(source) == ["mpmath", "numpy"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_imports_only_the_standard_library(module):
    assert foreign_imports((PACKAGE / module).read_text()) == []


def test_pyproject_lists_no_runtime_dependency():
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=\s*(.*)$", text, re.M) == ["[]"]


def test_plan_does_not_load_mpmath(tmp_path):
    code = (
        "import sys, hypergirth.cli\n"
        "assert hypergirth.cli.main(['plan', '--girth', '6', '--p', '5', '--r', '3', '--N', '3967295312526',"
        " '--cert', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cert.txt")],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def definitions_named(source: str, name: str) -> list[int]:
    """Lines of the functions and classes named ``name``, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name)


def test_definition_checker_finds_nested_names():
    source = "def f():\n    def polygon_counts(n, s, t):\n        pass\nclass polygon_counts:\n    pass\n"
    assert definitions_named(source, "polygon_counts") == [2, 4]


def test_polygon_counts_is_defined_only_in_geometry():
    found = {path.name: definitions_named(path.read_text(), "polygon_counts") for path in PACKAGE.glob("*.py")}
    assert {name for name, lines in found.items() if lines} == {"geometry.py"}
    assert len(found["geometry.py"]) == 1


def test_route_fields_are_the_independent_constants():
    names = list(Route._fields)
    assert names == ["girth", "base", "line_power", "m_step", "edge_power", "c2", "premises"]


def module_imports(source: str, name: str) -> list[int]:
    """Lines, in order, of the imports of module ``name`` or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == name for alias in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == name:
            found.append(node.lineno)
    return sorted(found)


def test_module_import_checker_finds_imports():
    source = (
        "from __future__ import annotations\nimport os, dataclasses as dc\nfrom dataclasses import field\n"
        "from .dataclasses import x\nimport dataclasses_json\ndef f():\n    import dataclasses.fields\n"
    )
    assert module_imports(source, "dataclasses") == [2, 3, 7]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    assert module_imports((PACKAGE / module).read_text(), "dataclasses") == []


def test_record_is_defined_only_in_arith():
    found = {path.name: definitions_named(path.read_text(), "record") for path in PACKAGE.glob("*.py")}
    assert {name for name, lines in found.items() if lines} == {"arith.py"}
    assert len(found["arith.py"]) == 1


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\nsys.path.insert(0, sys.argv[1])\nimport hypergirth.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the child from caching bytecode in src/
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# What a raised message may pass a caller's value through; each bounds what it shows.
BOUNDED_RENDERERS = {"short_decimal", "short_value", "show", "_show", "describe"}

# Values a raised message may show as they are, each with the reason it cannot
# hold a caller's value unbounded.  "function: value" allows the value in that
# function only; a bare value is allowed in every module.
BOUNDED_VALUES = {
    **dict.fromkeys(("lineno", "idx", "index", "stage", "column"),
                    "a line number, an index or a count that the package computes"),
    **dict.fromkeys(("len(args)", "len(bases)", "len(bases) - 1", "len(copy_counts)", "len(edge)", "len(body)",
                     "len(lines)", "len(lines) + 1", "len(text)", "min(len(body), m) + 4", "2 * n", "s + 1", "t + 1"),
                    "a length or a small sum of ints, which str() shows within the int-to-str digit limit"),
    **dict.fromkeys(("what", "where", "head", "kind", "needs", "key", "field", "magic", "shape", "wanted",
                     "statement", "', '.join(keys)"),
                    "a label the package builds: a command, stage, line, key or field name, a premise's "
                    "statement shown by short_decimal, a token cut to 40 characters, or a template path "
                    "that opened"),
    "shown": "built a line above by short_value or short_decimal, or a count under the vertex budget",
    **dict.fromkeys(("reverify_certificate: exc", "_refuse: exc", "read_int: exc",
                     "build_recursive: exc"),
                    "an error of the package, whose message this guard bounds where it is raised"),
    "digits": "a digit count, computed by int_digits10 or shown as a float",
    "int_args: name": "a keyword that a call in the package passes",
    "_check_geometry: name": "the geometry's kind and its order q, which geometry_incidences admitted",
    "_check_stages: name": "an op name that parse_recipe admitted from OPS",
    "require: name": "a premise name from ROUTES",
    "order: name": "a check name built by order_checks",
    "__init__: call": "the class's own qualified name",
    "__init__: names": "the class's own field names",
    "record: cls.__qualname__": "the decorated class's own qualified name",
    "base_for: self.base": "a route's fixed base, 2",
    "geometry_incidences: budget": "core.VERTEX_BUDGET",
    "theorem_bound: girth": "a girth that route_for admitted, 6 or 8",
    "run_pipeline: girth": "a girth the sweep found, below the target",
    "_check_geometry: points": "polygon_counts of an admitted order",
    "_check_geometry: lines": "polygon_counts of an admitted order",
    "_check_geometry: g.n_left": "a count of a graph that core admitted",
    "_check_geometry: g.n_right": "a count of a graph that core admitted",
    "_check_geometry: found": "a girth the sweep found",
    "__post_init__: self.num_vertices": "the hypergraph's vertex count, admitted by the vertex budget above",
    "pad_vertices: h.num_vertices": "a count of a hypergraph that core admitted",
    "girth_oracle: h.incidence_count": "a count of a hypergraph that core admitted",
    "parse_hypergraph: m": "a header count that _parse_int admitted under the vertex budget",
    "read_ascii: data[exc.start]": "one byte, shown in hex",
    "check: e": "an edge index checked to be in range just above",
    "check: i": "a step index of the cycle",
    "check: k": "the cycle's length",
    "check: n": "the cycle's length",
    "parse_recipe: kinds": "the names of the ops that parse_recipe knows",
    "_cmd_girth: rep.girth_str()": "the girth line of a report the sweep made",
    "_cmd_girth: orep.girth_str()": "the girth line of a report the oracle made",
    "run_pipeline: stage.render(lambda v: short_decimal(v) if DECIMAL.fullmatch(v) else v)":
        "a stage whose values have all been read: decimals shown by short_decimal, templates that parsed "
        "or opened",
}

# Values a raised message shows unbounded today, each with where it comes from.
# The guard fails when one is mended without being taken off this list.
KNOWN_UNBOUNDED: dict[str, str] = {}


def _called_name(node: ast.AST) -> str:
    """The name a call calls, as a name or an attribute; "" for anything else."""
    if not isinstance(node, ast.Call):
        return ""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", "")


def unbounded_interpolations(source: str, allowed: dict[str, str]) -> list[str]:
    """``function: value`` for each value interpolated into an f-string of a
    ``raise`` or of an ``...Error(...)`` call, unless the value is a call to
    one of ``BOUNDED_RENDERERS``, an upper-case name (a module constant), or
    in ``allowed`` as ``function: value`` or bare.  ``function`` is the
    innermost enclosing function, ``<module>`` outside any."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) or _called_name(node).endswith("Error"):
            for sub in ast.walk(node):
                if not isinstance(sub, ast.FormattedValue):
                    continue
                text = ast.unparse(sub.value)
                if not (_called_name(sub.value) in BOUNDED_RENDERERS or text.lstrip("_").isupper()
                        or text in allowed or f"{function}: {text}" in allowed):
                    found.append(f"{function}: {text}")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_message_checker_finds_unbounded_values():
    source = (
        "def f(name, lineno):\n    raise ValueError(f'{name!r} at {lineno}: {short_value(name)} {LIMIT}')\n"
        "def g(name, items):\n    if not items:\n        return ValidationError(f'{name} {_show(items)} {len(items)}')\n"
        "    raise TypeError(f'{x.describe()} {show(name)} {name}') from None\n"
        "class C:\n    def __setattr__(self, name, value):\n        raise AttributeError(f'field {name!r}')\n"
        "message = f'{secret}'\n"
    )
    allowed = {"lineno": "a line number", "g: name": "a name g is given", "len(items)": "a count"}
    assert unbounded_interpolations(source, allowed) == ["f: name", "__setattr__: name"]


def test_raised_messages_show_caller_values_only_through_bounded_renderers():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert sorted(sum((unbounded_interpolations(source, BOUNDED_VALUES) for source in sources), [])) == sorted(
        KNOWN_UNBOUNDED)
    every = {entry for source in sources for entry in unbounded_interpolations(source, {})}
    values = {entry.split(": ", 1)[1] for entry in every}
    assert [entry for entry in BOUNDED_VALUES if entry not in every and entry not in values] == []
