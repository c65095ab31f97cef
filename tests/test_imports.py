"""Source hygiene: every name a polyadj module imports is used in it,
every function or class a module defines is read somewhere in the package,
a frozen record is written only while it is built, and the library
builds every HPolytope and Cone with its derived data; importing the
package loads no introspection module."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import polyadj
from polyadj import fan, polytope

PACKAGE = os.path.dirname(os.path.abspath(polyadj.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import itertools\nfrom math import ceil, gcd\nfrom . import lp\nx = gcd(lp.a, 2)\n"
    assert unused_imports(source) == ["line 1: itertools", "line 2: ceil"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes that no module of the package reads.

    A read is a name load, an attribute of that name, or an import of it
    (so a re-export from __init__.py counts).
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in read)


def test_the_scan_finds_an_unreferenced_definition():
    sources = {"__init__.py": "from .a import f\n",
               "a.py": "def f():\n    return g\n\ndef g():\n    pass\n\ndef h():\n    pass\n",
               "b.py": "class C:\n    def h(self):\n        pass\n"}
    assert unreferenced_definitions(sources) == ["a.py: h", "b.py: C"]


def test_no_unreferenced_module_functions():
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unreferenced_definitions(sources) == []


def imported_names(source: str) -> set[str]:
    """Last dotted part of every module an import names, and every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


def test_the_scan_finds_every_form_of_an_lp_import():
    for source in ("from . import lp\n", "from .lp import solve\n", "import polyadj.lp\n",
                   "from polyadj import lp as solver\n"):
        assert "lp" in imported_names(source)
    assert "lp" not in imported_names("from .polytope import double_description\n")


def test_fan_does_not_import_the_lp_solver():
    # heights and cone validation come from the double description
    with open(os.path.join(PACKAGE, "fan.py"), encoding="utf-8") as fh:
        assert "lp" not in imported_names(fh.read())


def test_fan_builds_no_hull_of_points():
    # the canonicity region conv(0, rays) takes its rows from integer double
    # descriptions, so the Fraction hull of points stays off the canonicity path
    with open(os.path.join(PACKAGE, "fan.py"), encoding="utf-8") as fh:
        names = imported_names(fh.read())
    assert "from_vertices" not in names
    assert "lattice_levels" not in names


def functions_reading(source: str, name: str) -> list[str]:
    """Dotted scopes (class and function names) in which the name is read;
    "<module>" for a read at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(set(found))


def test_the_scan_finds_every_reader_of_a_name():
    source = ("from . import lp\nx = lp.y\n\nclass A:\n    def f(self):\n        return lp.solve()\n\n"
              "def g():\n    def h():\n        return [lp for _ in ()]\n    lp = 1\n    return h\n")
    assert functions_reading(source, "lp") == ["<module>", "A.f", "g.h"]


def test_polytope_reads_no_lp():
    # emptiness, lines and rays of a system come from its double description
    with open(os.path.join(PACKAGE, "polytope.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert "lp" not in imported_names(source)
    assert functions_reading(source, "lp") == []


def test_fan_takes_no_rank():
    # a normal fan proves each vertex cone full-dimensional with its dual
    # height double description
    with open(os.path.join(PACKAGE, "fan.py"), encoding="utf-8") as fh:
        assert "rank" not in imported_names(fh.read())


def test_fan_works_in_ambient_coordinates():
    # a cone of lower rank keeps the lineality of its dual height
    # description, the equations of its span, so no saturated basis of the
    # span is built and no null basis of them is taken
    with open(os.path.join(PACKAGE, "fan.py"), encoding="utf-8") as fh:
        names = imported_names(fh.read())
    assert "saturate" not in names
    assert "null_basis" not in names


def test_spectrum_reads_its_witness_off_the_step_elimination():
    # check_necessary_condition takes y by back substitution from the rows
    # whose reduction gives the relations, so it takes no null basis
    with open(os.path.join(PACKAGE, "spectrum.py"), encoding="utf-8") as fh:
        assert "null_basis" not in imported_names(fh.read())


def test_ratmath_has_one_row_reduction():
    # rank, det, null_basis and the integer kernel read one unimodular row
    # reduction; the fraction-free elimination that served the first three
    # is gone, and the spectrum's witness takes neither it nor the two
    # kernels of saturate. The spectrum takes no kernel either: one of its
    # functions reduces the rows of a configuration, for the step and the
    # witness alike
    with open(os.path.join(PACKAGE, "ratmath.py"), encoding="utf-8") as fh:
        source = fh.read()
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert "_eliminate" not in defined
    assert functions_reading(source, "_row_reduce") == ["det", "integer_kernel_basis", "null_basis", "rank"]
    with open(os.path.join(PACKAGE, "spectrum.py"), encoding="utf-8") as fh:
        source = fh.read()
    names = imported_names(source)
    assert "saturate" not in names
    assert "_eliminate" not in names
    assert "integer_kernel_basis" not in names
    assert functions_reading(source, "_row_reduce") == ["_reduced_rows"]


def test_spectrum_does_not_import_the_lp_solver():
    # positive spanning is decided on the hull of the rows, not by an LP
    with open(os.path.join(PACKAGE, "spectrum.py"), encoding="utf-8") as fh:
        assert "lp" not in imported_names(fh.read())


def test_adjunction_solves_an_lp_only_for_the_critical_shift():
    # core_config reads positive spanning off the acore, so the critical-shift
    # LP is the one LP of the adjunction module
    with open(os.path.join(PACKAGE, "adjunction.py"), encoding="utf-8") as fh:
        assert functions_reading(fh.read(), "lp") == ["_shift_lp"]


def test_fan_reads_integer_kernels_only_for_the_least_point_of_a_class():
    # the height floor and the Gorenstein index read a dual vertex class by
    # one rule, _least_point, the one place that takes a kernel and its gcd
    with open(os.path.join(PACKAGE, "fan.py"), encoding="utf-8") as fh:
        source = fh.read()
    for name in ("integer_kernel_basis", "ext_gcd_list"):
        assert functions_reading(source, name) == ["_least_point"], name


def test_fan_builds_a_cone_description_in_one_routine():
    # cone() and normal_fan() both describe their rays with _functionals,
    # so a second builder of the dual height description cannot come back
    # unnoticed
    with open(os.path.join(PACKAGE, "fan.py"), encoding="utf-8") as fh:
        assert functions_reading(fh.read(), "_pivots") == ["_functionals"]


def test_the_unrolled_kernels_serve_the_double_description_steps_and_the_heights_alone():
    # the pivot and pair steps and the scan's heights read the int kernels
    # of ratmath._int_kernels; lp, whose row widths vary from LP to LP,
    # does not, and the tests' own helpers and oracles keep the generic
    # arithmetic, so they stay independent of the code they check
    readers = {}
    for module in ("polytope.py", "fan.py", "lp.py"):
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            readers[module] = functions_reading(fh.read(), "_int_kernels")
    assert readers == {"polytope.py": ["_add_row", "_lift"], "fan.py": ["canonicity_threshold"], "lp.py": []}
    with open(os.path.join(PACKAGE, "lp.py"), encoding="utf-8") as fh:
        assert "_int_kernels" not in imported_names(fh.read())
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("conftest.py", "oracles.py"):
        with open(os.path.join(here, name), encoding="utf-8") as fh:
            assert "_int_kernels" not in fh.read(), name


def truncating_reads(source: str) -> list[str]:
    """Dotted scopes of every comprehension int(x) for x in ..., which reads
    an entry by truncating it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                targets = {n.id for gen in child.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
                elt = child.elt
                if (isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name) and elt.func.id == "int"
                        and len(elt.args) == 1 and isinstance(elt.args[0], ast.Name) and elt.args[0].id in targets):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_the_scan_finds_every_truncating_read():
    source = ("w = tuple(int(x) for x in v)\n\ndef f(rows):\n    return [[int(y) for y in r] for r in rows]\n\n"
              "class A:\n    def g(self, v):\n        return {int(i == j) for i, j in v} | {int(2 * x) for x in v}\n")
    assert truncating_reads(source) == ["<module>", "f"]


def test_vector_entries_become_ints_only_in_int_vector():
    # int_vector reads an integral Fraction or float and rejects any other
    # entry; int(x) on a Fraction or float truncates it without a word
    found = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            scopes = truncating_reads(fh.read())
        if scopes:
            found[module] = scopes
    assert found == {"ratmath.py": ["int_vector"]}


def environment_reads(source: str) -> list[str]:
    """Dotted scopes of every read of the process environment: an
    attribute or a name environ or getenv, as os.environ, os.getenv or
    either name imported from os."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr in ("environ", "getenv")
                    or isinstance(child, ast.Name) and child.id in ("environ", "getenv")):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(set(found))


def test_the_scan_finds_every_environment_read():
    source = ("import os\ncap = os.environ['A']\n\nclass A:\n    def f(self):\n        return os.getenv('B')\n\n"
              "def g():\n    from os import environ\n    return environ.get('C')\n\n"
              "def h():\n    return os.path.join('a', 'b')\n")
    assert environment_reads(source) == ["<module>", "A.f", "g"]


def test_the_command_line_reads_its_environment_only_in_the_dimension_check():
    # POLYADJ_MAX_DIM is read and checked in one place, _check_dim
    with open(os.path.join(PACKAGE, "cli.py"), encoding="utf-8") as fh:
        assert environment_reads(fh.read()) == ["_check_dim"]


def frozen_writes(source: str) -> list[str]:
    """Dotted scopes of every call object.__setattr__(...), which writes a
    field of a frozen record."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__" and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "object"):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_the_scan_finds_every_frozen_write():
    source = ("object.__setattr__(a, 'x', 1)\n\nclass A:\n    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n\n"
              "def f(c):\n    if c.y is None:\n        object.__setattr__(c, 'y', 2)\n    c.__setattr__('z', 3)\n")
    assert frozen_writes(source) == ["<module>", "A.__post_init__", "f"]


def test_frozen_records_are_written_only_while_they_are_built():
    # a record fills the data its caller did not pass in its __post_init__,
    # so no later call fills a field of a record that is already in use
    found = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            scopes = [s for s in frozen_writes(fh.read()) if not s.endswith(".__post_init__")]
        if scopes:
            found[module] = scopes
    assert found == {}


def bare_builds(source: str, records: dict[str, dict[str, int]]) -> list[str]:
    """Dotted scopes, each with the record's name, of every call of a record
    that leaves out a derived field; records maps a record's name, called
    bare or as an attribute, to its derived fields, each with its position.
    A field counts as passed by a positional argument at its position or
    later, or by its keyword."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords = {k.arg for k in child.keywords}
                if name in records and any(len(child.args) <= k and field not in keywords
                                           for field, k in records[name].items()):
                    found.append(f"{'.'.join(scope) or '<module>'}: {name}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_the_scan_finds_every_bare_build():
    source = ("p = HPolytope(2, n, b)\n\nclass A:\n    def f(self):\n"
              "        return polytope.HPolytope(2, n, b, v, i)\n\n"
              "def g(rays):\n    return [Cone(2, r) for r in rays] + [fan.Cone(2, rays, functionals=f)]\n\n"
              "def h(n, b, v):\n    return HPolytope(2, n, b, v), HPolytope(2, n, b, incidence=0, vertices=v)\n")
    records = {"HPolytope": {"vertices": 3, "incidence": 4}, "Cone": {"functionals": 2}}
    assert bare_builds(source, records) == ["<module>: HPolytope", "g: Cone", "h: HPolytope"]


def test_the_library_builds_polytopes_and_cones_with_their_derived_data():
    # a record built without its derived data, a field defaulting to None,
    # is checked against its canonicalizer's output, from_inequalities or
    # cone(); the library passes the vertices, incidence or dual description
    # it computed, so no library call pays that canonical rebuild
    records = {record.__name__: {name: k for k, (name, param) in enumerate(inspect.signature(record).parameters.items())
                                 if param.default is None}
               for record in (polytope.HPolytope, fan.Cone)}
    assert records == {"HPolytope": {"vertices": 3, "incidence": 4}, "Cone": {"functionals": 2}}
    found = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            scopes = bare_builds(fh.read(), records)
        if scopes:
            found[module] = scopes
    assert found == {}


def test_every_traced_function_exists_in_its_module():
    # the benchmark's tracer wraps each function of its SPANS by name, so a
    # deleted or renamed one breaks a traced run
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.SPANS.items() for name in names
               if not callable(getattr(importlib.import_module(f"polyadj.{module}"), name, None))]
    assert tracing.SPANS and missing == []


def test_importing_polyadj_loads_no_introspection_module():
    # start-up is most of the wall time of one `polyadj analyze` run: the
    # records are polyadj.record classes, so importing the package loads
    # neither dataclasses nor the modules it imports
    code = "import sys\nbefore = set(sys.modules)\nimport polyadj\nprint(*sorted(set(sys.modules) - before))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    added = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                               check=True, timeout=60).stdout.split())
    assert "polyadj.record" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
