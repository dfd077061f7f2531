"""Rules on the library source: it parses under the oldest Python that pyproject.toml
allows, writes no zero Fraction but the shared one, builds unvalidated
tableaux and flags only where the rows are valid by construction,
eliminates through one integer core behind one Fraction-to-integer
boundary, makes no float where it computes exactly, defines no
function that only the tests use, and nests no function that calls
itself."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))


def test_sources_found():
    assert any(path.name == "exactlin.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def zero_fractions(tree):
    """Line numbers of ``Fraction(0 ...)`` calls, bar the value of an ``_ZERO = ...`` assignment."""
    shared = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_ZERO"]
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 0
        and id(node) not in shared
    ]


def test_zero_rule_sees_literals():
    tree = ast.parse("_ZERO = Fraction(0)\nx = Fraction(0)\ny = (Fraction(0, 3), Fraction(1))\n")
    assert zero_fractions(tree) == [2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_zero_is_the_shared_one(path):
    # the elimination reads exactlin._ZERO by identity; any other zero
    # Fraction costs it a conversion, so none is written out
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert zero_fractions(tree) == [], f"{path.name}: use exactlin._ZERO"


def trusted_uses(tree, name="_trusted"):
    """Top-level definition (None at module level) of every mention of ``name``."""
    uses = set()
    for top in tree.body:
        for node in ast.walk(top):
            mentioned = (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in (node.name, node.asname))
            )
            if mentioned:
                uses.add(getattr(top, "name", None))
    return uses


def test_trusted_rule_sees_every_mention():
    tree = ast.parse(
        "from .tableaux import _trusted\n"
        "def f():\n    return _trusted(())\n"
        "def g():\n    def h():\n        return tableaux._trusted\n"
        "def _trusted(rows):\n    pass\n"
    )
    assert trusted_uses(tree) == {None, "f", "g"}


def uses_in_sources(name):
    """(file name, top-level definition) of every mention of ``name`` in ``src/``."""
    return {
        (path.name, use)
        for path in SOURCES
        for use in trusted_uses(ast.parse(path.read_text(encoding="utf-8")), name)
    }


def test_trusted_tableaux_have_four_builders():
    # tableaux._trusted skips validation; the validating tableau(), the
    # three builders whose rows are standard by construction and the
    # row-word builder, which checks its word is a lattice word of the
    # shape, are its only users
    assert uses_in_sources("_trusted") == {
        ("tableaux.py", "tableau"),
        ("tableaux.py", "_tableau_from_columns"),
        ("tableaux.py", "enumerate_tableaux"),
        ("tableaux.py", "schuetzenberger"),
        ("tableaux.py", "_from_word"),
    }


def self_referencing_closures(node, prefix="", nested=False):
    """``__qualname__`` of each function below ``node`` that is defined inside another function and mentions its own name.

    Such a function keeps a closure cell that points back at it, so the
    function, its cells and everything they hold form a cycle that
    reference counting never frees.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            if nested and any(isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)):
                yield qualname
            yield from self_referencing_closures(child, qualname + ".<locals>.", True)
        elif isinstance(child, ast.ClassDef):
            yield from self_referencing_closures(child, prefix + child.name + ".", nested)
        else:
            yield from self_referencing_closures(child, prefix, nested)


def test_closure_rule_sees_every_self_mention():
    tree = ast.parse(
        "def top(k):\n    return top(k - 1) if k else 0\n"
        "def f():\n    def place(v):\n        place(v + 1)\n    def leaf():\n        return top\n    return place\n"
        "def g():\n    def gen(k):\n        yield from gen(k - 1)\n"
        "    class C:\n        def m(self):\n            return self.m\n"
        "class D:\n    def e(self):\n        def inner():\n"
        "            def deeper():\n                return [deeper]\n            return inner\n"
    )
    # module-level recursion and a method read through self keep no cell on themselves
    assert list(self_referencing_closures(tree)) == [
        "f.<locals>.place",
        "g.<locals>.gen",
        "D.e.<locals>.inner",
        "D.e.<locals>.inner.<locals>.deeper",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_closure_refers_to_itself(path):
    # a recursive closure would keep, until the next full collection, all
    # it holds: an enumeration's whole result list; recursion goes through
    # a module-level helper that takes its state as arguments
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(self_referencing_closures(tree)) == [], f"{path.name}: recurse through a module-level helper"


def constructor_calls(tree, name):
    """Line numbers of every call of ``name``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    )


def test_constructor_rule_sees_every_call():
    tree = ast.parse(
        "from .tableaux import StandardTableau\n"
        "def f(t: StandardTableau) -> StandardTableau:\n    return StandardTableau(t.rows)\n"
        "g = tableaux.StandardTableau(())\nh = StandardTableau\nk = _from_word((), ())\n"
    )
    assert constructor_calls(tree, "StandardTableau") == [3, 4]


def test_moves_build_no_validated_tableau():
    # every tableau a move returns comes from its row word through
    # tableaux._from_word, which checks the word in one pass; the full
    # validation of StandardTableau would check it a second time
    [path] = [path for path in SOURCES if path.name == "eqsmoves.py"]
    assert constructor_calls(ast.parse(path.read_text(encoding="utf-8")), "StandardTableau") == []


def test_one_integer_core_and_one_boundary():
    # every elimination runs exactlin._eliminate on integer rows; the Fraction
    # rows reach it through _integer_rows, which scales a flag once, when Flag
    # builds it, a subspace basis once per type, the (3,2,2) tangents once,
    # and the rows of Matrix and in_span once per question; coordinate
    # flags, chart families, the (3,2,2) membership flags and complement
    # flags are built from int rows and convert nothing, and the flag
    # questions read the stored rows and convert nothing; chart coordinates
    # eliminate only in _chart_rows, and not for a flag in the chart's
    # triangle order
    assert uses_in_sources("_eliminate") == {
        ("exactlin.py", "Matrix"),
        ("exactlin.py", "in_span"),
        ("exactlin.py", "_prefix_pivots"),
        ("exactlin.py", "Flag"),
        ("exactlin.py", "_subspace_pivots"),
        ("exactlin.py", "perp_flag"),
        ("exactlin.py", "_chart_rows"),
        ("certificates.py", None),
        ("certificates.py", "certify_322"),
    }
    assert uses_in_sources("_integer_rows") == {
        ("exactlin.py", "Matrix"),
        ("exactlin.py", "in_span"),
        ("exactlin.py", "Flag"),
        ("exactlin.py", "_subspace_pivots"),
        ("certificates.py", None),
        ("certificates.py", "certify_322"),
    }
    # one fraction-free back substitution serves perp_flag and Matrix.rref,
    # which divides each row by its pivot
    assert uses_in_sources("_back_substituted") == {("exactlin.py", "Matrix"), ("exactlin.py", "perp_flag")}


def test_one_prefix_question():
    # cells, fiber membership and flag equality all ask whether each w_i
    # lies in span(v_1..v_i), through the one _prefix_pivots; cells and
    # fiber membership ask it of a flag through the one _flag_pivots, which
    # alone decides between a flag's rows and its coordinates
    assert uses_in_sources("_prefix_pivots") == {
        ("exactlin.py", "_flag_pivots"),
        ("exactlin.py", "Flag"),
    }
    assert uses_in_sources("_flag_pivots") == {
        ("exactlin.py", "cell_of"),
        ("exactlin.py", "cell_prime_of"),
        ("exactlin.py", "in_springer_fiber"),
    }
    # a coordinate flag asks it of its permutation, with no elimination,
    # through the one _coordinates_stable
    assert uses_in_sources("_coordinates_stable") == {("exactlin.py", "_flag_pivots")}


def test_certificates_use_no_matrix():
    # the (3,2,2) tangents are a tuple of their 21 strictly lower entries,
    # ranked by _eliminate; no dense Matrix is built
    [path] = [path for path in SOURCES if path.name == "certificates.py"]
    assert "Matrix" not in path.read_text(encoding="utf-8")


# the modules that compute exactly; acceptance and cli keep their timing floats
EXACT_MODULES = ("partitions", "tableaux", "eqsmoves", "exactlin", "certificates")


def float_uses(tree):
    """Line numbers of every float literal, ``float(...)`` call, ``/`` and ``/=`` in ``tree``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
        or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
    )


def test_float_rule_sees_every_float():
    tree = ast.parse(
        "a = 0.5\nb = float(a)\nc = a / 2\nc /= 3\nd = a // 2\n"
        "e = Fraction(1, 2)\nf = 1e3\ng = 2j\nh = '1/2'\ni = x.float\n"
    )
    assert float_uses(tree) == [1, 2, 3, 4, 7, 8]


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_make_no_float(module):
    # a stray / in the integer builders would give a float silently
    [path] = [path for path in SOURCES if path.stem == module]
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == [], f"{path.name}: no floats"


def flag_allocations(tree):
    """Top-level definition of every ``object.__new__(Flag)`` call."""
    return [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__new__"
        and [ast.unparse(arg) for arg in node.args] == ["Flag"]
    ]


def test_flag_rule_sees_every_allocation():
    tree = ast.parse(
        "def f():\n    return object.__new__(Flag)\n"
        "class C:\n    def g(self):\n        return object.__new__(Flag), object.__new__(Matrix)\n"
    )
    assert flag_allocations(tree) == ["f", "C"]


def test_flags_without_elimination_have_three_builders():
    # exactlin._integer_flag stores integer rows without the independence
    # elimination that Flag runs; it is the only place a Flag is allocated
    # around Flag.__init__, and its users are the three builders whose rows
    # are independent by construction: distinct unit rows (the coordinate
    # flag of a permutation and the perp flag of a coordinate flag, which
    # hold only the permutation), triangles and the columns of an inverse
    # matrix
    assert [
        (path.name, top) for path in SOURCES for top in flag_allocations(ast.parse(path.read_text(encoding="utf-8")))
    ] == [("exactlin.py", "_integer_flag")]
    assert uses_in_sources("_integer_flag") == {
        ("exactlin.py", "jordan_flag"),
        ("exactlin.py", "_triangular_flag"),
        ("exactlin.py", "perp_flag"),
    }
    # only the allocator and Flag.__init__ store the order; a coordinate flag
    # keeps its permutation there and a triangle its order, every other flag
    # None; the row readers and the chart rows read it
    assert uses_in_sources("_order") == {
        ("exactlin.py", "Flag"),
        ("exactlin.py", "_integer_flag"),
        ("exactlin.py", "_flag_pivots"),
        ("exactlin.py", "perp_flag"),
        ("exactlin.py", "_chart_rows"),
    }


def test_every_row_reader_asks_for_coordinates_first():
    # a coordinate flag holds no rows, only its coordinates as its order:
    # the definitions that read the stored rows are pinned, and each also
    # reads _order, to answer a coordinate flag from it (or to store it, in
    # _integer_flag)
    readers = uses_in_sources("_scaled")
    assert readers == {
        ("exactlin.py", "Flag"),
        ("exactlin.py", "_integer_flag"),
        ("exactlin.py", "_flag_pivots"),
        ("exactlin.py", "perp_flag"),
        ("exactlin.py", "_chart_rows"),
    }
    assert readers <= uses_in_sources("_order")


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# Definitions that only the tests and the benchmark tracer's targets use, or
# that only such definitions call; the tracer wraps the first kind by name,
# so they leave src/ with their helpers when it stops tracing them.
TRACER_ONLY = {
    "eqsmoves.legal_moves",
    "exactlin.Matrix.__matmul__",
    "exactlin.Matrix.apply",
    "exactlin.Matrix.ncols",
    "exactlin.Matrix.nrows",
    "exactlin.Matrix.nullspace",
    "exactlin.Matrix.rank",
    "exactlin.Matrix.rref",
    "exactlin.chart_coords",
    "exactlin.in_span",
    "exactlin.intersection_dim",
    "exactlin.span_rank",
    "exactlin.restricted_type",
    "exactlin.quotient_type",
    "exactlin._subspace_pivots",
    "tableaux.jdt_remove_min",
    "tableaux.from_shape_chain",
}


# the operator dunders and the operator that calls each, reflected or not
OPERATOR_DUNDERS = {
    ast.MatMult: ("__matmul__",),
    ast.Add: ("__add__", "__radd__"),
    ast.Sub: ("__sub__", "__rsub__"),
    ast.Mult: ("__mul__", "__rmul__"),
    ast.USub: ("__neg__",),
}


def definitions(tree, module):
    """(qualified name, node) of each top-level function and each method or property, bar the dunders that no operator calls."""
    operators = {name for names in OPERATOR_DUNDERS.values() for name in names}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    item.name in operators or not (item.name.startswith("__") and item.name.endswith("__"))
                ):
                    yield f"{module}.{node.name}.{item.name}", item


def references(tree):
    """How often each name is referenced as a ``Name`` or an ``Attribute`` in ``tree``, each operator naming its dunders."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
            names.update(OPERATOR_DUNDERS.get(type(node.op), ()))
    return names


def unreferenced(trees, workloads):
    """Qualified names of the definitions in ``trees`` (module name -> tree) that nothing uses.

    A definition is used when its name is referenced in ``workloads``, or in
    some tree outside the definition itself and outside every unused
    definition.  The unused set grows until nothing changes, so a helper
    reached only from unused code is unused too.  Matching is by name, so a
    name that two definitions share counts as used for both.
    """
    defs = [(qualified, node) for module, tree in trees.items() for qualified, node in definitions(tree, module)]
    total = sum((references(tree) for tree in trees.values()), Counter())
    unused, found = None, set()
    while found != unused:
        unused = found
        live = total - sum((references(node) for qualified, node in defs if qualified in unused), Counter())
        found = {
            qualified
            for qualified, node in defs
            if not workloads[node.name]
            and live[node.name] == (0 if qualified in unused else references(node)[node.name])
        }
    return unused


def test_unused_rule_sees_references_outside_the_definition():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\n"
            "def recursive():\n    return recursive()\n"
            "class C:\n"
            "    def __eq__(self, other):\n        pass\n"
            "    @property\n    def shape(self):\n        return self.shape\n"
            "    def method(self):\n        return used()\n"
            "    def benchmarked(self):\n        pass\n"
            "def helper():\n    return deeper()\n"
            "def deeper():\n    pass\n"
            "def shared():\n    pass\n"
            "class M:\n"
            "    def __matmul__(self, other):\n        return self\n"
            "    def __neg__(self):\n        return self\n"
        ),
        "b": ast.parse(
            "from .a import C, M, recursive\n"
            "def main():\n    return C().method, helper(), shared(), M() @ M()\n"
            "method = C().method\nshared()\nm = -M()\n"
        ),
    }
    workloads = references(ast.parse("sf.a.C().benchmarked()\n"))
    # helper is reached only from the unused main, and deeper only from
    # helper; shared and C.method are also reached from module level; M's
    # @ is used only in main, and its unary minus at module level
    assert unreferenced(trees, workloads) == {
        "a.recursive",
        "a.C.shape",
        "b.main",
        "a.helper",
        "a.deeper",
        "a.M.__matmul__",
    }


def test_src_keeps_only_what_the_library_runs():
    # each function, method and property is called from src/ or from the
    # benchmark's workloads; cli.main is the command line's entry point
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    workloads = references(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
    assert unreferenced(trees, workloads) - {"cli.main"} == TRACER_ONLY


def asserts(tree):
    """Line numbers of every ``assert`` statement in ``tree``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_assert_rule_sees_every_assert():
    tree = ast.parse(
        "assert x\ndef f():\n    assert x, 'm'\nraise AssertionError('m')\n"
        "class C:\n    def g(self):\n        if x:\n            assert y\nasserted = 1\n"
    )
    assert asserts(tree) == [1, 3, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    # python -O strips asserts, so a check written as one passes a broken library
    assert asserts(ast.parse(path.read_text(encoding="utf-8"))) == [], f"{path.name}: raise, do not assert"
