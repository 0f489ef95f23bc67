"""Checks on the library source itself."""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "endtn"


def test_no_assert_statements():
    """Every check raises explicitly, so ``python -O`` cannot remove one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_capacity_policy():
    """Degree bounds are assigned only in ``transformations``, and every
    ``check_capacity`` call names one of them rather than a literal."""
    bounds, literals = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bounds += [
                    f"{path.name}:{target.id}"
                    for target in targets
                    if isinstance(target, ast.Name)
                    and re.fullmatch(r"MAX_\w*_DEGREE", target.id)
                ]
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "check_capacity"
            ):
                literals += [
                    f"{path.name}:{node.lineno}"
                    for arg in [*node.args, *(k.value for k in node.keywords)]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, int)
                ]
    assert sorted(bounds) == [
        "transformations.py:MAX_END_DEGREE",
        "transformations.py:MAX_ENUM_DEGREE",
        "transformations.py:MAX_TABLE_DEGREE",
    ]
    assert literals == []


def _imported(module: str) -> set[str]:
    """The modules and names that ``module`` imports, by their last part."""
    tree = ast.parse((SOURCE / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported |= {alias.name for alias in node.names}
    return imported


def test_universe_reads_no_formula_side():
    """The product table is the brute side that ``cosets``, ``structure``
    and ``presentation`` are checked against, so it imports none of them,
    nor the symbolic product that the table is compared with."""
    imported = _imported("universe.py")
    assert "composition_table" in imported
    assert not imported & {
        "cosets",
        "structure",
        "presentation",
        "multiply",
        "star_map",
    }


def test_action_reads_no_product():
    """The action matrix is the brute side that the product table is
    certified against, so it imports neither the symbolic product nor a
    module built on it."""
    imported = _imported("action.py")
    assert {"elements", "generators"} <= imported
    assert not imported & {
        "multiply",
        "star_map",
        "universe",
        "cosets",
        "presentation",
        "structure",
    }


# The checks of ``action`` that build the dense action matrix (20 MB at
# n = 5) or the composition of all of T_n.
DENSE_CHECKS = {
    "action_matrix",
    "check_homomorphisms",
    "product_mismatches",
    "_composition",
}


def _dense_check_references(source: Path) -> set[str]:
    """Where a module under ``source`` other than ``action`` names one of
    ``DENSE_CHECKS``: as a name, an attribute, an import or a string."""
    found = set()
    for path in sorted(source.glob("*.py")):
        if path.name == "action.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            word = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, ast.alias):
                word = node.name
            elif isinstance(node, ast.Constant):
                word = node.value
            if word in DENSE_CHECKS:
                found.add(f"{path.name}: {word}")
    return found


def test_only_action_names_the_dense_checks():
    """``universe`` builds its table with ``action.composition_table``,
    which acts on the codes that signatures use only; the dense matrix
    and the checks that read it run only in the tests, never on a verb's
    path, because no other module names them."""
    assert _dense_check_references(SOURCE) == set()


@pytest.mark.parametrize(
    "reference",
    [
        "from .action import action_matrix\n",
        "from . import action\n\n\ndef f(n):\n    return action.product_mismatches\n",
        "CHECK = getattr(__import__('endtn.action'), 'check_homomorphisms')\n",
    ],
    ids=["import", "attribute", "string"],
)
def test_dense_check_scan_sees_a_reference_elsewhere(tmp_path, reference):
    for path in SOURCE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "cli.py", "a") as handle:
        handle.write("\n" + reference)
    assert _dense_check_references(tmp_path)


def _benchmark_hooks() -> list[tuple[str, str]]:
    """The (module, attribute or Class.method) of every function that the
    benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [row[:2] for row in tracing.COARSE + tracing.HOT + tracing.GENERATORS]


def test_benchmark_hooks_resolve():
    """Every name the benchmark's tracer wraps still exists, so a renamed
    or deleted function cannot silently break a traced run."""
    import endtn.cli  # noqa: F401  (loads every module the tracer patches)

    hooks = _benchmark_hooks()
    missing = []
    for module, attr in hooks:
        obj = sys.modules.get(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}:{attr}")
    assert len(hooks) == 24 and missing == []


def _words(tree: ast.AST) -> Counter:
    """How often each name, attribute and imported name occurs in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        else:
            word = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(word, str):
                found[word] += 1
    return found


def _unnamed_definitions(source: Path) -> set[str]:
    """The top-level functions and classes of the modules under ``source``,
    and the methods of those classes other than dunders, that no code
    under ``source`` names outside their own definition, as
    ``module.name`` or ``module.Class.method``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in source.glob("*.py")
    }
    total = sum(map(_words, trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            definitions = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{module}.{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, kinds[:2])
                    and not re.fullmatch(r"__\w+__", method.name)
                ]
            for qualified, definition in definitions:
                if total[definition.name] == _words(definition)[definition.name]:
                    found.add(qualified)
    return found


def test_every_definition_is_named():
    """Every function, class and method of the library is named by other
    library code (an export in ``__init__`` counts), wrapped by the
    benchmark's tracer, or one of the test-only ``DENSE_CHECKS``: code
    that nothing needs is deleted rather than kept."""
    hooks = {
        f"{module.rpartition('.')[2]}.{attr}" for module, attr in _benchmark_hooks()
    }
    dense = {f"action.{name}" for name in DENSE_CHECKS}
    assert _unnamed_definitions(SOURCE) - hooks - dense == set()


@pytest.mark.parametrize(
    "definition, flagged",
    [
        ("def unused(n):\n    return n\n", "cli.unused"),
        (
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n",
            "cli.recursive",
        ),
        (
            "class Unused:\n    def method(self):\n        return 1\n",
            "cli.Unused.method",
        ),
    ],
    ids=["function", "names-only-itself", "method"],
)
def test_definition_scan_sees_an_unused_one(tmp_path, definition, flagged):
    for path in SOURCE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "cli.py", "a") as handle:
        handle.write("\n\n" + definition)
    assert flagged in _unnamed_definitions(tmp_path) - _unnamed_definitions(SOURCE)


def test_each_degree_is_enumerated_in_one_place():
    """``endomorphisms.elements`` is the one caller of ``enumerate_End``,
    and the checked-array builder ``_checked_pair_words``, the one caller of
    the unchecked ``_partner_block``, is called only where the singular
    words, the checked pairs and the ``counts`` column are made, so every
    module reads End(T_n) from the one cached tuple rather than building
    the pairs again."""
    callers = {
        "enumerate_End": set(),
        "_checked_pair_words": set(),
        "_partner_block": set(),
    }

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in callers:
                callers[name].add(f"{path.stem}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "<module>")
    assert callers == {
        "enumerate_End": {"endomorphisms.elements"},
        "_checked_pair_words": {
            "endomorphisms.singular_words",
            "pairs._checked_pairs",
            "cli.cmd_counts",
        },
        "_partner_block": {"pairs._checked_pair_words"},
    }


def test_pairs_are_enumerated_by_array_passes():
    """``enumerate_P``, and every ``pairs`` function it reaches, leaves the
    scalar U_n test, the per-pair check and composition alone: U_n is one
    array test and the pairs are checked in one array pass.  The pair
    constructor that skips the check is called only after that pass."""
    tree = ast.parse((SOURCE / "pairs.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }

    def calls(node):
        return [
            (getattr(call.func, "id", getattr(call.func, "attr", None)), call.lineno)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        ]

    reached, todo = set(), ["enumerate_P"]
    while todo:
        name = todo.pop()
        reached.add(name)
        called = {c for c, _ in calls(functions[name])}
        todo += called & functions.keys() - reached
    forbidden = {"enumerate_all", "is_in_U", "is_permissible", "compose"}
    construction = {"_roots", "_partner_table", "_partner_block", "_checked_pair_words"}
    assert {"u_words", "_checked_pairs", "u_members", "_check_pairs"} | construction <= reached
    assert not {c for name in reached for c, _ in calls(functions[name])} & forbidden

    # The builder checks each block in the loop pass that builds it.
    builder = functions["_checked_pair_words"]
    loop = next(node for node in ast.walk(builder) if isinstance(node, ast.For))
    lines = {c: line for c, line in calls(loop)}
    names = [c for c, _ in calls(builder)]
    assert names.count("_partner_block") == names.count("_check_pairs") == 1
    assert lines["_partner_block"] < lines["_check_pairs"]

    # Each function that calls the unchecked constructor: whether every
    # such call follows its last call of the checked-array builder.
    after_check = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                made = [line for c, line in calls(node) if c == "_checked"]
                checked = [line for c, line in calls(node) if c == "_checked_pair_words"]
                if made:
                    after_check[f"{path.stem}.{node.name}"] = max(
                        checked, default=float("inf")
                    ) < min(made)
    assert after_check == {"pairs._checked_pairs": True}


def _names_reached(module: str, start: str):
    """The top-level functions of ``module``, and the names of those that
    ``start`` names, directly or through another."""
    tree = ast.parse((SOURCE / module).read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), [start]
    while todo:
        name = todo.pop()
        reached.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        todo += names & functions.keys() - reached
    return functions, reached


def test_brute_partner_scan_reads_no_construction():
    """``brute_force_partners`` is the independent side of the pair counts:
    no ``pairs`` function it names, directly or through another, builds,
    counts or checks the partners by the root construction."""
    functions, reached = _names_reached("pairs.py", "brute_force_partners")
    construction = {
        "_roots",
        "_partner_table",
        "_partner_block",
        "_checked_pair_words",
        "u_members",
        "pair_counts",
        "count_pairs_for",
        "u_words",
        "_check_pairs",
        "_checked_pairs",
    }
    assert construction <= functions.keys()
    assert "_idempotent_words" in reached and not reached & construction


def _verification_raises(source: Path) -> list[str]:
    """The top-level definition of ``structure`` under ``source`` around
    each ``raise VerificationError``, one entry per site, sorted."""
    found = []
    for node in ast.parse((source / "structure.py").read_text()).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name == "VerificationError":
                    found.append(getattr(node, "name", "<module>"))
    return sorted(found)


def test_structure_raises_verification_errors_in_two_places():
    """Every formula-versus-brute mismatch of ``structure`` is raised by
    ``_attest``; the one other check, that each emitted ideal is two-sided
    closed, is ``enumerate_ideals``'s own."""
    assert _verification_raises(SOURCE) == ["_attest", "enumerate_ideals"]


@pytest.mark.parametrize(
    "violation",
    [
        "def check(a, b):\n    if a != b:\n        raise VerificationError('x')\n",
        "class Check:\n    def run(self):\n        raise errors.VerificationError\n",
        "def _attest(what):\n    raise VerificationError(what)\n",
    ],
    ids=["function", "method", "second-site"],
)
def test_raise_scan_sees_one_elsewhere(tmp_path, violation):
    for path in SOURCE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "structure.py", "a") as handle:
        handle.write("\n\n" + violation)
    assert _verification_raises(tmp_path) != _verification_raises(SOURCE)


# The closed forms of ``structure``, which run on the element index at
# every degree it serves, and what only the product table provides.
FORMULA_SIDES = (
    "_component_labels",
    "_in_components",
    "_orbit_labels",
    "_orbit_bits",
    "_orbit_bits_of",
    "_left_keys",
    "_right_ideal_bits",
    "_formula_labels",
    "_formula_left_ideal",
    "_formula_right_ideal",
    "_formula_two_sided_ideal",
    "_one_sided_labels",
    "idempotent_partition",
)
TABLE_READS = {
    "table",
    "right_bits",
    "left_bits",
    "two_sided_ideals",
    "_class_reach",
    "get_universe",
}


def test_formula_sides_read_no_table():
    """No function a formula side names, directly or through another,
    reads the product table or a set built from it, so the closed forms
    run at n = 6, where the table is refused."""
    found = set()
    for start in FORMULA_SIDES:
        functions, reached = _names_reached("structure.py", start)
        for name in reached:
            for node in ast.walk(functions[name]):
                word = getattr(node, "id", getattr(node, "attr", None))
                if word in TABLE_READS:
                    found.add(f"{start} -> {name}: {word}")
    assert found == set()


def _namers(name: str) -> set[str]:
    """The top-level functions of the library that name ``name``, as
    ``module.function``; a name at module level counts as ``module``."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            scope = path.stem
            if isinstance(node, ast.FunctionDef):
                scope = f"{path.stem}.{node.name}"
            if any(
                getattr(n, "id", getattr(n, "attr", None)) == name
                for n in ast.walk(node)
            ):
                found.add(scope)
    return found


def test_one_attest_site_for_partitions():
    """The closed form of a relation's classes is read only where it is
    attested, and the brute side only there and by itself, for H, D, J*
    and J~."""
    assert _namers("_formula_labels") == {"structure._attested_labels"}
    assert _namers("_brute_labels") == {
        "structure._attested_labels",
        "structure._brute_labels",
    }
    # Each attest site: sets of elements, principal ideals, partitions and
    # the S_n fixers of a pair.
    assert _namers("_attest") == {
        "structure.idempotent_partition",
        "structure.regular_elements",
        "structure._attested_ideals",
        "structure._attested_labels",
        "structure.fix_set",
    }


COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "set_threshold", "collect"}


def _collector_switches(source: Path) -> set[str]:
    """Where the modules under ``source`` switch the cyclic collector: the
    scope (module, class, function) of each call of a ``gc`` function in
    ``COLLECTOR_SWITCHES``, under any name it is imported as."""
    found = set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules, functions = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "gc"}
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                functions |= {
                    a.asname or a.name
                    for a in node.names
                    if a.name in COLLECTOR_SWITCHES
                }

        def switches(call):
            func = call.func
            if isinstance(func, ast.Name):
                return func.id in functions
            return (
                isinstance(func, ast.Attribute)
                and func.attr in COLLECTOR_SWITCHES
                and getattr(func.value, "id", None) in modules
            )

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            if isinstance(node, ast.Call) and switches(node):
                found.add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, path.stem)
    return found


def test_collector_is_switched_in_one_place():
    """Only the pause around the presentation's build switches the cyclic
    collector, so no other code changes process-wide collector state."""
    assert _collector_switches(SOURCE) == {
        "presentation._CollectorPaused.__enter__",
        "presentation._CollectorPaused.__exit__",
    }


@pytest.mark.parametrize(
    "toggle",
    [
        "import gc\n\n\ndef f():\n    gc.collect()\n",
        "import gc as collector\n\ncollector.freeze()\n",
        "from gc import set_threshold\n\n\nclass C:\n    def f(self):\n"
        "        set_threshold(0)\n",
        "from gc import disable as off\n\noff()\n",
    ],
    ids=["collect", "aliased-module", "imported-function", "aliased-function"],
)
def test_collector_check_sees_a_toggle_elsewhere(tmp_path, toggle):
    for path in SOURCE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "structure.py", "a") as handle:
        handle.write("\n" + toggle)
    assert _collector_switches(tmp_path) - _collector_switches(SOURCE)
