"""Static checks of the package source.

Every module, and every file under tests/, uses each name it imports; the
package __init__ is exempt, since it imports names to re-export them. The array engine counts
nothing: multiplication counts come from the cost model in matpoly, which
prices from shapes and calls nothing in _gauss. Its one elimination loop
has three entry points, the rank questions rank and batch_is_invertible
and decompose; no other module reaches into _gauss's private names.
Decode routes are read, and their operators built, in one place,
protocol._prepare, and every spare equation is checked in one,
_gauss.apply. Decode's count rule, protocol._routes, is applied only where
routes are read and where exact p(S) picks its walk, and no other decode
code compares counts with P' or N'; decode solves the attempts _prepare
lists and raises its one shortfall error from one place. Residues are
int64 at every prime: _gauss picks no dtype, and no module makes an object
array but BlockMatrix.random's index draw above 2^63.
"""

import ast
from pathlib import Path

import pytest

import sdmm

MODULES = sorted(p for p in Path(sdmm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def _functions(node):
    return [n for n in node.body if isinstance(n, ast.FunctionDef)]


def _params(fn):
    args = fn.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def test_the_array_engine_takes_no_counter():
    src = Path(sdmm.__file__).parent
    gauss = ast.parse((src / "_gauss.py").read_text())
    matpoly = ast.parse((src / "matpoly.py").read_text())
    block = next(n for n in matpoly.body
                 if isinstance(n, ast.ClassDef) and n.name == "BlockMatrix")
    evaluate = [f for f in _functions(matpoly) if f.name == "evaluate"]
    engine = [f for f in ast.walk(gauss) if isinstance(f, ast.FunctionDef)]
    engine += _functions(block) + evaluate
    assert len(evaluate) == 1
    assert [f.name for f in engine if _params(f) & {"counter", "row_cost"}] == []


def test_encode_takes_no_counter():
    # protocol.costs prices every phase of a run from the plan, the share
    # shapes and decode's attempts; the counter reaches only decode, which
    # charges it costs' decode term
    takers = {fn.name for path in MODULES for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, ast.FunctionDef) and "counter" in _params(fn)}
    assert takers == {"decode"}


def test_one_function_prices_every_phase():
    # outside the four functions of matpoly's cost model, only
    # protocol.costs and its decode term read it, and no library code builds
    # a MultCounter: run_protocol reports costs' dict
    model = {"horner_cost", "interpolate_cost", "gauss_jordan_cost", "_ladder"}
    readers = {f"{path.stem}.{fn}" for path in MODULES
               for fn, node in _scoped(ast.parse(path.read_text()))
               if isinstance(node, ast.Name) and node.id in model}
    readers -= {f"matpoly.{name}" for name in model}
    builders = [f"{path.stem}.{fn}" for path in MODULES
                for fn, node in _scoped(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MultCounter"]
    assert readers == {"protocol.costs", "protocol._decode_price"} and builders == []


def test_decode_catches_nothing_and_interpolate_counts_nothing():
    # _prepare lists decode's routes before its core solves them (_decode),
    # so none of the three catches or suppresses SingularSystem; only decode
    # takes the counter, and prices every route with costs' decode term
    src = Path(sdmm.__file__).parent
    protocol = ast.parse((src / "protocol.py").read_text())
    matpoly = ast.parse((src / "matpoly.py").read_text())
    steps = [f for f in _functions(protocol) if f.name in ("decode", "_prepare", "_decode")]
    (interpolate,) = [f for f in _functions(matpoly) if f.name == "interpolate"]
    assert len(steps) == 3
    assert not [n for f in steps for n in ast.walk(f) if isinstance(n, ast.Try)
                or getattr(n, "attr", getattr(n, "id", None)) == "suppress"]
    assert [f.name for f in steps if "counter" in _params(f)] == ["decode"]
    assert "contextlib" not in set(imported_names(protocol))
    assert "counter" not in _params(interpolate)


def _scoped(node, scope=None):
    """(innermost enclosing function name, node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        yield inner, child
        yield from _scoped(child, inner)


def test_only_rank_questions_and_decompose_eliminate():
    callers, private, costing = set(), set(), set()
    model = {"_ladder", "horner_cost", "gauss_jordan_cost", "interpolate_cost"}
    for path in MODULES:
        for fn, node in _scoped(ast.parse(path.read_text())):
            if fn in model and "_gauss" in {
                    getattr(node, "id", None), getattr(node, "module", None)}:
                costing.add(f"{path.stem}.{fn}")
            if isinstance(node, ast.ImportFrom) and node.module == "_gauss":
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name) and path.stem == "_gauss":
                names = [node.id]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_gauss":
                names = [node.attr]
            else:
                continue
            for name in names:
                if name == "_eliminate":
                    callers.add(f"{path.stem}.{fn}")
                elif name.startswith("_") and path.stem != "_gauss":
                    private.add(f"{path.stem}: _gauss.{name}")
    assert callers == {"_gauss.rank", "_gauss.batch_is_invertible", "_gauss.decompose"}
    assert private == set() and costing == set()


def test_only_prepare_builds_decode_operators():
    # decode and p_of_s_empirical read the attempts _prepare returns; no
    # other function builds an operator, so none can go stale on a plan
    users = {f"{path.stem}.{fn}" for path in MODULES
             for fn, node in _scoped(ast.parse(path.read_text()))
             if isinstance(node, ast.Name) and node.id == "_set_operators"}
    assert users == {"protocol._prepare"}


def test_one_function_checks_spare_equations_and_decompose_takes_no_rhs():
    # _gauss.apply alone raises on a failed spare equation, for solve and
    # decode alike; decompose reduces [V | I] and nothing else
    calls = [(f"{path.stem}.{fn}", getattr(node.func, "id", getattr(node.func, "attr", None)))
             for path in MODULES for fn, node in _scoped(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    assert {fn for fn, name in calls if name == "InconsistentResponses"} == {"_gauss.apply"}
    assert {fn for fn, name in calls if name == "apply"} == {"_gauss.solve", "protocol._decode"}
    gauss = ast.parse((Path(sdmm.__file__).parent / "_gauss.py").read_text())
    (decompose,) = [f for f in _functions(gauss) if f.name == "decompose"]
    args = decompose.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["tables", "ctx"]
    assert args.vararg is None and args.kwarg is None


def test_residues_are_int64_and_only_the_wide_index_draw_is_object():
    # _gauss._product keeps every product of residues in int64 at every
    # accepted prime, so no dtype is picked per field; the one object array
    # left is BlockMatrix.random's index draw above 2^63, which ends as int64
    assert "dtype" not in vars(sdmm._gauss)
    writers = [f"{path.stem}.{fn}" for path in MODULES
               for fn, node in _scoped(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and any(
                   getattr(arg, "id", getattr(arg, "value", None)) in ("object", "O")
                   for arg in node.args + [k.value for k in node.keywords])]
    assert writers == ["matpoly.random"]


def test_decode_reads_its_route_off_the_operators():
    # the count rule (_routes) picks which attempts _prepare lists and which
    # patterns exact p(S) walks; decode only solves the attempts, so it has
    # one "no route left" raise
    protocol = ast.parse((Path(sdmm.__file__).parent / "protocol.py").read_text())
    calls = [(fn, getattr(node.func, "id", None)) for fn, node in _scoped(protocol)
             if isinstance(node, ast.Call)]
    assert {fn for fn, name in calls if name == "_routes"} == {"_prepare", "p_of_s_empirical"}
    assert [fn for fn, name in calls if name == "_shortfall"] == ["decode"]


def test_only_the_count_rule_and_the_recovery_bound_count_supports():
    # P' = len(plan.class_support) and N' = len(plan.full_support) are read
    # by _routes, its error text and the recovery threshold; no other code
    # restates the count rule by arithmetic
    protocol = ast.parse((Path(sdmm.__file__).parent / "protocol.py").read_text())
    readers = {fn for fn, node in _scoped(protocol)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
               and isinstance(arg := node.args[0], ast.Attribute)
               and arg.attr in ("class_support", "full_support")
               and getattr(arg.value, "id", None) == "plan"}
    assert readers == {"_routes", "_shortfall", "mp_recovery_threshold_with_security",
                       "_hypernode_bound_holds"}
