"""Structural guards on src/cavsqueeze.

Every public name defined there has a use in the program or the benchmark:
a name counts as used when it occurs as a whole word in a file under src/
or perfbench/ outside its own definition; tests/ does not count, so a helper
kept alive only by its tests is reported.  No import statement sits inside
a function, and the submodules import each other without a cycle.  Only
params rounds twice a value, round(2 * x) or np.rint(2.0 * x): which S is a
spin, and what its 2S is, is decided there (params.twice_spin) and nowhere else.
Likewise only params raises a ValueError whose text says an input "must be
positive" or "must be nonnegative" (params.positive and params.nonnegative),
design_report's "no shearing requested" apart.
Only feedback forms the curvature optimum from 6 ** 0.2 or 6 ** (-0.2)
(feedback._curvature_optimum), so fig2, sweep and design print one floor.
The closed forms have one home: design imports nothing from raman, and only
feedback raises the G-factor refusal "outside the principal branch", beside
the body it guards (feedback.modified_min_variance, the checked entry at
(S, eta, Q)).
In cli, only run writes: no other code there calls write_csv, write_json,
write_manifest or mkdir, so a subcommand handler only returns its files and
manifest fields.  cli defines no class, so a handler returns plain data
(dicts), not a record type, and no module imports dataclasses: the package's
records are NamedTuples or a plain class.
Only raman._run_chunks builds a random stream (a bit generator, a
SeedSequence or a default_rng), so the Monte Carlo's stream layout has one
owner.  Outside dicke, the program takes from dicke only the CSS amplitudes,
m, the ladder coefficients and the channel's cap, never the spin operators
or states, and only params and dicke name EnsembleSpec: the operator layer
serves the benchmark alone.  Past the standard library, the package imports
numpy alone, and the tests add only pytest, hypothesis and their own
modules: neither may come to need scipy or mpmath.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavsqueeze"
USERS = (ROOT / "src", ROOT / "perfbench")


def public_definitions(tree):
    """(qualified name, node) of the public top-level functions, classes and constants, and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if isinstance(node, ast.ClassDef):
            names += [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        yield from ((name, item) for name, item in names if not name.rpartition(".")[2].startswith("_"))


def unused_names(package=PACKAGE, users=USERS):
    """Qualified public names of package with no whole-word occurrence outside their definition."""
    lines = {path: path.read_text(encoding="utf-8").splitlines()
             for root in users for path in sorted(root.rglob("*.py"))}
    unused = []
    for path in sorted(package.glob("*.py")):
        for name, node in public_definitions(ast.parse("\n".join(lines[path]))):
            word = re.compile(rf"\b{re.escape(name.rpartition('.')[2])}\b")
            elsewhere = (line for src, text in lines.items() for i, line in enumerate(text, 1)
                         if src != path or not node.lineno <= i <= node.end_lineno)
            if not any(map(word.search, elsewhere)):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_use():
    assert unused_names() == []


def _relative_imports(tree):
    """Submodules the relative imports of tree name; a name of the package itself (__version__) is '__init__'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.partition(".")[0]
            else:
                yield from (a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__" for a in node.names)


def function_imports(package=PACKAGE):
    """module.function for each import statement inside a function body."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node)):
                found.append(f"{path.stem}.{node.name}")
    return found


def import_cycles(package=PACKAGE):
    """Sorted submodules of package that reach themselves through their relative imports, at any depth."""
    edges = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        edges[path.stem] = set(_relative_imports(tree)) - {"__init__"}
    edges.pop("__init__")
    cyclic = []
    for start in edges:
        seen, frontier = set(), set(edges[start])
        while frontier:
            seen |= frontier
            frontier = set().union(*(edges.get(m, ()) for m in frontier)) - seen
        if start in seen:
            cyclic.append(start)
    return sorted(cyclic)


def test_no_import_inside_a_function():
    assert function_imports() == []


def test_no_import_cycle_among_submodules():
    assert import_cycles() == []


def _is_twice(node):
    """Whether node is 2 * x or x * 2 (2 or 2.0)."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        isinstance(side, ast.Constant) and side.value == 2 for side in (node.left, node.right))


def spin_roundings(package=PACKAGE):
    """module:line of each round(...) or rint(...) of twice a value outside params."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "params":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and node.args and _is_twice(node.args[0]):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("round", "rint"):
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_params_rounds_a_spin():
    assert spin_roundings() == []


def _is_curvature_factor(node):
    """Whether node is 6 ** 0.2 or 6 ** (-0.2) (6 or 6.0), a factor of Q_curv or sigma_curv^2."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 6):
        return False
    power = node.right
    if isinstance(power, ast.UnaryOp) and isinstance(power.op, ast.USub):
        power = power.operand
    return isinstance(power, ast.Constant) and power.value == 0.2


def curvature_forms(package=PACKAGE):
    """module:line of each 6 ** 0.2 or 6 ** (-0.2) in package."""
    return [f"{path.stem}:{node.lineno}" for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if _is_curvature_factor(node)]


def test_only_feedback_forms_the_curvature_optimum():
    # and it does form it, so a moved helper fails here instead of passing unseen
    assert {where.partition(":")[0] for where in curvature_forms()} == {"feedback"}


_DOMAIN_WORDS = re.compile(r"must be (finite and )?(positive|nonnegative)")
_KEPT_REFUSALS = {("design.design_report", "no shearing requested: q_target must be positive")}


def _literal_text(node):
    """The text of a string constant, or the constant parts of an f-string; '' for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(map(_literal_text, node.values))
    return ""


def value_errors(package=PACKAGE):
    """(module, module.definition, line, literal text) of each ValueError raised in package, by top-level
    definition."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(node, 'name', '<module>')}"
            for raised in ast.walk(node):
                exc = raised.exc if isinstance(raised, ast.Raise) else None
                if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError":
                    yield path.stem, where, raised.lineno, "".join(map(_literal_text, exc.args))


def domain_refusals(package=PACKAGE):
    """module.definition:line of each ValueError outside params whose text says an input must be positive or
    nonnegative, the kept refusals apart."""
    return [f"{where}:{line}" for module, where, line, text in value_errors(package)
            if module != "params" and _DOMAIN_WORDS.search(text) and (where, text) not in _KEPT_REFUSALS]


def test_only_params_refuses_an_input_out_of_domain():
    assert domain_refusals() == []


def test_design_imports_nothing_from_raman():
    # the checked entry design calls sits in feedback, beside the body; raman holds the Monte Carlo and fig2
    assert "raman" not in set(_relative_imports(ast.parse((PACKAGE / "design.py").read_text(encoding="utf-8"))))


_BRANCH_REFUSAL = "outside the principal branch"


def branch_refusals(package=PACKAGE):
    """module:line of each ValueError in package whose text holds the G-factor refusal."""
    return [f"{module}:{line}" for module, _, line, text in value_errors(package) if _BRANCH_REFUSAL in text]


def test_only_feedback_refuses_outside_the_principal_branch():
    # and it does refuse there, so a moved check fails here instead of passing unseen
    assert {where.partition(":")[0] for where in branch_refusals()} == {"feedback"}


_WRITERS = {"write_csv", "write_json", "write_manifest", "mkdir"}


def cli_writers(path=PACKAGE / "cli.py"):
    """function:line of each call in cli of a writer, outside run (module level counts as outside)."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == "run":
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in _WRITERS:
                    found.append(f"{getattr(node, 'name', '<module>')}:{call.lineno}")
    return found


def test_only_run_writes_in_cli():
    assert cli_writers() == []


def record_types(package=PACKAGE):
    """module:line of each class definition in cli and of each import of dataclasses in package."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef) and path.name == "cli.py"
                    or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses"
                    or isinstance(node, ast.Import)
                    and any(a.name.partition(".")[0] == "dataclasses" for a in node.names)):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_cli_handlers_return_plain_data():
    assert record_types() == []


_STREAM_BUILDERS = {"SeedSequence", "default_rng", "RandomState", "PCG64", "PCG64DXSM", "Philox", "SFC64",
                    "MT19937", "BitGenerator"}


def stream_builders(package=PACKAGE):
    """module.definition:line of each call in package that builds a random stream, by top-level definition."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in _STREAM_BUILDERS:
                        found.append(f"{path.stem}.{getattr(node, 'name', '<module>')}:{call.lineno}")
    return found


def test_only_run_chunks_builds_a_random_stream():
    # and it does build one, so a renamed owner fails here instead of passing unseen
    assert {where.partition(":")[0] for where in stream_builders()} == {"raman._run_chunks"}


_DICKE_EXPORTS = {"css_support", "css_amplitudes", "m_values", "raising_coefficients", "DENSITY_DIM_CAP"}


def dicke_imports(package=PACKAGE):
    """module:name of each name past _DICKE_EXPORTS that a module outside dicke imports from it ("dicke": all of it)."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "dicke":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if module in (".dicke", "cavsqueeze.dicke"):
                    found += [f"{path.stem}:{a.name}" for a in node.names if a.name not in _DICKE_EXPORTS]
                elif module in (".", "cavsqueeze"):
                    found += [f"{path.stem}:dicke" for a in node.names if a.name == "dicke"]
            elif isinstance(node, ast.Import):
                found += [f"{path.stem}:dicke" for a in node.names if a.name == "cavsqueeze.dicke"]
    return found


def test_only_the_amplitudes_m_and_ladder_leave_dicke():
    assert dicke_imports() == []


def ensemble_spec_names(package=PACKAGE):
    """module:line of each whole-word EnsembleSpec outside params and dicke."""
    word = re.compile(r"\bEnsembleSpec\b")
    return [f"{path.stem}:{i}" for path in sorted(package.glob("*.py")) if path.stem not in ("params", "dicke")
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if word.search(line)]


def test_only_params_and_dicke_name_ensemble_spec():
    assert ensemble_spec_names() == []


def foreign_imports(root, allowed):
    """path:line module of each absolute import under root whose top-level module is neither stdlib nor allowed."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names | allowed]
    return found


def test_the_package_depends_on_numpy_alone():
    assert foreign_imports(PACKAGE, {"numpy"}) == []


def test_the_tests_need_nothing_past_numpy_pytest_and_hypothesis():
    assert foreign_imports(ROOT / "tests", {"numpy", "pytest", "hypothesis", "cavsqueeze", "conftest"}) == []
