"""Source hygiene checks that need only the standard library's ``ast`` and
``inspect``: no module keeps an import it does not use or raises a bare
``ValueError`` or ``TypeError`` (bad arguments raise ``InvalidInputError``),
every ``check_choice`` call reads its choices from a named constant, work
fans out only through ``rngs.parallel_map``, no module reads the process
environment, only the simulation harness asks a permutation test to stop
at its decision, only one loop draws permutations, only ``nn_graph``'s
difference kernel calls ``matmul``, only ``rank_xi``
assembles the coefficient and builds its graph, only ``dep_tests``'
registry compares or keys the names of the tests, files are read as
``utf-8-sig``, caller samples become floats only through
``errors.as_real_array``, ``nn_graph`` keeps one bound on distance
scratch, the public name list is exact, and every public function and
class has a docstring of its own."""

import ast
import collections
import importlib
import inspect
import textwrap
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import manifold_xi
from manifold_xi import dep_tests, simulate

PACKAGE = Path(manifold_xi.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc.d\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def bare_builtin_raises(source: str) -> list[str]:
    """``raise ValueError(...)`` / ``raise TypeError`` statements, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        name = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(name, ast.Name) and name.id in ("ValueError", "TypeError"):
            found.append(f"{name.id} (line {node.lineno})")
    return found


def test_the_checker_finds_a_bare_builtin_raise():
    source = "raise ValueError('x')\nraise TypeError\nraise KeyError('k')\nraise\n"
    assert bare_builtin_raises(source) == ["ValueError (line 1)", "TypeError (line 2)"]
    assert bare_builtin_raises("raise errors.InvalidInputError('x')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_or_type_error(path):
    assert bare_builtin_raises(path.read_text(encoding="utf-8")) == []


def literal_choices(source: str) -> list[str]:
    """``check_choice`` calls whose choices are written in place, by line;
    a rule's choices live in one module constant that others import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "check_choice":
            continue
        args = node.args[2:] + [kw.value for kw in node.keywords if kw.arg == "choices"]
        if any(not isinstance(arg, (ast.Name, ast.Attribute)) for arg in args):
            found.append(f"check_choice (line {node.lineno})")
    return found


def test_the_checker_finds_literal_choices():
    source = ("check_choice('a', a, ('x', 'y'))\n"
              "errors.check_choice('b', b, ['x'])\n"
              "check_choice('c', c, choices=('x',))\n"
              "check_choice('d', d, CHOICES)\n"
              "check_choice('e', e, module.CHOICES)\n"
              "other('f', f, ('x',))\n")
    assert literal_choices(source) == [f"check_choice (line {i})" for i in (1, 2, 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_choices_come_from_a_named_constant(path):
    assert literal_choices(path.read_text(encoding="utf-8")) == []


def fan_outs(source: str) -> list[str]:
    """Ways to fan out work other than ``rngs.parallel_map``, by line: an
    import of ``concurrent.futures`` or ``threading``, or a call passing
    ``workers=`` (scipy's own thread pools)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            found += [f"workers= (line {node.lineno})"
                      for kw in node.keywords if kw.arg == "workers"]
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] in ("concurrent", "threading")]
    return found


def test_the_checker_finds_other_fan_outs():
    source = ("import concurrent.futures\n"
              "from concurrent import futures\n"
              "import os, threading\n"
              "tree.query(pts, k=2, workers=-1)\n"
              "from .rngs import parallel_map\n"
              "parallel_map(fn, items, threads)\n")
    assert fan_outs(source) == ["concurrent.futures (line 1)", "concurrent (line 2)",
                                "threading (line 3)", "workers= (line 4)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rngs.py"],
                         ids=lambda p: p.name)
def test_work_fans_out_only_through_parallel_map(path):
    assert fan_outs(path.read_text(encoding="utf-8")) == []


def environment_reads(source: str) -> list[str]:
    """Uses of ``os.environ``, ``os.getenv`` or ``os.putenv``, by line, as an
    attribute or a name imported from ``os``: every input of the package is
    an argument or a file it is given."""
    names = ("environ", "getenv", "putenv")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in names]
    return found


def test_the_checker_finds_environment_reads():
    source = ("from os import getenv, path\n"
              "threads = os.environ.get('THREADS')\n"
              "os.getenv('A')\n"
              "os.putenv('B', '1')\n"
              "os.path.join('a', 'b')\n"
              "os.sched_getaffinity(0)\n")
    assert environment_reads(source) == ["getenv (line 1)", "getenv (line 3)",
                                         "putenv (line 4)", "environ (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


STOP_ARGUMENT = "_stop_at_decision"


def stop_argument_passes(source: str) -> list[str]:
    """Calls passing the permutation tests' private stop argument, by line:
    ``forward`` when the value is the caller's own parameter of that name,
    ``set`` for any other value; the name written as a string (say in a
    ``**{...}`` or a ``getattr``) is ``string``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == STOP_ARGUMENT:
                    forward = getattr(kw.value, "id", None) == STOP_ARGUMENT
                    found.append(f"{'forward' if forward else 'set'} (line {node.lineno})")
        elif isinstance(node, ast.Constant) and node.value == STOP_ARGUMENT:
            found.append(f"string (line {node.lineno})")
    return found


def test_the_checker_finds_stop_argument_passes():
    source = ("run_test(m, x, y, _stop_at_decision=True)\n"
              "test(x, y, _stop_at_decision=_stop_at_decision)\n"
              "test(x, y, _stop_at_decision=stop)\n"
              "test(x, y, **{'_stop_at_decision': True})\n"
              "test(x, y, stop=True)\n"
              "def f(x, *, _stop_at_decision=False): pass\n")
    assert stop_argument_passes(source) == ["set (line 1)", "forward (line 2)",
                                            "set (line 3)", "string (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_harness_asks_a_test_to_stop(path):
    # The harness reads only reject, so it alone may stop a permutation test
    # at its decision; dep_tests forwards the request and sets it nowhere.
    allowed = {"simulate.py": {"set"}, "dep_tests.py": {"forward"}}.get(path.name, set())
    kinds = {entry.split()[0] for entry in
             stop_argument_passes(path.read_text(encoding="utf-8"))}
    assert kinds <= allowed
    if allowed:
        assert kinds == allowed


def test_the_stop_argument_stays_private():
    # Every public call, config field and documented option draws all B:
    # no public function of any module takes the stop, only the harness's
    # private entry point and the private tests behind it.
    readme = Path(__file__).parents[1] / "README.md"
    assert STOP_ARGUMENT not in readme.read_text(encoding="utf-8")
    assert [f.name for f in fields(simulate.ExperimentConfig) if "stop" in f.name] == []
    modules = [manifold_xi] + [importlib.import_module(f"manifold_xi.{p.stem}")
                               for p in MODULES]
    public = {obj for module in modules for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)}
    assert dep_tests.run_test in public
    assert [obj.__name__ for obj in public
            if STOP_ARGUMENT in inspect.signature(obj).parameters] == []
    private = [name for name, obj in vars(dep_tests).items()
               if inspect.isfunction(obj) and STOP_ARGUMENT in inspect.signature(obj).parameters]
    assert all(name.startswith("_") for name in private) and "_run_tests" in private


DRAWS = ("shuffle", "permuted", "permutation")
PERMUTATION_LOOP = "_permuted_p"


def owned_references(source: str, names: tuple) -> list[str]:
    """References to one of ``names`` (an attribute, a bare name or an
    import), by the innermost function around them (``<module>`` outside
    any) and line."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            used = [getattr(child, "attr", None) or getattr(child, "id", None)]
            if isinstance(child, ast.ImportFrom):
                used = [alias.name for alias in child.names]
            found.extend(f"{name} in {owner} (line {child.lineno})"
                         for name in used if name in names)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def permutation_draws(source: str) -> list[str]:
    """References to ``shuffle``, ``permuted`` or ``permutation`` (a
    generator's permutation draws), by owner and line."""
    return owned_references(source, DRAWS)


def test_the_checker_finds_permutation_draws():
    source = ("def _permuted_p(rng, z):\n"
              "    rng.permuted(z, axis=1, out=z)\n"
              "def other(rng, x):\n"
              "    rng.shuffle(x)\n"
              "    def inner():\n"
              "        return np.random.permutation(3)\n"
              "    draw = rng.permuted\n"
              "rng.permutation(4)\n"
              "'rng.shuffle(x)'\n")
    assert permutation_draws(source) == [
        "permuted in _permuted_p (line 2)", "shuffle in other (line 4)",
        "permutation in inner (line 6)", "permuted in other (line 7)",
        "permutation in <module> (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_loop_draws_the_permutations(path):
    # Both permutation tests draw, stop and score in dep_tests' one loop, so
    # a second loop (a per-draw shuffle, say) cannot come back.
    owners = {entry.split()[2] for entry in
              permutation_draws(path.read_text(encoding="utf-8"))}
    assert owners == ({PERMUTATION_LOOP} if path.name == "dep_tests.py" else set())


DIFFERENCE_KERNEL = "_differences"


def matmul_uses(source: str) -> list[str]:
    """References to ``matmul`` (``np.matmul``, a bare name or an import),
    by owner and line; the ``@`` operator is not one."""
    return owned_references(source, ("matmul",))


def test_the_checker_finds_matmul_uses():
    source = ("def _differences(lhs, rhs):\n"
              "    return np.matmul(lhs, rhs)\n"
              "from numpy import matmul\n"
              "def fill(a, b, out):\n"
              "    matmul(a, b, out=out)\n"
              "    return a @ b, np.dot(a, b), 'np.matmul'\n"
              "product = numpy.matmul\n")
    assert matmul_uses(source) == [
        "matmul in _differences (line 2)", "matmul in <module> (line 3)",
        "matmul in fill (line 5)", "matmul in <module> (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_kernel_forms_pairwise_differences(path):
    # nn_graph's BLAS difference kernel fills both all-pairs distance
    # matrices and the dcor permutations' distances; a second matmul would
    # be a second way to form pairwise differences.
    owners = {entry.split()[2] for entry in matmul_uses(path.read_text(encoding="utf-8"))}
    assert owners == ({DIFFERENCE_KERNEL} if path.name == "nn_graph.py" else set())


ASSEMBLY = ("build_nn_graph", "_nn_argmin", "_xi_sample", "_xi_statistic")


def assembly_names(source: str) -> list[str]:
    """Imports of and references to the NN graph builders (the kd-tree one
    and the argmin of a distance matrix) and the two private steps that
    assemble the coefficient, by name and line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        found += [f"{name} (line {node.lineno})" for name in names if name in ASSEMBLY]
    return found


def test_the_checker_finds_assembly_names():
    source = ("from .nn_graph import build_nn_graph, count_motifs\n"
              "from .rank_xi import _xi_sample as prepare\n"
              "nn_graph.build_nn_graph(x)\n"
              "_xi_statistic(cloud, ranks, sizes)\n"
              "def build_nn_graph(cloud): pass\n"
              "'build_nn_graph'\n"
              "nn = _nn_argmin(d2)\n")
    assert assembly_names(source) == ["build_nn_graph (line 1)", "_xi_sample (line 2)",
                                      "build_nn_graph (line 3)", "_xi_statistic (line 4)",
                                      "_nn_argmin (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_rank_xi_assembles_the_coefficient(path):
    # rank_xi prepares the sample and builds the graph, by the kd-tree or as
    # the argmin of the sample's distance matrix, for xi_n and both xi
    # tests; dep_tests takes both steps from it and builds no graph itself,
    # and the harness (simulate) names none of them.
    allowed = {"rank_xi.py": set(ASSEMBLY), "dep_tests.py": {"_xi_sample", "_xi_statistic"},
               "nn_graph.py": {"build_nn_graph", "_nn_argmin"}}.get(path.name, set())
    names = {entry.split()[0] for entry in assembly_names(path.read_text(encoding="utf-8"))}
    assert names <= allowed
    if path.name != "nn_graph.py":
        assert names == allowed


REGISTRY = "_TESTS"


def method_name_uses(source: str, registry: str | None = None) -> list[str]:
    """Names of tests (the strings of ``METHODS``) compared by ``==``,
    ``!=``, ``in`` or ``not in`` (alone or inside a literal tuple, list or
    set) or written as dict keys, by name and line; the keys of a dict
    assigned to ``registry`` do not count."""
    tree = ast.parse(source)
    exempt = {id(node.value) for node in ast.walk(tree)
              if registry and isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(getattr(target, "id", None) == registry for target in node.targets)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            operands = []
            for operand in [node.left, *node.comparators]:
                literal = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                operands += operand.elts if literal else [operand]
        elif isinstance(node, ast.Dict) and id(node) not in exempt:
            operands = node.keys
        else:
            continue
        found += [f"{op.value} (line {op.lineno})" for op in operands
                  if isinstance(op, ast.Constant) and op.value in dep_tests.METHODS]
    return sorted(found, key=lambda entry: int(entry.split()[-1][:-1]))


def test_the_checker_finds_method_name_uses():
    source = ("if method == 'xi_asymptotic': pass\n"
              "dcor = 'dcor_permutation' in methods\n"
              "xi = k not in ('xi_permutation', 'other')\n"
              "tests = {'xi_permutation': f, **extra}\n"
              "_TESTS = {'xi_asymptotic': f}\n"
              "run_test('xi_asymptotic', x, y)\n"
              "same = method != 'pearson' and method is 'dcor_permutation'\n")
    assert method_name_uses(source, REGISTRY) == [
        "xi_asymptotic (line 1)", "dcor_permutation (line 2)", "xi_permutation (line 3)",
        "xi_permutation (line 4)"]
    assert method_name_uses(source)[-1] == "xi_asymptotic (line 5)"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_registry_names_the_tests(path):
    # dep_tests' registry is the one list of the tests: run_test, the
    # harness and the CLI read it and compare no test name of their own.
    source = path.read_text(encoding="utf-8")
    registry = REGISTRY if path.name == "dep_tests.py" else None
    assert method_name_uses(source, registry) == []
    if registry:  # the registry is that dict, keyed by every name
        assert [entry.split()[0] for entry in method_name_uses(source)] == \
            list(dep_tests.METHODS)


def bom_blind_reads(source: str) -> list[str]:
    """``open`` calls that read text as ``encoding="utf-8"``, by line: such a
    reader takes a byte-order mark for part of the first field, so files
    are read as ``utf-8-sig`` (writes stay plain ``utf-8``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        args = dict(zip(("file", "mode"), node.args))
        args.update((kw.arg, kw.value) for kw in node.keywords)
        mode, encoding = (getattr(args.get(k), "value", None) for k in ("mode", "encoding"))
        if encoding == "utf-8" and not set(mode or "r") & set("wax+"):
            found.append(f"open (line {node.lineno})")
    return found


def test_the_checker_finds_bom_blind_reads():
    source = ("open(p, 'r', encoding='utf-8')\n"
              "open(p, encoding='utf-8')\n"
              "open(p, mode='rt', encoding='utf-8')\n"
              "open(p, 'w', encoding='utf-8')\n"
              "open(p, 'r', encoding='utf-8-sig')\n"
              "open(p, 'rb')\n")
    assert bom_blind_reads(source) == [f"open (line {i})" for i in (1, 2, 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_files_are_read_as_utf8_sig(path):
    assert bom_blind_reads(path.read_text(encoding="utf-8")) == []


FLOAT_NAMES = ("float", "float64", "double")


def float_conversions(source: str) -> list[str]:
    """``np.asarray`` or ``np.array`` calls that ask for ``dtype=float`` (as
    a keyword or the second argument, by name or string), by line: such a
    call turns complex input into its real part and raises numpy's own
    errors on text or ragged rows."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("asarray", "array")):
            continue
        dtypes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "dtype"]
        names = [getattr(t, "id", None) or getattr(t, "attr", None) or getattr(t, "value", None)
                 for t in dtypes]
        if any(name in FLOAT_NAMES for name in names):
            found.append(f"{node.func.attr} (line {node.lineno})")
    return found


def test_the_checker_finds_float_conversions():
    source = ("np.asarray(x, dtype=float)\n"
              "np.array(y, float)\n"
              "numpy.asarray(z, dtype=np.float64)\n"
              "np.asarray(w, dtype='float')\n"
              "np.asarray(x)\n"
              "np.array(parallel_map(fn, items)).T\n"
              "np.asarray(x, dtype=np.intp)\n"
              "x.astype(float)\n")
    assert float_conversions(source) == ["asarray (line 1)", "array (line 2)",
                                         "asarray (line 3)", "asarray (line 4)"]


@pytest.mark.parametrize("name", ["nn_graph.py", "rank_xi.py", "dep_tests.py",
                                  "manifold_gen.py"])
def test_samples_become_floats_through_one_helper(name):
    # the points and responses reach these modules as the caller sent them
    assert float_conversions((PACKAGE / name).read_text(encoding="utf-8")) == []


def block_constants(source: str) -> list[str]:
    """Module-level names ending in ``_BLOCK_ENTRIES`` that ``source`` assigns."""
    found = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [name.id for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name) and name.id.endswith("_BLOCK_ENTRIES")]
    return found


def test_the_checker_finds_block_constants():
    source = ("_A_BLOCK_ENTRIES = 2**16  # rows x columns x d\n"
              "_B_BLOCK_ENTRIES: int = 2**23\n"
              "_C_BLOCK_ENTRIES, OTHER = 1, 2\n"
              "def f():\n"
              "    _LOCAL_BLOCK_ENTRIES = 1\n"
              "block = _A_BLOCK_ENTRIES // 3\n")
    assert block_constants(source) == ["_A_BLOCK_ENTRIES", "_B_BLOCK_ENTRIES",
                                       "_C_BLOCK_ENTRIES"]


def test_nn_graph_bounds_its_distance_scratch_once():
    # the tree rounds and the all-pairs blocks share one bound on the
    # squared differences held at once; a separate tree bound let a round
    # hold arrays of half the input
    source = (PACKAGE / "nn_graph.py").read_text(encoding="utf-8")
    assert block_constants(source) == ["_SQDIST_BLOCK_ENTRIES"]


def test_public_names_resolve_and_are_listed_once():
    names = manifold_xi.__all__
    assert [n for n in names if not hasattr(manifold_xi, n)] == []
    assert [n for n, k in collections.Counter(names).items() if k > 1] == []


def has_own_docstring(obj) -> bool:
    """Whether the source of a function or class opens with a docstring; the
    ``Name(field, ...)`` text that ``dataclasses`` fills in does not count."""
    node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
    return ast.get_docstring(node) is not None


def test_the_checker_sees_only_written_docstrings():
    @dataclass
    class Bare:
        x: int

    @dataclass
    class Written:
        """Doc."""

        x: int

    def bare():
        pass

    assert Bare.__doc__  # filled in by dataclasses
    assert not has_own_docstring(Bare) and has_own_docstring(Written)
    assert not has_own_docstring(bare)


def test_every_public_function_and_class_has_a_docstring():
    public = [inspect.unwrap(getattr(manifold_xi, name)) for name in manifold_xi.__all__]
    assert [obj.__name__ for obj in public
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and not has_own_docstring(obj)] == []
