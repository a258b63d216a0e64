"""Source hygiene checks that need only the standard library's ``ast`` and
``inspect``: no module keeps an import it does not use or raises a bare
``ValueError`` or ``TypeError`` (bad arguments raise ``InvalidInputError``),
every ``check_choice`` call reads its choices from a named constant, work
fans out only through ``rngs.parallel_map``, no module reads the process
environment, only the simulation harness asks a permutation test to stop
at its decision, only ``rank_xi`` assembles the coefficient and builds its
graph, files are read as ``utf-8-sig``, caller samples become floats only
through ``errors.as_real_array``, the public name list is exact, and
every public function and class has a docstring of its own."""

import ast
import collections
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
    # Every public call, config field and documented option draws all B.
    readme = Path(__file__).parents[1] / "README.md"
    assert STOP_ARGUMENT not in readme.read_text(encoding="utf-8")
    assert [f.name for f in fields(simulate.ExperimentConfig) if "stop" in f.name] == []
    public = [getattr(manifold_xi, name) for name in manifold_xi.__all__] + [dep_tests.run_test]
    takers = {obj.__name__: (param.kind, param.default) for obj in public
              if inspect.isfunction(obj)
              for param in [inspect.signature(obj).parameters.get(STOP_ARGUMENT)]
              if param is not None}
    assert takers == dict.fromkeys(["xi_test_permutation", "dcor_test_permutation", "run_test"],
                                   (inspect.Parameter.KEYWORD_ONLY, False))


ASSEMBLY = ("build_nn_graph", "_xi_sample", "_xi_statistic")


def assembly_names(source: str) -> list[str]:
    """Imports of and references to the NN graph builder and the two private
    steps that assemble the coefficient, by name and line."""
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
              "'build_nn_graph'\n")
    assert assembly_names(source) == ["build_nn_graph (line 1)", "_xi_sample (line 2)",
                                      "build_nn_graph (line 3)", "_xi_statistic (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_rank_xi_assembles_the_coefficient(path):
    # rank_xi prepares the sample and builds the graph for xi_n and both xi
    # tests; dep_tests takes both steps from it and builds no graph itself.
    allowed = {"rank_xi.py": set(ASSEMBLY), "dep_tests.py": set(ASSEMBLY[1:]),
               "nn_graph.py": {"build_nn_graph"}}.get(path.name, set())
    names = {entry.split()[0] for entry in assembly_names(path.read_text(encoding="utf-8"))}
    assert names <= allowed
    if path.name != "nn_graph.py":
        assert names == allowed


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


@pytest.mark.parametrize("name", ["nn_graph.py", "rank_xi.py", "dep_tests.py"])
def test_samples_become_floats_through_one_helper(name):
    # the points and responses reach these modules as the caller sent them
    assert float_conversions((PACKAGE / name).read_text(encoding="utf-8")) == []


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
