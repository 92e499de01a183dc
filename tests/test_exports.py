"""Every package name the benchmark reads, and every ``__all__`` entry, exists.

``bench/run.py`` reads ``<module>.<attr>`` on specdown modules and hands
``(<module>, "<attr>")`` pairs to its tracer, which looks each one up with
``getattr``: one missing name stops every benchmark run before it reports.
Its sampler probe also sets :class:`~specdown.inference.McmcConfig` fields
by keyword through ``dataclasses.replace``.  No module of the package or
its tests imports a name it does not use, every field of the run,
sampler and prior configurations is read somewhere in the package, and
every key of the default ``simulate`` section is read by
:func:`~specdown.pipeline.build_sim_config`.  Every module-level name of
the package is read somewhere in it or listed in an ``__all__``.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from specdown.fileio import RunConfig
from specdown.inference import McmcConfig, Priors

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "specdown").glob("*.py") if p.stem != "__init__")


def _bench_names(functions=None) -> set:
    """(module, attr) pairs that bench/run.py reads on specdown modules;
    with ``functions``, only those read in the bodies of the functions so
    named."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    modules = {"specdown": "specdown"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "specdown":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"specdown.{alias.name}"
    roots = [tree]
    if functions is not None:
        roots = [
            n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in functions
        ]
    names = set()
    for node in (node for root in roots for node in ast.walk(root)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
        pair = None
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            pair = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
            pair = node.args[:2]
        if (
            pair is not None
            and len(pair) == 2
            and isinstance(pair[0], ast.Name)
            and pair[0].id in modules
            and isinstance(pair[1], ast.Constant)
        ):
            names.add((modules[pair[0].id], pair[1].value))
    return names


def test_bench_reads_and_wraps_are_found():
    names = _bench_names()
    # the tracer's light set and the sampler probe must have been seen
    assert ("specdown.pipeline", "fit_variant") in names
    assert ("specdown.pipeline", "ProcessPoolExecutor") in names
    assert ("specdown.inference", "fit_batch_mcmc") in names
    assert ("specdown.stations", "coef_to_raw") in names


@pytest.mark.parametrize("module,attr", sorted(_bench_names()))
def test_bench_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"bench reads {module}.{attr}"


#: What the bench's tracer wraps; each wrapped call feeds a per-layer metric.
TRACED = sorted(_bench_names({"install_light", "install_full"}))


def test_traced_names_are_found():
    assert ("specdown.fileio", "read_posterior") in TRACED
    assert ("specdown.pipeline", "ProcessPoolExecutor") in TRACED
    assert ("specdown.stations", "coef_to_raw") not in TRACED


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"specdown.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _bench_replace_keywords() -> set:
    """Keyword names bench/run.py passes to ``dataclasses.replace``."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    return {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "dataclasses"
        for kw in node.keywords
        if kw.arg is not None
    }


def test_bench_replace_keywords_are_found():
    names = _bench_replace_keywords()
    assert {"update_decay", "update_coreg", "update_w", "update_beta", "update_nugget"} <= names


@pytest.mark.parametrize("name", sorted(_bench_replace_keywords()))
def test_bench_replace_keyword_is_mcmc_field(name):
    assert name in {f.name for f in dataclasses.fields(McmcConfig)}, f"bench sets McmcConfig.{name}"


SOURCES = sorted((ROOT / "src" / "specdown").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list:
    """Names ``path`` imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _attribute_reads() -> set:
    """Attribute names read anywhere in the package, outside the
    ``__post_init__`` validators of its dataclasses."""
    reads = set()
    for path in sorted((ROOT / "src" / "specdown").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                skipped.update(id(n) for n in ast.walk(node))
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped
        )
    return reads


ATTRIBUTE_READS = _attribute_reads()
CONFIG_FIELDS = sorted(
    (cls.__name__, f.name) for cls in (McmcConfig, Priors, RunConfig) for f in dataclasses.fields(cls)
)


@pytest.mark.parametrize("cls,name", CONFIG_FIELDS, ids=lambda v: v)
def test_config_field_is_read(cls, name):
    # no knob is parsed and then ignored: each field is read by attribute
    # somewhere in the package, and validating it does not count
    assert name in ATTRIBUTE_READS, f"{cls}.{name} is never read"


def _sim_config_reads() -> set:
    """String keys that ``pipeline.build_sim_config`` reads by subscript."""
    tree = ast.parse((ROOT / "src" / "specdown" / "pipeline.py").read_text(encoding="utf-8"))
    func = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "build_sim_config"
    )
    return {
        node.slice.value
        for node in ast.walk(func)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


SIM_CONFIG_READS = _sim_config_reads()


@pytest.mark.parametrize("key", sorted(RunConfig().simulate))
def test_simulate_key_is_read(key):
    # a simulation knob that the config accepts reaches the simulation
    assert key in SIM_CONFIG_READS, f"simulate.{key} is never read by build_sim_config"


TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "src" / "specdown").glob("*.py"))
}


def _package_reads() -> set:
    """Names the package reads, by name or by attribute, outside the
    module-level definition of the same name (a recursive call does not
    count)."""
    reads = set()  # (name, the module-level definition the read sits in)
    for tree in TREES.values():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, owner))
    return {name for name, owner in reads if owner != name}


PACKAGE_READS = _package_reads()


@pytest.mark.parametrize("module,attr", TRACED)
def test_traced_name_has_a_package_caller(module, attr):
    # the per-layer metric of a wrapped name no package code calls is never
    # measured, and the traced report prints null for it
    assert attr in PACKAGE_READS, f"no package code calls {module}.{attr}"


def _dead_names() -> list:
    """Module-level functions, classes and constants of the package, other
    than dunder names, that no module reads and no ``__all__`` lists."""
    exported = set()
    for tree in TREES.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exported.update(e.value for e in stmt.value.elts if isinstance(e, ast.Constant))
    dead = []
    for module, tree in TREES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                f"{module}.{name}"
                for name in defined
                if not (name.startswith("__") and name.endswith("__"))
                and name not in PACKAGE_READS
                and name not in exported
            ]
    return dead


def test_no_dead_module_names():
    # every module-level name is read somewhere in the package or exported
    assert _dead_names() == []
