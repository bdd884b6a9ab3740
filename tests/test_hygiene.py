"""Every module-level import in the package is used by its module, every
module is reached from the CLI, the package exports every public name its
`__init__` imports, every CSV input goes through one reader, predictions are
scored in one run-side and one report-side place, Sharpe has one formula,
only the transport module imports `requests`, and the traced benchmark's
wrap targets are still the names the program calls."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import btagents
import btagents.metrics
from btagents.agents import ScriptedResponder
from btagents.orchestrator import RunConfig, outputs_from_journal, run_backtest
from btagents.report import render, resolve_segmentation

from conftest import scripted_plan, synth_dataset

MODULES = sorted(p for p in Path(btagents.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport time\nfrom re import compile as c\ntime.sleep(0)\n") == [
        "os",
        "c",
    ]


def relative_imports(source: str) -> set[str]:
    """The sibling modules `source` imports with `from .x import ...` or `from . import x`, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def test_relative_imports_reads_nested_and_bare_imports():
    assert relative_imports("from .a import x\ndef f():\n    from . import b\nimport c\n") == {"a", "b"}
    assert relative_imports("from .a.b import x\nfrom .. import up\nfrom c import d\n") == {"a"}


def test_every_module_is_reached_from_the_cli():
    """The package is what its commands run: each module is imported, directly
    or through another, by `cli.py`."""
    package = Path(btagents.__file__).parent
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += relative_imports((package / f"{name}.py").read_text(encoding="utf-8"))
    assert sorted(p.name for p in MODULES if p.stem not in reached) == []


def test_package_exports_match_its_imports():
    source = Path(btagents.__file__).read_text(encoding="utf-8")
    imported = {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert all(hasattr(btagents, name) for name in btagents.__all__)
    assert {name for name in imported if not name.startswith("_")} <= set(btagents.__all__)


def test_one_csv_reader():
    """`market_data.read_csv` is the only CSV parsing loop: header, blank-row
    and field-count checks and physical line numbers live in one place."""
    found = [p.name for p in MODULES for _ in range(p.read_text(encoding="utf-8").count("csv.reader"))]
    assert found == ["market_data.py"]


def callers(source: str, name: str) -> list[str]:
    """The innermost function (or `<module>`) around each call of `name` in `source`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_one_prediction_scorer():
    """`metrics.prediction_correct` is the one scoring rule: the run scores
    `correct` with it in `evaluate_day`, and the report's hits come from it in
    `outputs_from_journal`, against the same recorded BTC move."""
    assert callers("def f():\n    g = lambda: m.score(1)\nscore(2)\n", "score") == ["<lambda>", "<module>"]
    found = sorted(
        (p.name, scope) for p in MODULES for scope in callers(p.read_text(encoding="utf-8"), "prediction_correct")
    )
    assert found == [("orchestrator.py", "outputs_from_journal"), ("reflection.py", "evaluate_day")]
    assert not hasattr(btagents.metrics, "accuracy")


def test_one_sharpe_formula():
    """`metrics.sharpe` is the one Sharpe formula, for the report's rows and
    the weekly stats; a constant series is None there, not an error to catch."""
    found = sorted(
        (p.name, scope) for p in MODULES for scope in callers(p.read_text(encoding="utf-8"), "sharpe")
    )
    assert found == [("metrics.py", "_row"), ("reflection.py", "weekly_feedback")]
    package = Path(btagents.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "ZeroDispersion" in p.read_text(encoding="utf-8"))
    assert naming == ["errors.py", "metrics.py"]


def imports_requests(source: str) -> bool:
    """Whether `source` imports `requests` anywhere, at module level or nested."""
    return any(
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "requests" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "requests"
        for node in ast.walk(ast.parse(source))
    )


def test_requests_imported_only_in_transport():
    """`transport.py` is the one HTTP seam: no other module loads the HTTP stack."""
    assert imports_requests("def f():\n    if True:\n        from requests.adapters import HTTPAdapter\n")
    package = sorted(Path(btagents.__file__).parent.rglob("*.py"))
    found = [p.name for p in package if imports_requests(p.read_text(encoding="utf-8"))]
    assert found == ["transport.py"]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_wraps_names_the_program_calls(monkeypatch):
    """Each function the traced benchmark wraps is still looked up where it is
    wrapped: an 8-day run and its report record every span name wrapped."""
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    dataset = synth_dataset(32 + 8 + 2)
    days = dataset.dates[32 : 32 + 8]
    client = ScriptedResponder(scripted_plan(days))
    rec = bench.Recorder()
    wrapped = set()

    def wrap(owner, attr, name, **kwargs):
        wrapped.add(name)
        bench.Recorder.wrap(rec, owner, attr, name, **kwargs)

    rec.wrap = wrap
    try:
        bench.wrap_program(rec, client)
        outputs = outputs_from_journal(run_backtest(RunConfig(start=days[0], end=days[-1]), dataset, client))
        render(outputs, resolve_segmentation(outputs))
    finally:
        restored = rec.restore()
    assert restored
    assert len(wrapped) > 10
    assert wrapped - {span[0] for span in rec.spans} == set()
