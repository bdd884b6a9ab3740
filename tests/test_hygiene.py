"""Every module-level import in the package is used by its module, every
module is reached from the CLI, the package exports every public name its
`__init__` imports, every CSV input and every JSON file goes through one
reader, predictions are scored in one run-side and one report-side place,
Sharpe has one formula, the gauges have one entry point, no prompt builder or
review rule reaches `regime`, a run setting's default lives only in the config
dataclasses, only the transport module imports `requests`, every text file the
package opens names its encoding, the traced benchmark's wrap targets are
still the names the program calls, and the package ships every data file it
holds."""

import ast
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import btagents
import btagents.indicators
import btagents.metrics
from btagents.agents import ScriptedResponder
from btagents.indicators import IndicatorParams
from btagents.orchestrator import RunConfig, outputs_from_journal, run_backtest
from btagents.regime import RegimeParams
from btagents.report import render, resolve_segmentation
from btagents.transport import ChatClientConfig

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


def reached_from(*names: str) -> set[str]:
    """The package modules `names` import, directly or through another, and `names` themselves."""
    package = Path(btagents.__file__).parent
    reached, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += relative_imports((package / f"{name}.py").read_text(encoding="utf-8"))
    return reached


def test_every_module_is_reached_from_the_cli():
    """The package is what its commands run: each module is imported, directly
    or through another, by `cli.py`."""
    reached = reached_from("cli")
    assert sorted(p.name for p in MODULES if p.stem not in reached) == []


def test_no_prompt_builder_or_review_rule_reaches_regime():
    """`regime.segment` labels each day from later closes, as the report's
    regime table needs, so a regime label must never reach a prompt: neither
    the prompt builders (`agents`) nor the review rules (`reflection`) import
    `regime`, directly or through another module."""
    assert "regime" not in reached_from("agents", "reflection")
    assert "regime" in reached_from("report")  # the check can see an import


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


def test_one_date_parser():
    """`market_data.parse_date` is the one date parser, so a date read from a
    CSV file, a config or a journal follows one rule on every supported Python."""
    found = [
        (p.name, scope) for p in MODULES for scope in callers(p.read_text(encoding="utf-8"), "fromisoformat")
    ]
    assert found == [("market_data.py", "parse_date")]


def test_one_json_file_reader():
    """`journal.read_json` is the one JSON file reader, so the config, fixture
    and templates loaders share its UTF-8 and nesting rules; `read_journal`
    decodes journal lines and `agents` scans replies, each by its own rule."""
    found = sorted(
        (p.name, scope)
        for p in MODULES
        for name in ("load", "loads")
        for scope in callers(p.read_text(encoding="utf-8"), name)
    )
    assert found == [("journal.py", "read_journal"), ("journal.py", "read_json")]
    assert {p.name for p in MODULES if "raw_decode" in p.read_text(encoding="utf-8")} == {"agents.py"}


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


CONFIG_CLASSES = (RunConfig, IndicatorParams, RegimeParams, ChatClientConfig)
SETTINGS = {f.name for kind in CONFIG_CLASSES for f in dataclasses.fields(kind)} | {"retry_limit"}


def defaulted_settings(source: str, names) -> list[str]:
    """Each parameter in `source` named in `names` whose default is not None,
    as "function(parameter=default)", and each annotated field of a class body
    outside the config dataclasses so named that holds a value but None, as
    "Class.field=value", in sorted order."""
    def given(default) -> bool:
        return default is not None and not (isinstance(default, ast.Constant) and default.value is None)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name not in {kind.__name__ for kind in CONFIG_CLASSES}:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) in names and given(stmt.value):
                    found.append(f"{node.name}.{stmt.target.id}={ast.unparse(stmt.value)}")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        pairs = [*zip(positional[len(positional) - len(a.defaults) :], a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
        for arg, default in pairs:
            if arg.arg in names and given(default):
                found.append(f"{getattr(node, 'name', '<lambda>')}({arg.arg}={ast.unparse(default)})")
    return sorted(found)


def test_checker_finds_a_defaulted_setting():
    source = (
        "def f(a, fee_bps=0.0, timeout=None, /, *, retry_limit=1, start):\n"
        "    g = lambda neutral_band=RunConfig.neutral_band: 0\n"
        "def h(fee_bps, x=1, *, end=None): pass\n"
        "class Fees:\n"
        "    fee_bps: float = 0.0\n"
        "    start: str\n"
        "    end: str | None = None\n"
        "    timeout = 5\n"
        "class RunConfig:\n"
        "    fee_bps: float = 0.0\n"
    )
    assert defaulted_settings(source, {"fee_bps", "timeout", "retry_limit", "neutral_band", "start", "end"}) == [
        "<lambda>(neutral_band=RunConfig.neutral_band)",
        "Fees.fee_bps=0.0",
        "f(fee_bps=0.0)",
        "f(retry_limit=1)",
    ]


def test_one_default_per_run_setting():
    """A run setting's default lives only in the config dataclasses: no function
    parameter named after one of their fields, or `retry_limit`, defaults to
    anything but None, which stands for "not given" (the prompt builders'
    feedback texts and the band override of `outputs_from_journal` and `replay`),
    and no annotated field of another class so named holds a value but None."""
    found = [(p.name, d) for p in MODULES for d in defaulted_settings(p.read_text(encoding="utf-8"), SETTINGS)]
    assert found == []


def test_one_gauge_entry_point():
    """The gauges are computed in one place: `indicators` offers no function
    but `snapshot` and the per-pair terms it reads."""
    module = btagents.indicators
    public = {
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
    }
    assert public == {"pair_terms", "snapshot"}


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


def opens_without_encoding(source: str) -> list[int]:
    """The lines of `source` that open a file in text mode with no `encoding=`,
    so in the locale's encoding: an `open(...)` or `.open(...)` but for one whose
    mode is a literal holding "b", and a `.read_text(...)` or `.write_text(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            at = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) or path.open(mode)
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
            if modes and isinstance(modes[0], ast.Constant) and "b" in str(modes[0].value):
                continue
        elif name not in ("read_text", "write_text"):
            continue
        found.append(node.lineno)
    return found


def test_every_text_file_opened_names_its_encoding():
    """Journal bytes are pinned across machines, so no text file the package
    reads or writes may follow the locale's encoding."""
    checked = (
        'open(p)\nopen(p, "w")\np.open()\np.open(mode="a")\np.read_text()\np.write_text(s, errors="strict")\n'
        'open(p, "rb")\np.open(mode="wb")\nopen(p, encoding="utf-8")\np.read_text(encoding="utf-8")\np.read_bytes()\n'
    )
    assert opens_without_encoding(checked) == [1, 2, 3, 4, 5, 6]
    package = sorted(Path(btagents.__file__).parent.rglob("*.py"))
    found = [(p.name, line) for p in package for line in opens_without_encoding(p.read_text(encoding="utf-8"))]
    assert found == []


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


def test_package_data_names_every_data_file():
    """An install copies the modules and the files `[tool.setuptools.package-data]`
    names, and nothing else; every run reads the weekly templates, and the tests
    import from `src/`, so a data file left out would fail only once installed."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    package = Path(btagents.__file__).parent
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["btagents"]
    shipped = {path for pattern in patterns for path in package.glob(pattern)}
    data = {
        path for path in package.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert package / "templates" / "weekly_templates.json" in data
    assert data - shipped == set()
