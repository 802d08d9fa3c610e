"""Start-up: packages re-export lazily, a CLI run loads only what it runs.

Package ``__init__``s resolve their public names on first use (PEP 562,
``repro._lazy``), so ``python -m repro run <id>`` imports the driver,
engine and model modules that id executes and nothing else.  A run the
experiment memo answers executes no numerics, so it loads neither numpy
nor the modules built on it: drivers import their substrate inside the
functions that compute, and the scheme registry names its solvers by
import path.  A run that computes loads numpy but never scipy: the
Beta-tail error curves use the in-repo incomplete beta, and scipy
serves only ``milp``, ``errors.fitting`` and ``circuit.voltage``, which
no experiment or ablation calls.  These tests pin that import budget
for a listing, for a cold ``run all`` and ``ablation all`` (which must
also render their committed digests with scipy unimportable), and for
a warm run of every experiment and ablation.  They also check every
lazy export map against its submodules, and import the modules that
sit on import cycles first in a fresh interpreter, where a changed
import order would surface.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import ABLATIONS

REPO_ROOT = Path(__file__).resolve().parents[1]
EXPECTED = REPO_ROOT / "perfbench" / "expected.json"

#: The two commands that regenerate the paper, run cold.
COLD_RUNS = (["run", "all"], ["ablation", "all"])

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.arch",
    "repro.circuit",
    "repro.core",
    "repro.engine",
    "repro.engine.backends",
    "repro.errors",
    "repro.gpgpu",
    "repro.milp",
    "repro.overhead",
    "repro.workloads",
)

#: Never loaded by a listing or a memo-served serial run (``pkg``
#: covers ``pkg.*``).
FORBIDDEN = (
    "numpy",
    "scipy",
    "multiprocessing",
    "concurrent.futures",
    "repro.engine.backends.process",
    "repro.errors",
    "repro.circuit",
    "repro.gpgpu",
    "repro.milp",
    "repro.arch",
    "repro.overhead",
)

#: The only ``repro.core`` module such a run needs: the scheme
#: registry, whose digests salt every experiment memo key.
CORE_ALLOWED = "repro.core.schemes"

#: Experiment ids whose driver module is not named after the id.
_DRIVER_OF = {
    "sec_6_3": "overhead_study",
    **{f"fig_6_1{i}": "pareto_figs" for i in range(1, 7)},
}

#: (argv, driver module) of every experiment and ablation.
WARM_RUNS = [
    (["run", exp_id], _DRIVER_OF.get(exp_id, exp_id)) for exp_id in EXPERIMENTS
] + [(["ablation", name], "ablations") for name in ABLATIONS]

#: Runs ``main(argv)`` and reports its exit code and ``sys.modules``.
_MAIN_PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: Runs ``main(argv)`` with scipy unimportable; reports the stdout digest.
_NO_SCIPY_PROBE = """
import contextlib, hashlib, io, json, sys
sys.modules["scipy"] = None
from repro.__main__ import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"code": code, "digest": digest}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def _loaded_by_main(argv) -> list:
    proc = _python("-c", _MAIN_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0, proc.stderr
    return report["modules"]


def _over_budget(modules, driver, ablations: bool) -> list:
    """Loaded modules a run of ``driver`` has no use for."""
    allowed_drivers = {"common", driver} | ({"ablations"} if ablations else set())
    bad = []
    for name in modules:
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN):
            bad.append(name)
        elif name.startswith("repro.core.") and name != CORE_ALLOWED:
            bad.append(name)
        elif (
            name.startswith("repro.experiments.")
            and name.split(".")[2] not in allowed_drivers
        ):
            bad.append(name)
    return bad


class TestImportBudget:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        """A cache dir filled by a cold ``run all`` + ``ablation all``."""
        cache_dir = str(tmp_path_factory.mktemp("startup-cache"))
        for argv in COLD_RUNS:
            modules = _loaded_by_main(argv + ["--cache-dir", cache_dir])
            assert [m for m in modules if m.split(".")[0] == "scipy"] == [], argv
        return cache_dir

    def test_list(self):
        modules = _loaded_by_main(["--list"])
        assert _over_budget(modules, None, ablations=True) == []

    @pytest.mark.parametrize(
        "argv, driver", WARM_RUNS, ids=["-".join(argv) for argv, _ in WARM_RUNS]
    )
    def test_warm_run(self, cache_dir, argv, driver):
        modules = _loaded_by_main(argv + ["--cache-dir", cache_dir])
        assert _over_budget(modules, driver, ablations=False) == []


@pytest.mark.parametrize("argv", COLD_RUNS, ids=" ".join)
def test_cold_run_renders_its_digest_without_scipy(argv):
    """The paper regenerates, byte for byte, where scipy cannot import."""
    expected = json.loads(EXPECTED.read_text())["paper_cold"][" ".join(argv)]
    proc = _python("-c", _NO_SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"code": 0, "digest": expected}, proc.stderr


@pytest.mark.parametrize(
    "module",
    ["repro.engine.cells", "repro.workloads.registry", "repro.core.schemes"],
)
def test_first_import_in_fresh_interpreter(module):
    proc = _python("-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr


class TestLazyExports:
    def test_dir_lists_exports_before_first_use(self):
        probe = (
            "import importlib, json, sys\n"
            "out = {}\n"
            "for name in sys.argv[1:]:\n"
            "    pkg = importlib.import_module(name)\n"
            "    out[name] = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
            "print(json.dumps(out))\n"
        )
        proc = _python("-c", probe, *LAZY_PACKAGES)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {name: [] for name in LAZY_PACKAGES}

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_exports_resolve_to_their_submodule_objects(self, name):
        pkg = importlib.import_module(name)
        lazy = [item for items in pkg._EXPORTS.values() for item in items]
        assert len(lazy) == len(set(lazy)), "a name is mapped twice"
        assert set(lazy) <= set(pkg.__all__), "lazy name missing from __all__"
        for module, items in pkg._EXPORTS.items():
            source = importlib.import_module(f"{name}.{module}")
            for item in items:
                assert getattr(pkg, item) is getattr(source, item), item
        for item in pkg.__all__:
            assert hasattr(pkg, item), item

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(importlib.import_module(name).__all__) <= set(namespace)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        pkg = importlib.import_module(name)
        with pytest.raises(AttributeError):
            pkg.no_such_export
        assert not hasattr(pkg, "__wrapped__")

    def test_submodules_stay_reachable_as_attributes(self):
        import repro.experiments

        assert repro.experiments.fig_6_18.__name__ == "repro.experiments.fig_6_18"
        assert repro.core.poly.__name__ == "repro.core.poly"
