"""What a process imports: the ``repro serve`` boot and the lazy packages.

A boot compiles and executes every module it imports, so ``repro serve``
must import only the layers that serve (``docs/ARCHITECTURE.md``, "What
``repro serve`` imports").  ``repro``, ``repro.sim``, ``repro.machines``
and ``repro.tasks`` are lazy namespaces (:mod:`repro._lazy`): their
public names load on first use and behave as if imported eagerly.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Module trees ``repro serve`` never runs (with default flags).
NOT_SERVED = (
    "repro.analysis",
    "repro.adversary",
    "repro.workloads",
    "repro.verify",
    "repro.scenarios",
    "repro.faults",
    "repro.sched",
    "repro.sim.audit",
    "repro.sim.parallel",
    "repro.sim.closedloop",
    "repro.sim.queueing",
    "repro.sim.runner",
    "repro.machines.visualize",
    "repro.machines.fragmentation",
    "repro.machines.subcube",
    "repro.tasks.builder",
    "repro.tasks.transforms",
)

LAZY_PACKAGES = ("repro", "repro.sim", "repro.machines", "repro.tasks")


def _python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], input=b"", capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def _serve_imports(tmp_path, *flags: str) -> set[str]:
    """Every module a ``python -m repro serve`` boot imports, read from
    ``-X importtime`` (one stderr line per module executed)."""
    proc = _python(
        "-X", "importtime", "-m", "repro", "serve",
        "--journal", str(tmp_path / "boot.journal"), *flags,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


def _unserved(modules: set[str]) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == tree or m.startswith(tree + ".") for tree in NOT_SERVED)
    )


class TestServeBoot:
    def test_serve_imports_only_the_serving_layers(self, tmp_path):
        modules = _serve_imports(tmp_path)
        assert "repro.service.session" in modules  # the scan saw the boot
        assert _unserved(modules) == []

    def test_faults_flag_still_loads_fault_handling(self, tmp_path):
        modules = _serve_imports(tmp_path, "--faults")
        assert "repro.faults" in modules

    def test_building_the_parser_imports_no_workload_module(self):
        proc = _python("-c", (
            "import json, sys, repro.cli; repro.cli.build_parser(); "
            "print(json.dumps(sorted(sys.modules)))"
        ))
        loaded = json.loads(proc.stdout)
        assert not [m for m in loaded if m.startswith("repro.workloads")]


class TestLazyNamespaces:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_public_name_is_its_submodule_object(self, name):
        package = importlib.import_module(name)
        defined = {}
        for info in pkgutil.walk_packages(package.__path__, name + "."):
            module = importlib.import_module(info.name)
            for attr, value in vars(module).items():
                defined.setdefault(attr, []).append(value)
        for attr in package.__all__:
            if attr == "__version__":
                continue
            value = getattr(package, attr)
            assert any(value is v for v in defined.get(attr, ())), attr

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_dir_lists_every_public_name(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_star_import_binds_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert {a: namespace[a] for a in package.__all__} == {
            a: getattr(package, a) for a in package.__all__
        }

    def test_cold_packages_load_on_first_use(self):
        """In a fresh interpreter: ``import repro`` loads no submodule,
        a public name loads its module, and ``from package import
        submodule`` still yields the submodule."""
        proc = _python("-c", """if True:
            import json, sys
            import repro
            cold = sorted(m for m in sys.modules if m.startswith("repro"))
            from repro import TreeMachine
            from repro.sim import frames
            from repro.machines import tree
            print(json.dumps({
                "cold": cold,
                "tree": TreeMachine is tree.TreeMachine,
                "frames": frames is sys.modules["repro.sim.frames"],
                "run": repro.run is sys.modules["repro.sim.runner"].run,
            }))
        """)
        seen = json.loads(proc.stdout)
        assert seen == {
            "cold": ["repro", "repro._lazy"],
            "tree": True, "frames": True, "run": True,
        }
