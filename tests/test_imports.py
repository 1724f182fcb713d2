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
import signal
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

#: What only an event loop loads: ``repro serve`` runs none.
EVENT_LOOP = ("asyncio", "ssl", "_ssl", "concurrent.futures")

#: A few events and a control read, for boots that serve.
EVENTS = (
    json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 2}),
    json.dumps({"kind": "arrival", "time": 1.0, "id": 1, "size": 1}),
    json.dumps({"kind": "departure", "time": 2.0, "id": 0}),
    json.dumps({"op": "status"}),
)

LAZY_PACKAGES = ("repro", "repro.sim", "repro.machines", "repro.tasks")


def _python(*args: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def _serve_command(tmp_path, *flags: str) -> list[str]:
    return [
        "-X", "importtime", "-m", "repro", "serve",
        "--journal", str(tmp_path / "boot.journal"), *flags,
    ]


def _imported(stderr: bytes) -> set[str]:
    """The modules ``-X importtime`` reports (one stderr line each)."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.decode().splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


def _serve_imports(tmp_path, *flags: str, lines: tuple[str, ...] = ()) -> set[str]:
    """Every module a ``python -m repro serve`` boot on stdin imports
    while it serves ``lines``."""
    stdin = "".join(line + "\n" for line in lines).encode()
    return _imported(_python(*_serve_command(tmp_path, *flags), stdin=stdin).stderr)


def _listen_imports(tmp_path) -> set[str]:
    """Every module a ``repro serve --listen`` boot imports, stopped by
    SIGTERM once it listens."""
    proc = subprocess.Popen(
        [sys.executable, *_serve_command(tmp_path, "--listen", "127.0.0.1:0")],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        stderr = []
        while not stderr or not stderr[-1].startswith(b"listening on"):
            stderr.append(proc.stderr.readline())
            assert stderr[-1], b"".join(stderr).decode()
        proc.send_signal(signal.SIGTERM)
        stderr.append(proc.communicate(timeout=60)[1])
        assert proc.returncode == 0, b"".join(stderr).decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return _imported(b"".join(stderr))


def _within(modules: set[str], trees) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == tree or m.startswith(tree + ".") for tree in trees)
    )


class TestServeBoot:
    def test_serve_imports_only_the_serving_layers(self, tmp_path):
        modules = _serve_imports(tmp_path)
        assert "repro.service.session" in modules  # the scan saw the boot
        assert _within(modules, NOT_SERVED) == []

    def test_stdin_boot_loads_no_event_loop(self, tmp_path):
        modules = _serve_imports(tmp_path, lines=EVENTS)
        assert "repro.service.shard.server" in modules
        assert _within(modules, EVENT_LOOP) == []

    def test_socket_boot_loads_no_event_loop(self, tmp_path):
        modules = _listen_imports(tmp_path)
        assert "repro.service.shard.server" in modules
        assert _within(modules, EVENT_LOOP) == []

    @pytest.mark.parametrize(
        "algorithm, draws", [("greedy", False), ("periodic", False), ("twochoice", True)]
    )
    def test_only_an_algorithm_that_draws_loads_numpy_random(
        self, tmp_path, algorithm, draws
    ):
        """``twochoice`` is the positive control: it takes an RNG, so
        its boot must still load one."""
        modules = _serve_imports(tmp_path, "--algorithm", algorithm, lines=EVENTS)
        assert "repro.service.session" in modules
        assert ("numpy.random" in modules) == draws

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
