"""Lazy package exports and the import budget of the block path.

Every package ``__init__`` resolves its exports on first access
(:mod:`repro._lazy`), so a run loads only the modules it uses.  The
budget tests run fresh interpreters: in this process every module is
already loaded.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.barriers",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.flow",
    "repro.hybrid",
    "repro.ir",
    "repro.machine",
    "repro.metrics",
    "repro.obs",
    "repro.perf",
    "repro.synth",
    "repro.viz",
]

#: Packages the scheduling, lowering and simulation of a block never needs.
OFF_PATH = (
    "repro.experiments",
    "repro.faults",
    "repro.flow",
    "repro.hybrid",
    "repro.viz",
    "repro.analysis",
)

BLOCK = "a = x + y\nb = a * z\nc = b - x\nd = c % 7\ne = d + a\n"

#: Prints the loaded modules as JSON on the last stdout line.
REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def own_names(package: str) -> set[str]:
    """Names the ``__init__`` binds itself, outside its lazy table."""
    tree = ast.parse(Path(importlib.import_module(package).__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names - {"lazy_exports", "_EXPORTS", "__all__"}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter at the default settings.

    ``REPRO_*`` variables are dropped: a forced backend or kernel
    cross-checks would load numpy by design.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_modules(code: str, *args: str) -> list[str]:
    out = run_python(code + REPORT, *args).stdout
    return json.loads(out.strip().splitlines()[-1])


def off_path(modules: list[str], allowed: tuple[str, ...] = ()) -> list[str]:
    heavy = ("numpy", "networkx")
    return [
        m
        for m in modules
        if m not in allowed
        and (
            m.split(".")[0] in heavy
            or any(m == p or m.startswith(p + ".") for p in OFF_PATH)
        )
    ]


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "block.src"
    path.write_text(BLOCK)
    return str(path)


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_exports_resolve_to_their_defining_objects(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            module = pkg._EXPORTS.get(name)
            if module is not None:
                assert value is getattr(importlib.import_module(module), name), name

    def test_dir_lists_all(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(pkg, "no_such_export")

    def test_table_matches_all(self, package):
        pkg = importlib.import_module(package)
        own = own_names(package)
        assert not own & set(pkg._EXPORTS)
        assert set(pkg._EXPORTS) == set(pkg.__all__) - own


class TestPackageImports:
    def test_star_import_and_submodule_access(self):
        code = (
            "from repro import *\n"
            "from repro import kernels\n"
            "import repro\n"
            "from repro.core.scheduler import schedule_dag as direct\n"
            "assert repro.core.schedule_dag is direct is schedule_dag\n"
            "assert kernels is repro.kernels and callable(kernels.kernels_info)\n"
            "assert __version__ == repro.__version__\n"
        )
        run_python(code)

    def test_import_repro_loads_no_submodule(self):
        modules = loaded_modules("import repro\n")
        assert [m for m in modules if m.startswith("repro.")] == ["repro._lazy"]


class TestImportBudget:
    def test_block_path_loads_no_off_path_module(self):
        code = (
            "import repro, repro.core.scheduler, repro.machine.program\n"
            "import repro.machine.sbm, repro.machine.dbm\n"
            "from repro.core.scheduler import SchedulerConfig, schedule_dag\n"
            "from repro.ir import compile_source\n"
            "from repro.machine.program import MachineProgram\n"
            f"dag = compile_source({BLOCK!r})\n"
            "for machine in ('sbm', 'dbm'):\n"
            "    result = schedule_dag(dag, SchedulerConfig(n_pes=4, machine=machine))\n"
            "    program = MachineProgram.from_schedule(result.schedule)\n"
            "    simulate = getattr(repro.machine, 'simulate_' + machine)\n"
            "    simulate(program, rng=0).assert_sound(program.edges)\n"
        )
        assert off_path(loaded_modules(code)) == []

    def test_simulate_command_loads_only_the_gantt_view(self, block_file):
        code = "import sys\nfrom repro.cli import main\nmain(sys.argv[1:])\n"
        modules = loaded_modules(code, "simulate", block_file)
        assert off_path(modules, allowed=("repro.viz", "repro.viz.gantt")) == []

    @pytest.mark.parametrize("command", ["schedule", "simulate", "explain"])
    def test_block_commands_run_without_numpy(self, block_file, command):
        code = "import sys\nfrom repro.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        blocked = "import sys\nsys.modules['numpy'] = None\n" + code
        argv = (command, "--pes", "4", block_file)
        assert run_python(blocked, *argv).stdout == run_python(code, *argv).stdout
