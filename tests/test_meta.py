"""Meta-integrity: documentation, benches, and API hygiene stay in sync.

These tests keep the repository honest as it grows: every experiment
DESIGN.md promises has a bench, every bench is promised, and every public
item in the library carries a docstring.
"""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).parent.parent
BENCH_DIR = ROOT / "benchmarks"


class TestDesignBenchConsistency:
    def design_targets(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        return set(re.findall(r"`benchmarks/(bench_\w+\.py)`", text))

    def bench_files(self):
        return {path.name for path in BENCH_DIR.glob("bench_*.py")}

    def test_every_promised_bench_exists(self):
        missing = self.design_targets() - self.bench_files()
        assert not missing, f"DESIGN.md promises missing benches: {missing}"

    def test_every_bench_is_promised(self):
        unlisted = self.bench_files() - self.design_targets()
        assert not unlisted, f"benches not indexed in DESIGN.md: {unlisted}"

    def test_every_bench_has_a_test_and_main(self):
        for path in sorted(BENCH_DIR.glob("bench_*.py")):
            text = path.read_text(encoding="utf-8")
            assert "def test_" in text, f"{path.name} has no pytest entry point"
            assert '__main__' in text, f"{path.name} not runnable standalone"
            assert "emit(" in text, f"{path.name} never archives its report"

    def test_experiments_md_covers_every_design_id(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        design_ids = set(re.findall(r"^\| (T\d+|F\d+) \|", design, re.M))
        ledger_ids = set(re.findall(r"^\| (T\d+|F\d+) \|", experiments, re.M))
        assert design_ids <= ledger_ids, \
            f"experiments missing from the ledger: {design_ids - ledger_ids}"


def public_members():
    """Yield (module, name, object) for every public item in repro."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != info.name:
                continue  # re-export; documented at its home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield info.name, name, obj


class TestDocstrings:
    def test_every_public_item_documented(self):
        undocumented = [
            f"{module}.{name}"
            for module, name, obj in public_members()
            if not inspect.getdoc(obj)
        ]
        assert not undocumented, \
            f"public items without docstrings: {undocumented}"

    def test_every_module_documented(self):
        undocumented = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            if not inspect.getdoc(module):
                undocumented.append(info.name)
        assert not undocumented, \
            f"modules without docstrings: {undocumented}"


class TestImportFootprint:
    def test_simulator_never_imports_numpy(self):
        # numpy costs every fresh process and every spawn worker ~150 ms
        # of import and ~12 MiB of RSS; the simulator needs none of it.
        script = (
            "import sys\n"
            "import repro, repro.exec, repro.sim.runner\n"
            "from repro.config import SystemConfig\n"
            "repro.sim.runner.run_workload(SystemConfig(), 'gcc_like', 500,\n"
            "                              seed=3, engine='fast')\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
