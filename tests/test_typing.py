"""Static type checking of the strict-listed modules.

The ``py.typed`` marker ships with the package, so the annotations are a
public API; this test makes them load-bearing.  ``pyproject.toml``'s
``[tool.mypy]`` section lists the modules that must pass ``mypy --strict``
(the list is meant to grow).  The test skips when mypy is not installed
(the offline dev container); CI installs mypy and runs it both here and as
a dedicated workflow step.
"""

from pathlib import Path

import pytest

mypy_api = pytest.importorskip("mypy.api")

REPO_ROOT = Path(__file__).parent.parent


def test_strict_modules_pass_mypy():
    # No file arguments: mypy picks up `files` from [tool.mypy].
    stdout, stderr, exit_code = mypy_api.run(
        ["--config-file", str(REPO_ROOT / "pyproject.toml")])
    assert exit_code == 0, f"mypy --strict failed:\n{stdout}\n{stderr}"


def test_strict_list_covers_config_and_events():
    """The strict list must keep growing, never shrink.

    ``repro.config`` and ``repro.events`` were promoted alongside the
    whole-program linter (``repro.config``'s field names are what CFG01
    reasons about); this guards against them silently dropping back out
    of the list.
    """
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for module_path in ("src/repro/config.py", "src/repro/events.py"):
        assert module_path in pyproject, \
            f"{module_path} missing from [tool.mypy] files"
