"""Simulation-source digest: the code half of every result-cache key.

A cached :class:`~repro.sim.results.SimulationResult` is only valid while
the code that produced it is unchanged, so every cache key embeds a hash
over the source of the whole ``repro`` package (the lint tree excluded —
it cannot influence simulation output).  Editing any model file
invalidates every entry at once, with no manual version bump to forget.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

#: Serialization-format tag mixed into the digest: bumping it orphans every
#: cache entry even when no source file changed (e.g. a result-schema edit).
RESULT_SCHEMA = "mapg.sim-result/1"

# Subpackages of repro that cannot influence a SimulationResult and would
# only cause spurious invalidations.
_EXCLUDED_DIRS = ("lint", "__pycache__")

_simulation_version: Optional[str] = None  # mapglint: declared-cache


def digest_tree(root: str, excluded: "tuple[str, ...]" = _EXCLUDED_DIRS) -> str:
    """sha256 over every ``.py`` file under ``root``, path-and-content.

    Files are visited in sorted relative-path order so the digest is
    independent of filesystem enumeration order; ``excluded`` directory
    names are pruned wherever they appear.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={RESULT_SCHEMA};".encode("utf-8"))
    for current, dirs, names in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in excluded)
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            full = os.path.join(current, name)
            digest.update(os.path.relpath(full, root).encode("utf-8"))
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def simulation_version() -> str:
    """Digest of the simulation package sources (computed once per process)."""
    global _simulation_version
    if _simulation_version is None:
        import repro

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        _simulation_version = digest_tree(package_dir)[:20]
    return _simulation_version
