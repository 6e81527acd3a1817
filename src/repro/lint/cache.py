"""Per-file result cache for warm lint runs.

The expensive part of a lint run is phase 1: parsing every file and
running the per-file rules plus the dimension inference that produces its
:class:`~repro.lint.project.summary.ModuleSummary`.  Both depend only on
the file's *content* and on the linter itself, so they are cached under
``.mapglint-cache/`` keyed by::

    sha256(ruleset_version || summary_schema || effect_schema || file bytes)

where ``ruleset_version`` is a hash over the source of the entire
``repro.lint`` package — editing any rule, the inference engine, or this
module invalidates every entry at once, with no manual version bump to
forget.  A warm run therefore deserializes findings and summaries straight
from disk and goes directly to phase 2 (the whole-program rules, which are
cheap) without parsing anything.

Entries store the findings of *all* file rules; ``--rules`` subsetting is
applied at read time so switching rule selections never misses the cache.
Writes are atomic (temp file + ``os.replace``) so concurrent lint runs
can share a cache directory safely; a corrupt or unreadable entry is
treated as a miss.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from typing import Dict, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.project.effects import EFFECT_SCHEMA
from repro.lint.project.summary import SUMMARY_SCHEMA, ModuleSummary

DEFAULT_CACHE_DIR = ".mapglint-cache"

_ruleset_version: Optional[str] = None


def ruleset_version() -> str:
    """Hash of the ``repro.lint`` package source (computed once per process)."""
    global _ruleset_version
    if _ruleset_version is None:
        import repro.lint

        package_dir = os.path.dirname(os.path.abspath(repro.lint.__file__))
        digest = hashlib.sha256()
        digest.update(f"schema={SUMMARY_SCHEMA};".encode("utf-8"))
        # The effect-summary schema is folded in separately: a change to
        # the phase-1 effect layout must orphan every cached summary even
        # if the package source hash were ever to collide.
        digest.update(f"effects={EFFECT_SCHEMA};".encode("utf-8"))
        for root, dirs, names in os.walk(package_dir):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                digest.update(os.path.relpath(full, package_dir).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
        _ruleset_version = digest.hexdigest()[:20]
    return _ruleset_version


class ResultCache:
    """Content-addressed store of per-file phase-1 results."""

    def __init__(self, cache_dir: str = DEFAULT_CACHE_DIR) -> None:
        self.cache_dir = cache_dir
        self.hits = 0
        self.misses = 0

    def key(self, source_bytes: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(ruleset_version().encode("utf-8"))
        digest.update(b";")
        digest.update(source_bytes)
        return digest.hexdigest()

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".pkl")

    def load(self, key: str  # mapglint: error-boundary
             ) -> Optional[Tuple[List[Finding], ModuleSummary]]:
        """Cached ``(findings, summary)`` for a key, or ``None`` on a miss."""
        try:
            with open(self._entry_path(key), "rb") as handle:
                entry = pickle.load(handle)
            findings = entry["findings"]
            summary = entry["summary"]
            if not isinstance(summary, ModuleSummary):
                raise TypeError("stale cache entry")
        except (OSError, pickle.PickleError, KeyError, TypeError,
                EOFError, AttributeError, ImportError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, summary

    def store(self, key: str, findings: List[Finding],
              summary: ModuleSummary) -> None:
        """Atomically persist one phase-1 result; failures are ignored.

        Concurrent lint invocations share the cache directory by design:
        entries are content-addressed, so when two runs race on one key,
        whichever ``os.replace`` lands last wins with identical bytes.
        The temp name carries pid *and* thread ident so no two writers
        can ever interleave into one temp file, and a temp file that
        vanishes before the replace (a concurrent cleaner, an unlinked
        tree) means some writer already published — a no-op, not an
        error.
        """
        entry_path = self._entry_path(key)
        tmp_path = (f"{entry_path}.{os.getpid()}."
                    f"{threading.get_ident()}.tmp")
        try:
            self._ensure_dir(os.path.dirname(entry_path))
            with open(tmp_path, "wb") as handle:
                pickle.dump({"findings": findings, "summary": summary},
                            handle, protocol=pickle.HIGHEST_PROTOCOL)
        except OSError:
            self._discard(tmp_path)
            return
        try:
            os.replace(tmp_path, entry_path)
        except FileNotFoundError:
            # The temp file vanished (concurrent cleaner, unlinked tree):
            # some writer already published the identical entry.
            self._discard(tmp_path)
        except OSError:
            self._discard(tmp_path)

    @staticmethod
    def _discard(tmp_path: str) -> None:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass

    def _ensure_dir(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        # Keep the cache out of version control even when the repo's own
        # .gitignore doesn't mention it (same trick pytest uses).
        marker = os.path.join(self.cache_dir, ".gitignore")
        if not os.path.exists(marker):
            try:
                with open(marker, "w", encoding="utf-8") as handle:
                    handle.write("*\n")
            except OSError:
                pass

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
