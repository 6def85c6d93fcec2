"""Incremental findings cache for the static pass.

Real analyzers are run on every save; the protocol and dataflow passes
are whole-program and therefore super-linear in tree size, so re-running
them on an unchanged tree has to be near-free.  Every finding is a
whole-program result, so the cache holds one findings list keyed by the
**tree hash**: a digest of every file's path and SHA-256 content hash
plus the rule-set version (:data:`repro.check.findings.RULESET_VERSION`,
a content hash of the rule catalog, so changing the catalog invalidates
stale entries with no manual bump).  When every file's hash is
unchanged, :meth:`CheckCache.lookup_tree` returns the complete cached
result without parsing a single module, which is what makes the warm
re-run an order of magnitude cheaper than the cold one (the acceptance
bar in ``BENCH_check.json``); any edit re-runs the whole pass.

The cache is one JSON file at the ``--cache PATH`` the caller names; a
version bump in :data:`CACHE_VERSION` invalidates old caches wholesale.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.check.findings import RULESET_VERSION, Finding

__all__ = ["CheckCache", "CACHE_VERSION"]

CACHE_VERSION = 3


class CheckCache:
    """Findings cache keyed by a hash over the whole analyzed tree."""

    def __init__(self, cache_path: str):
        self.cache_path = cache_path
        self._data = self._load()

    def _load(self) -> dict:
        try:
            with open(self.cache_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            return {}
        return data

    @staticmethod
    def tree_sha(shas: dict[str, str]) -> str:
        """One digest over every (path, sha) pair plus the rule set."""
        digest = hashlib.sha256()
        digest.update(f"rules:{RULESET_VERSION}".encode())
        for path in sorted(shas):
            digest.update(path.encode())
            digest.update(shas[path].encode())
        return digest.hexdigest()

    def lookup_tree(self, shas: dict[str, str]) -> list[Finding] | None:
        """The cached findings when *nothing* changed, else ``None``."""
        if self._data.get("tree_sha") != self.tree_sha(shas):
            return None
        return [Finding(**item) for item in self._data.get("findings", [])]

    def store(self, shas: dict[str, str], findings: list[Finding]) -> None:
        """Persist this run's findings keyed by the tree hash.

        Written atomically (tempfile + ``os.replace``); I/O failures are
        swallowed — the cache is an accelerator, never a correctness
        dependency.
        """
        self._data = {
            "version": CACHE_VERSION,
            "tree_sha": self.tree_sha(shas),
            "findings": [finding.as_dict() for finding in findings],
        }
        tmp = self.cache_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self._data, handle)
            os.replace(tmp, self.cache_path)
        except OSError:  # pragma: no cover - read-only tree; cache is best-effort
            try:
                os.unlink(tmp)
            except OSError:
                pass
