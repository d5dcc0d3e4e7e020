"""Content-addressed on-disk cache of :class:`RunResult` payloads.

A cache entry is keyed by the SHA-256 of the canonical JSON of
``{schema, spec, code}`` where ``code`` is a fingerprint over the
source of the installed ``repro`` package.  Consequences:

* re-running an unchanged grid point is a hit;
* changing any spec field (shape, rounds, payload, seed, hops,
  extras) forces a recompute;
* editing any simulator source file invalidates the whole cache —
  stale physics can never be served.

Integrity is checked on *read*, not trusted from the filesystem: every
entry stores the SHA-256 of its canonical payload, and an entry whose
key, spec, or payload hash does not verify is treated as a miss,
counted, and deleted so the recompute overwrites it.  Writes are
atomic (same-directory temp file + ``os.replace``), so a crashed or
concurrent writer can never leave a half-written entry that a later
read would trust.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Optional

from repro.bench.results import canonical_json
from repro.runner.result import RunResult
from repro.runner.spec import ExperimentSpec

#: Bump on incompatible changes to the entry layout.
CACHE_SCHEMA = "repro-cache/1"

#: Default cache root; override per-call or with ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

_fingerprint_cache: dict[str, str] = {}


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def code_fingerprint(package_dir: Optional[str] = None) -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package
    (sorted relative paths + contents).  Memoized per directory: the
    tree is read once per process, not once per grid point."""
    if package_dir is None:
        import repro

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    cached = _fingerprint_cache.get(package_dir)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(package_dir)):
        dirs.sort()
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, package_dir)
            digest.update(rel.encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _fingerprint_cache[package_dir] = fingerprint
    return fingerprint


def _payload_sha256(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Per-:class:`ResultCache` counters (hits/misses/corrupt/writes)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
        }


class ResultCache:
    """Content-addressed store of run results under one directory."""

    def __init__(
        self,
        root: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = str(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()

    # -- addressing --------------------------------------------------------
    def key(self, spec: ExperimentSpec) -> str:
        doc = {
            "schema": CACHE_SCHEMA,
            "code": self.fingerprint,
            "spec": spec.to_dict(),
        }
        return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()

    def path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- read --------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on miss.

        A present-but-invalid entry (wrong key, payload hash mismatch,
        unparseable JSON, spec disagreement) is *corruption*: it is
        counted, deleted best-effort, and reported as a miss so the
        caller recomputes instead of serving poisoned data.
        """
        import json

        key = self.key(spec)
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            self._discard_corrupt(path)
            return None
        try:
            if doc.get("schema") != CACHE_SCHEMA or doc.get("key") != key:
                raise ValueError("entry schema/key mismatch")
            payload = doc["payload"]
            if _payload_sha256(payload) != doc.get("payload_sha256"):
                raise ValueError("payload hash mismatch")
            result = RunResult.from_dict(payload)
            if result.spec != spec:
                raise ValueError("entry spec does not match requested spec")
        except (KeyError, TypeError, ValueError):
            self._discard_corrupt(path)
            return None
        self.stats.hits += 1
        return result

    def _discard_corrupt(self, path: str) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            os.remove(path)
        except OSError:
            pass

    # -- write -------------------------------------------------------------
    def put(self, result: RunResult) -> str:
        """Write ``result`` atomically; returns the entry path."""
        key = self.key(result.spec)
        path = self.path(key)
        payload = result.to_dict()
        doc = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "payload": payload,
            "payload_sha256": _payload_sha256(payload),
        }
        atomic_write_json(path, doc)
        self.stats.writes += 1
        return path


def atomic_write_json(path: str, doc: dict) -> None:
    """Write JSON so readers see either nothing or the full document:
    temp file in the destination directory, fsync, ``os.replace``."""
    import json

    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".tmp.{os.getpid()}.{os.path.basename(path)}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        try:
            os.remove(tmp)
        except OSError:
            pass
