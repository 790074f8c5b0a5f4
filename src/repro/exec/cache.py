"""Content-addressed result cache for sweep cells.

A cell result is memoised under the SHA-256 of its *identity*: the
experiment id, the cell's config dict, its seed, and a hash of the
``repro`` package sources (the code version).  Any edit to the package
invalidates every cached cell, so the cache can never serve results
produced by different model code; tweaking one config only recomputes
the cells that use it.

Entries are one JSON file per key in a flat directory (default
``results/cache/``), written atomically so a crashed run never leaves
a truncated entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["ResultCache", "cell_key", "code_version"]

_CODE_VERSION: str | None = None


def _jsonable(obj: Any) -> Any:
    """Convert numpy scalars/arrays (and containers) to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return _jsonable(obj.tolist())
    if hasattr(obj, "item") and type(obj).__module__ == "numpy":
        return obj.item()
    return obj


def code_version() -> str:
    """SHA-256 over the ``repro`` package sources (cached per process).

    Hashes every ``.py`` file under the installed package in sorted
    path order, so any source edit — including to this module — yields
    a different version and invalidates prior cache entries.
    """
    global _CODE_VERSION
    if _CODE_VERSION is not None:
        return _CODE_VERSION
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def cell_key(
    experiment: str,
    config: dict,
    seed: int,
    version: str,
) -> str:
    """Deterministic cache key for one sweep cell."""
    identity = {
        "experiment": experiment,
        "config": _jsonable(config),
        "seed": seed,
        "code_version": version,
    }
    return hashlib.sha256(
        json.dumps(identity, sort_keys=True,
                   separators=(",", ":")).encode()
    ).hexdigest()


class ResultCache:
    """On-disk memo of completed sweep cells."""

    def __init__(self, root: str | os.PathLike = "results/cache") -> None:
        self.root = Path(root)

    def has(self, key: str) -> bool:
        """True when a readable entry exists for ``key``."""
        return (self.root / f"{key}.json").is_file()

    def get(self, key: str) -> dict | None:
        """The cached payload for ``key``, or ``None``."""
        path = self.root / f"{key}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return entry.get("payload")

    def put(
        self,
        key: str,
        payload: dict,
        *,
        experiment: str = "",
        config: dict | None = None,
        seed: int = 0,
    ) -> None:
        """Store ``payload`` under ``key`` (atomic rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "experiment": experiment,
            "config": _jsonable(config or {}),
            "seed": seed,
            "code_version": code_version(),
            "payload": _jsonable(payload),
        }
        path = self.root / f"{key}.json"
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed
