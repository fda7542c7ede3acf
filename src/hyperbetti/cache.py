"""Content-addressed result cache for the command-line front end.

A cached entry stores the exact output text of one command run, keyed by
the digest of the input object together with the operation name, the
complete flag assignment and a digest of the package's own source files.
The entry's first line is the SHA-256 of that text, and an entry whose
text no longer matches it is a miss.  Hits therefore replay
byte-identical payloads, and only ever payloads that the running code
itself would produce.
Files live under a single directory: the ``HYPERBETTI_CACHE_DIR``
environment variable overrides the default per-user location.  Every
cache failure is silent — the cache only ever saves time, never changes
an answer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path

ENV_VAR = "HYPERBETTI_CACHE_DIR"


def cache_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "hyperbetti"


@functools.cache
def code_digest() -> str:
    """Digest of the package's ``.py`` sources, read once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def cache_key(content_digest: str, operation: str, flags: dict) -> str:
    """Digest of (code digest, input digest, operation, flags); the file
    name of the entry.

    Flag values must be strings or ints so the serialization is canonical.
    """
    blob = json.dumps(
        {
            "code": code_digest(),
            "content": content_digest,
            "flags": flags,
            "operation": operation,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load(key: str) -> str | None:
    """The entry's payload, or None when the entry cannot be read, is not
    UTF-8 or does not match the digest stored with it: a miss, so the
    next store replaces it."""
    try:
        text = (cache_dir() / key).read_text("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    digest, _, payload = text.partition("\n")
    return payload if digest == _payload_digest(payload) else None


def store(key: str, payload: str) -> None:
    directory = cache_dir()
    tmp_name = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_payload_digest(payload) + "\n" + payload)
        os.replace(tmp_name, directory / key)
    except OSError:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
