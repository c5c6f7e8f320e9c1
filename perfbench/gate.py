"""Correctness gate: table digests against committed references.

Every table a workload produces — serial, served, traced or not — is
digested as the bytes ``repro run`` prints (``table.render()``, which
the service's ``GET /jobs/<id>/table`` serves byte for byte) and
compared with the digest committed in ``reference.json``, computed by
``make_reference.py`` on a plain ``SerialRunner``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def table_digest(rendered: bytes | str) -> str:
    """BLAKE2b-128 hex digest of a rendered table's bytes."""
    if isinstance(rendered, str):
        rendered = rendered.encode("utf-8")
    return hashlib.blake2b(rendered, digest_size=16).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


class Gate:
    """Counts tables checked and tables that failed against references."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.checked = 0
        self.failures: list[str] = []

    def check(self, key: str, rendered: bytes | str | None, error=None):
        """Record one table; ``rendered=None`` means it raised."""
        self.checked += 1
        if rendered is None:
            self.failures.append(f"{key}: raised {error}")
            return False
        expected = self.reference.get(key)
        if expected is None:
            self.failures.append(f"{key}: no reference digest")
            return False
        if table_digest(rendered) != expected:
            self.failures.append(f"{key}: table differs from reference")
            return False
        return True
