"""Dataset anonymization for release.

Measurement papers release datasets with pseudonymized account
identifiers.  :func:`anonymize_dataset` replaces author ids with keyed
HMAC-SHA256 digests: stable within one release (the same author maps to
the same pseudonym, preserving per-user analyses like Figure 3) but
unlinkable without the key, and unlinkable *across* releases that use
different keys.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from .store import Dataset, DatasetRecord


@dataclass(frozen=True)
class AnonymizationKey:
    """The secret key for one release; keep it out of the release."""

    key: bytes

    @classmethod
    def generate(cls) -> "AnonymizationKey":
        return cls(key=secrets.token_bytes(32))

    def pseudonym(self, author_id: str, length: int = 16) -> str:
        mac = hmac.new(self.key, author_id.encode("utf-8"),
                       hashlib.sha256)
        return mac.hexdigest()[:length]


def anonymize_record(record: DatasetRecord,
                     key: AnonymizationKey) -> DatasetRecord:
    """Replace the author id with its keyed pseudonym (None stays None)."""
    if record.author_id is None:
        return record
    return DatasetRecord(
        post_id=record.post_id,
        platform=record.platform,
        community=record.community,
        author_id=key.pseudonym(record.author_id),
        created_at=record.created_at,
        urls=record.urls,
    )


def anonymize_dataset(dataset: Dataset,
                      key: AnonymizationKey | None = None,
                      ) -> tuple[Dataset, AnonymizationKey]:
    """Return an anonymized copy of ``dataset`` and the key used.

    Per-author groupings survive (pseudonyms are stable under the key);
    nothing else changes.
    """
    key = key or AnonymizationKey.generate()
    return Dataset(anonymize_record(r, key) for r in dataset), key
