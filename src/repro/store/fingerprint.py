"""Stable content fingerprints for the persistent utility store.

The store is *content-addressed*: an entry's key is derived from everything
that determines the trained utility — the task specification (dataset, FL
configuration, model family, scale, seed) and the coalition itself.  Python's
builtin ``hash()`` is salted per process, and ``repr()`` of nested structures
is not guaranteed stable, so fingerprints are computed as the SHA-256 of a
*canonical JSON* rendering: keys sorted, no whitespace variation, only JSON
scalar/container types allowed.  Two processes (today's run and next month's
resume) therefore always agree on the key of the same (task, coalition) pair.

A ``schema`` field is part of every fingerprint payload so that a future
change to what the fingerprint covers invalidates old entries instead of
silently aliasing them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Iterable

#: bump when the fingerprint payload layout changes incompatibly
FINGERPRINT_SCHEMA_VERSION = 1

#: hex digits kept from the SHA-256 digest (128 bits — collision-safe)
FINGERPRINT_LENGTH = 32


def canonicalize(value: Any) -> Any:
    """Reduce a value to deterministic JSON-encodable form.

    Dataclasses become dicts, sets/frozensets become sorted lists, tuples
    become lists, NumPy scalars become their Python equivalents.  Anything
    else that is not a JSON scalar is rejected loudly — a silently unstable
    fingerprint (e.g. of a lambda's ``repr``) would corrupt the store.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonicalize(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(canonicalize(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    # NumPy integer/floating scalars expose item(); avoid importing numpy here.
    item = getattr(value, "item", None)
    if callable(item):
        return canonicalize(item())
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting; "
        "use JSON-compatible values (numbers, strings, lists, dicts, dataclasses)"
    )


def canonical_json(payload: Any) -> str:
    """Render a payload as canonical JSON (sorted keys, compact separators)."""
    return json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def fingerprint(payload: Any) -> str:
    """SHA-256 fingerprint (first :data:`FINGERPRINT_LENGTH` hex chars)."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_LENGTH]


#: coalitions with more members than this use a fixed-width hashed token —
#: a plain member list for a 500-client grand coalition is ~1.9 kB *per key*,
#: a hashed token is 67 bytes regardless of coalition size
HASHED_KEY_THRESHOLD = 16

#: version tag prefixing hashed coalition tokens.  The tag namespaces hashed
#: tokens away from plain ones (a plain token is digits and commas, so it can
#: never read ``h1:...``) — existing small-n store entries stay valid, and a
#: future change to the hashing scheme bumps the tag instead of aliasing.
HASHED_KEY_TAG = "h1"


def coalition_token(coalition: Iterable[int]) -> str:
    """Canonical text form of a coalition.

    Small coalitions (at most :data:`HASHED_KEY_THRESHOLD` members) stay a
    sorted, comma-joined member list — readable in store dumps and identical
    to the pre-hashing format, so existing stores keep resolving.  Larger
    member sets become ``h1:<sha256 hex>`` of that same member list: fixed
    64-hex-character width however large the coalition, with the full
    256-bit digest kept (collision probability is negligible at any
    conceivable store size).
    """
    members = sorted(map(int, coalition))
    plain = ",".join(map(str, members))
    if len(members) <= HASHED_KEY_THRESHOLD:
        return plain
    digest = hashlib.sha256(plain.encode("ascii")).hexdigest()
    return f"{HASHED_KEY_TAG}:{digest}"


def utility_key(namespace: str, coalition: Iterable[int]) -> str:
    """Store key of one coalition's utility under a task-fingerprint namespace.

    The namespace (a task fingerprint from
    :func:`repro.experiments.tasks.task_fingerprint`) identifies everything
    *except* the coalition; the member list stays readable so store dumps can
    be inspected by eye — unless the coalition is large, in which case the
    token is the fixed-width hash described at :func:`coalition_token`.
    """
    return key_prefix(namespace) + coalition_token(coalition)


def key_prefix(namespace: str) -> str:
    """The ``<namespace>:`` prefix of every :func:`utility_key` in ``namespace``."""
    if ":" in namespace:
        raise ValueError(f"namespace must not contain ':', got {namespace!r}")
    return f"{namespace}:"


def key_namespace(key: str) -> str:
    """Extract the namespace part of a :func:`utility_key`-formatted key."""
    return key.split(":", 1)[0]
