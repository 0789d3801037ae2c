"""Atomic JSON file writes shared by the pipeline and the service.

Every run file (manifest, per-cell results, summary, checkpoints) and every
service state file goes through :func:`write_json_atomic`.  The payload is
encoded in one ``json.dumps`` call with compact separators and no indent, so
CPython's C encoder does the work; ``json.dump`` and any ``indent`` fall back
to the pure-Python encoder, which is several times slower per byte.  Files
are single-line JSON with sorted keys; ``python -m json.tool FILE`` prints
one readably.
"""

from __future__ import annotations

import json
import os


def write_json_atomic(path: str, payload: object) -> None:
    """Write ``payload`` to ``path`` as compact JSON, replacing it atomically.

    The text goes to ``path + ".tmp"`` first and is moved over ``path`` with
    ``os.replace``, so a crash mid-write leaves the old file intact.  The
    parent directory is created if missing.  Payloads are trees of fresh
    dicts and lists, so the encoder's cycle check is skipped (a quarter of
    the encode time on a 500-client checkpoint); a cyclic payload still
    fails, with ``RecursionError``, before any file is touched.
    """
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), check_circular=False
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_path, path)
