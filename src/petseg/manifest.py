"""Reproducibility manifests written next to every CLI output.

A manifest records the tool version, subcommand, fully resolved
configuration, SHA-256 digests of the inputs, the PRNG seed and timing /
host information. Re-running a seeded command with the same configuration
reproduces outputs bit-for-bit; only the ``timings`` and ``host`` sections
are expected to differ between runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import secrets
from pathlib import Path

import numpy as np

from . import __version__, blas
from .errors import IoFailure

TOOL_NAME = "petseg"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot digest {path}: {exc}") from exc
    return h.hexdigest()


def atomic_write(path, payload: bytes) -> None:
    """Write ``payload`` to a new temporary sibling, then rename it over ``path``.

    The file gets the mode a plain ``open`` would give it. On failure the
    temporary file is removed, an existing ``path`` is left as it was, and
    ``OSError`` becomes ``IoFailure``."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_csv(path, rows) -> None:
    """Write ``rows`` as CSV (``\\r\\n`` line ends) with :func:`atomic_write`."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    atomic_write(path, text.getvalue().encode())


def manifest_path_for(target) -> Path:
    """Directory outputs get ``run_manifest.json`` inside; file outputs a
    sibling ``<name>.manifest.json``."""
    target = Path(target)
    if target.is_dir():
        return target / "run_manifest.json"
    return target.parent / (target.name + ".manifest.json")


def write_run_manifest(target, subcommand: str, config: dict, inputs=(),
                       timings: dict | None = None, extra: dict | None = None,
                       host: dict | None = None) -> Path:
    """Write the manifest of ``target``; its ``seed`` is ``config["seed"]``
    (None without one), and ``host`` adds entries to its host section."""
    doc = {
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "seed": config.get("seed"),
        "timings": timings or {},
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "blas_threads": blas.threads(),
            **(host or {}),
        },
    }
    if extra:
        doc["result"] = extra
    path = manifest_path_for(target)
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
    return path
