"""Provenance recorded with every result: which code, which machine."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

from catalog import SCHEMA_VERSION


def _git(root: str, *args: str) -> str | None:
    # A checkout that is not a repository must not report its parent's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        done = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``fsync`` on tmpfs
    is a no-op, so a result has to say where its WAL lived)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def make(root: str, out_root: str, seed: int, seconds: float, smoke: bool) -> dict:
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "wal_root": os.path.relpath(out_root, root),
        "wal_filesystem": filesystem_of(out_root),
    }
