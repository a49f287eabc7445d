"""Directory durability helpers shared by the repository's durable stores.

fsync on a file persists its data, not the directory entry naming it;
until the parent directory is synced, a power loss can drop a freshly
created or renamed file (or directory) outright (Pillai et al., "All File
Systems Are Not Created Equal", OSDI'14).
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["fsync_dir", "make_dirs"]


def fsync_dir(path: Path) -> None:
    """Make a directory's entries durable (a new or renamed file's name)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_dirs(path: Path) -> None:
    """``mkdir -p`` whose new directories survive a power loss.

    Each directory this call creates is synced into its parent, top
    down; directories that already existed are left alone.
    """
    created = []
    missing = path
    while not missing.exists():
        created.append(missing)
        missing = missing.parent
    path.mkdir(parents=True, exist_ok=True)
    for directory in reversed(created):
        fsync_dir(directory.parent)
