"""Atomic artifact writes: a crash or an error never leaves a torn file.

atomic_open writes to a temporary file beside the target, in the same
directory and so on the same file system, and os.replace()s it into
place only when the write finished without error. Until then the
target keeps its old bytes; on an error the temporary file is removed.
"""

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open a temporary file for writing ("w" for UTF-8 text, "wb"); replace path on success."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
