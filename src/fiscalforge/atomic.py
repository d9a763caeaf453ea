"""Atomic artifact writes: a crash or an error never leaves a torn file.

atomic_open writes to a temporary file beside the target, in the same
directory and so on the same file system, and os.replace()s it into
place only when the write finished without error. Until then the
target keeps its old bytes; on an error the temporary file is removed.

The three text formats of the run's artifacts are written here and
nowhere else: write_json, write_jsonl and write_csv. JSON keys are
sorted; a CSV cell is a Python number written as its repr, the
shortest decimal that reads back as the same value.
"""

import json
import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "write_json", "write_jsonl", "write_csv"]


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


def write_json(path: str | Path, obj) -> None:
    """obj as one sorted-key JSON document indented by 2, with a final newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: str | Path, rows) -> None:
    """One sorted-key JSON line per row."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(path: str | Path, header, rows) -> None:
    """A header line of names, then one line per row of Python numbers."""
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
