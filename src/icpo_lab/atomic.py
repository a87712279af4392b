"""All-or-nothing writes for single-file artifacts.

`write_atomic` writes the bytes to a temporary file beside the target and
then renames it over the target with `os.replace`, so an interrupted or
failed write leaves the previous file (or none), never a partial one.  The
temporary file is opened like `Path.write_bytes` would open the target, so
permissions follow the umask as before.  It does not fsync: the guarantee
covers a process that dies or fails mid-write, not a power loss.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes | Sequence[bytes | memoryview]) -> None:
    """Replace `path` with `data` in one rename.  A str is UTF-8 encoded; a
    sequence of buffers, such as contiguous arrays, is written in order."""
    path = Path(path)
    data = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for buf in [data] if isinstance(data, bytes) else data:
                f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
