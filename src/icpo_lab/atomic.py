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
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data` (str is UTF-8 encoded) in one rename."""
    path = Path(path)
    blob = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
