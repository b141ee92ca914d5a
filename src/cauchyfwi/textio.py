"""Atomic text-file writes, shared by every writer in the package."""

import contextlib
import os


def write_text_atomic(path, text):
    """Write text to path so that path never holds a half-written file.

    The text goes to ``<path>.<pid>.tmp`` beside the target, which is then
    renamed over path; if anything raises, the temporary file is deleted and
    path keeps what it held before.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
