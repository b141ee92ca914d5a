"""Text-file reads and atomic writes for every reader and writer in the
package; a byte that is not UTF-8 reads as U+FFFD, which no parser accepts."""

import contextlib
import os

from .errors import DataFormatError


def read_text(path):
    """The text of path, decoded as every file the package reads is."""
    with open(path, "rb") as f:
        return f.read().decode("utf-8", errors="replace")


class TextLines(list):
    """The non-blank lines of a file, each stripped; offsets[i] is the byte
    offset where line i starts.  Lines end at \\n, \\r\\n or \\r."""

    def __init__(self, path):
        with open(path, "rb") as f:
            raw = f.read()
        self.path, self.size, self.offsets, offset = path, len(raw), [], 0
        for chunk in raw.splitlines(keepends=True):
            if text := chunk.decode("utf-8", errors="replace").strip():
                self.append(text)
                self.offsets.append(offset)
            offset += len(chunk)

    def error(self, i, message):
        """DataFormatError at line i's byte offset, or the file size past the last line."""
        return DataFormatError(f"{self.path}: {message}",
                               self.offsets[i] if i < len(self) else self.size)

    def take(self, i, label, parse=str):
        """parse of the rest of line i, whose first word must be label."""
        if i >= len(self):
            raise self.error(i, f"truncated before {label!r}")
        word, *rest = self[i].split(None, 1)
        if word != label:
            raise self.error(i, f"expected {label!r}, got {self[i]!r}")
        try:
            return parse("".join(rest))
        except ValueError:
            raise self.error(i, f"malformed {label!r} line {self[i]!r}") from None


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
