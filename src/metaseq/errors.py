"""Exception hierarchy shared by all metaseq modules.

Each class carries the CLI exit code it maps to: 2 usage, 3 data/format,
4 numeric failure. Subclasses inherit the code of their parent.
``open_text`` opens every text input, so a byte sequence that is not
UTF-8 is a ``ParseError`` too.
"""

import io
import sys
from contextlib import contextmanager


class MetaseqError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class DimensionError(MetaseqError):
    """Array shapes are incompatible for the requested operation."""


class WindowError(MetaseqError):
    """Convolution window does not fit the (padded) sequence."""


class ParameterError(MetaseqError):
    """A configuration value or argument is outside its legal range."""

    exit_code = 2


class StateError(MetaseqError):
    """An object is not in the state the operation requires."""


class ContractError(MetaseqError):
    """A caller-side precondition was violated."""


class LabelError(MetaseqError):
    """A class label lies outside the expected range."""


class NumericError(MetaseqError):
    """A numeric routine failed or produced non-finite values."""

    exit_code = 4


class ParseError(MetaseqError):
    """A text input file is malformed."""


class FormatError(MetaseqError):
    """A binary file does not match its declared format."""


class TruncatedError(FormatError):
    """A binary file ended before its declared payload was complete."""


class AlignmentError(MetaseqError):
    """Embedding rows and dataset tokens do not line up."""


class CompatibilityError(MetaseqError):
    """A stored artifact does not match the configuration in use."""


class InputError(MetaseqError):
    """An input collection is empty or otherwise unusable."""


class DegeneracyError(MetaseqError):
    """The input is degenerate (zero variance, rank zero, empty)."""

    exit_code = 4


class _Capped(io.RawIOBase):
    """At most the next ``limit`` bytes of an unbuffered binary file, all
    of them when ``limit`` is None, as a raw stream."""

    def __init__(self, file, limit: int | None):
        super().__init__()
        self._file = file
        self._left = sys.maxsize if limit is None else limit

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= count
        return count


@contextmanager
def open_text(path, start: int = 0, stop: int | None = None):
    """Bytes ``[start, stop)`` of ``path`` (all of it by default) opened for
    reading as UTF-8 text; a decoding failure while the block reads it is a
    ParseError naming the file. Both ends must fall between lines. The text
    is decoded 8 KiB at a time as ``open`` would, so a range that starts at
    0 reads like the whole file up to ``stop``."""
    try:
        with open(path, "rb", buffering=0) as file:
            if start:
                file.seek(start)
            limit = None if stop is None else stop - start
            with io.TextIOWrapper(io.BufferedReader(_Capped(file, limit)),
                                  encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None
