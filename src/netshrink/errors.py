"""Exception types shared across the package, the JSON reader that raises them,
and the atomic writer every artifact goes through."""

import json
import os
from pathlib import Path


class NetshrinkError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(NetshrinkError, ValueError):
    """An array has the wrong rank or extent; the message names the offending axis."""


class GridError(NetshrinkError, ValueError):
    """A width/kernel value is outside the layer's allowed grid, or the grid itself is invalid."""


class StateError(NetshrinkError, RuntimeError):
    """An operation was called in the wrong order (e.g. backward before forward)."""


class LookupMissError(NetshrinkError, KeyError):
    """A latency table has no entry for the requested (layer, M, k)."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class TableError(NetshrinkError, ValueError):
    """A latency table charges for a removed layer, or its latency falls as M or k grows."""


class FeasibilityError(NetshrinkError, RuntimeError):
    """No sample meeting the resource bound could be generated."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class InfeasibleTargetError(NetshrinkError, ValueError):
    """The search target cannot be met by any choice in the search space."""


class ConfigError(NetshrinkError, ValueError):
    """An experiment config is malformed; the message names the offending field."""


class ParseError(NetshrinkError, ValueError):
    """A binary/JSON artifact could not be parsed; the message includes the byte offset."""


def read_json(path: str | Path, what: str):
    """Parsed JSON of an artifact file; a ParseError names the path (and byte offset)."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{what} {path} is not valid JSON at offset {e.pos}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{what} {path} cannot be read: {e}") from None
    except RecursionError:
        raise ParseError(f"{what} {path} nests JSON arrays or objects too deeply") from None
    except ValueError as e:  # e.g. an integer literal too long to convert
        raise ParseError(f"{what} {path} cannot be parsed: {e}") from None


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data` in one step: a reader sees the old file or the new one.

    The data goes to a temp file in the same directory, which ``os.replace``
    then renames over `path`.  If either step fails the temp file is removed,
    so a crashed or failed write leaves the previous artifact's bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
