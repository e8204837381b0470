"""Exception types shared across the package, the JSON reader and field checks
every artifact loader uses, the atomic writer every artifact goes through, and
the one writer of each text format: indented JSON and tagged CSV."""

import json
import numbers
import os
import sys
from collections.abc import Iterable, Sequence
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


# Checks of the fields `read_json` returns: each returns the checked value or raises
# ParseError("{at}: must be ..., got ...").  No bool is a number and no float an int.

def json_object(value, at: str) -> dict:
    if type(value) is not dict:
        raise ParseError(f"{at}: must be a JSON object, got {type(value).__name__}")
    return value


def json_list(value, at: str) -> list:
    if type(value) is not list:
        raise ParseError(f"{at}: must be a list, got {type(value).__name__}")
    return value


def json_int(value, at: str, lo: int | None = None) -> int:
    if type(value) is not int or (lo is not None and value < lo):
        bound = "" if lo is None else f" >= {lo}"
        raise ParseError(f"{at}: must be an integer{bound}, got {value!r}")
    return value


def json_number(value, at: str, lo: float | None = None) -> float:
    """`value` as a float; an int beyond the float range fails like NaN and infinity."""
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not finite or (lo is not None and value < lo):
        bound = "" if lo is None else f" >= {lo}"
        raise ParseError(f"{at}: must be a finite number{bound}, got {value!r}")
    return float(value)


def json_key(key: str, at: str) -> int:
    """The integer an object key spells in canonical decimal form: '4' or '-1', not '04' or ' 4'."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ParseError(f"{at}: key must be an integer in canonical decimal form, got {key!r}")


def write_atomic(path: str | Path, data: str) -> None:
    """Replace `path` with `data` in one step: a reader sees the old file or the new one.

    The data goes to a temp file in the same directory, which ``os.replace``
    then renames over `path`.  If either step fails the temp file is removed,
    so a crashed or failed write leaves the previous artifact's bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write `obj` atomically as one-space-indented JSON, the format of every artifact but checkpoints."""
    write_atomic(path, json.dumps(obj, indent=1))


def _cell(value) -> str:
    if value is None:
        return ""
    # an integer (numpy's too) in decimal; any other number as a Python float, never np.float64(...)
    return str(int(value)) if isinstance(value, numbers.Integral) else repr(float(value))


def tagged_csv(tag: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: a `# tag` line, the header, then one line per row, each ending in a newline."""
    lines = [f"# {tag}", ",".join(header), *(",".join(map(_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"
