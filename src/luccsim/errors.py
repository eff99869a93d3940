"""Exception types shared across the package, and the one way input files are read."""

from __future__ import annotations

import csv
import io
import math
from typing import Iterator, Optional


class LuccsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(LuccsimError):
    """Invalid scenario configuration, parameter table, or input file."""


class MetricUndefinedError(LuccsimError):
    """A goodness-of-fit statistic is undefined for the given series."""


def read_text(path: str, what: str, newline: Optional[str] = None) -> str:
    """The whole UTF-8 text of `path`; a ConfigurationError naming it as `what` if unreadable.

    A leading byte-order mark is dropped. `newline` is passed to `open`:
    None translates line endings to "\\n", "" keeps them for the csv module.
    """
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: not UTF-8 ({exc.reason})") from None


def read_csv(path: str, what: str) -> Iterator[tuple[str, list[str]]]:
    """The header ([] if the file is empty) and then each non-blank row, each with its "path:line".

    Blank lines count. A row unlike the header in width, or a csv.Error such
    as a field over csv.field_size_limit(), is refused at its line when taken.
    """
    rows = csv.reader(io.StringIO(read_text(path, what, newline=""), newline=""))
    try:
        header = next(rows, [])
        yield f"{path}:{rows.line_num}", header
        for fields in filter(None, rows):  # a blank line has no fields
            where = f"{path}:{rows.line_num}"
            if len(fields) != len(header):
                extent = "more" if len(fields) > len(header) else "fewer"
                raise ConfigurationError(f"{where}: {extent} fields than the header")
            yield where, fields
    except csv.Error as exc:
        raise ConfigurationError(f"{path}:{rows.line_num}: {exc}") from None


def read_number(text: str, where: str) -> float:
    """The finite float that `text` spells; a ConfigurationError at `where` otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"{where}: {text!r} is not numeric") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{where}: {text!r} is not finite")
    return value
