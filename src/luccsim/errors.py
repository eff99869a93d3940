"""Exception types shared across the package, and the one way input files are read."""

from __future__ import annotations

from typing import Optional


class LuccsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(LuccsimError):
    """Invalid scenario configuration, parameter table, or input file."""


class MetricUndefinedError(LuccsimError):
    """A goodness-of-fit statistic is undefined for the given series."""


def read_text(path: str, what: str, newline: Optional[str] = None) -> str:
    """The whole UTF-8 text of `path`; a ConfigurationError naming it as `what` if unreadable.

    `newline` is passed to `open`: None translates line endings to "\\n",
    "" keeps them for the csv module.
    """
    try:
        with open(path, newline=newline, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: not UTF-8 ({exc.reason})") from None
