"""Exception hierarchy shared by the whole toolkit."""

from __future__ import annotations


class AociError(Exception):
    """Base class for every error raised by this package."""


class InvalidPath(AociError):
    """A path argument is empty or normalizes to nothing."""


class InvariantError(AociError):
    """A domain value violates one of its construction invariants."""


class TagError(AociError):
    """Base class for tag codec failures."""


class MalformedTag(TagError):
    """A code tag has no importance digit, or more than one."""


class InvalidImportance(TagError):
    """The importance digit is not one of the dictionary's allowed levels."""


class UnknownCode(TagError):
    """Part of a tag does not match any code in its dimension.

    ``dimension`` names the dictionary dimension that failed to match and
    ``text`` is the offending substring.
    """

    def __init__(self, dimension: str, text: str, message: str | None = None):
        self.dimension = dimension
        self.text = text
        super().__init__(message or f"no {dimension} code matches {text!r}")


class AmbiguousTag(TagError):
    """A tag's features split into codes more than one way."""


class MalformedTableTag(TagError):
    """A table tag does not have exactly four dash-separated parts."""


class ConfigError(AociError):
    """A rules file, glob pattern, or runtime option is invalid."""


class PlanMismatch(AociError):
    """A draft was supplied for a path the update plan does not regenerate."""
