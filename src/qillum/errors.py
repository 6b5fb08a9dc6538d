"""Exception types shared across the package."""

__all__ = ["QIError", "DomainError", "ParseError", "TruncationError"]


class QIError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QIError, ValueError):
    """An argument lies outside its physical or mathematical domain."""


class ParseError(QIError, ValueError):
    """A configuration document could not be parsed."""


class TruncationError(QIError):
    """A Fock-space cutoff leaves more tail mass than the tolerance allows."""
