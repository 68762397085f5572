"""The one root of every error that slitlogic raises on input it rejects."""

__all__ = ["SlitlogicError"]


class SlitlogicError(Exception):
    """Rejected input; the command line reports it, and only it, as exit 2."""
