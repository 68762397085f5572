"""The one root of every error that slitlogic raises on input it rejects."""

from math import log10

__all__ = ["SlitlogicError"]


class SlitlogicError(Exception):
    """Rejected input; the command line reports it, and only it, as exit 2."""


def _digits(n: int) -> int:
    # an n >= 1 of b bits has k or k + 1 digits, for k = floor(b * log10(2))
    k = int(n.bit_length() * log10(2))
    return k + (n >= 10**k)


def _shown(value) -> str:
    """How a message prints a rejected int or Fraction: ``str(value)``, or its
    digit count when it has more digits than the interpreter prints."""
    try:
        return str(value)
    except ValueError:
        digits = _digits(abs(value.numerator))
        if value.denominator > 1:
            digits += _digits(value.denominator)
        return f"a number of {digits} digits"
