"""Checks that stay on under ``python -O``."""


class VerificationError(AssertionError):
    """A constructed object failed a guarantee its construction promises."""


def require(cond, msg):
    """Raise VerificationError(msg) unless cond holds; -O does not strip it."""
    if not cond:
        raise VerificationError(msg)
