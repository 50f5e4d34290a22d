"""Shared test helpers."""


def from_digits(digits, p):
    """The natural with little-endian base-p digits ``digits``."""
    return sum(d * p**i for i, d in enumerate(digits))
