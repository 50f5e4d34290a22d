"""Shared test helpers."""


def from_digits(digits, p):
    """The natural with little-endian base-p digits ``digits``: halves
    joined as lo + p**len(lo) * hi, so long digit lists stay cheap."""
    if len(digits) <= 64:
        return sum(d * p**i for i, d in enumerate(digits))
    half = len(digits) // 2
    return from_digits(digits[:half], p) + p**half * from_digits(digits[half:], p)
