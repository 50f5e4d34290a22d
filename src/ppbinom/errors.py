"""Exception types shared across the package."""


def describe_int(n: int) -> str:
    """Render a value for an error message; huge numbers abbreviate to
    their scale so messages never trip the int-to-str conversion limit."""
    if -(10**24) < n < 10**24:
        return str(n)
    return f"~10^{int(n.bit_length() * 0.30103)}"


class EmptyInput(ValueError):
    """An empty string or sequence was given where content is required."""


class InvalidDigit(ValueError):
    """A character in a number string is not a valid digit for the radix."""


class NotPrime(ValueError):
    """The base fails the primality check, or is too large to certify."""


class OrderViolation(ValueError):
    """A pair (a, b) with a < b was given where a >= b is required."""


def _check_pair(a: int, b: int) -> None:
    """Raise unless a >= b >= 0."""
    if a < 0 or b < 0:
        raise ValueError("naturals are nonnegative")
    if a < b:
        raise OrderViolation(
            f"need a >= b, got a={describe_int(a)} < b={describe_int(b)}"
        )


class EmptyBlock(ValueError):
    """A zero-width pseudo-digit block was requested."""


class NegativeValuation(ArithmeticError):
    """A quotient came out with more p-content below the line than above."""


class TooLarge(ValueError):
    """An exact computation would exceed its configured size guard."""
