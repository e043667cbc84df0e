"""Exponential generating functions, stored as their egf coefficients.

A series truncated at t^T is the tuple of the T + 1 integers n! [t^n]; the
counting series in `gotzmann.counting` are built this way by integer
recurrences, so no rational arithmetic is needed.
"""


def egf_coefficient(s: tuple[int, ...], n: int) -> int:
    """n! times the t^n coefficient of a series stored as its egf coefficients."""
    return s[n]
