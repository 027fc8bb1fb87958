"""Finite-blocklength achievability bounds and error exponents for
point-to-point and multiple-access channels, with LDPC code ensembles."""

__version__ = "0.1.0"


class GuardError(ValueError):
    """An exhaustive computation would exceed its size guard; the command
    line exits with code 3."""
