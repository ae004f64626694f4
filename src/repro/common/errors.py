"""Exception hierarchy for the repro package.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class; configuration mistakes additionally derive from
``ValueError`` because they are programming errors at construction time.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TraceFormatError",
    "AddressRangeError",
    "UnknownWorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid simulator or structure configuration."""


class TraceFormatError(ReproError):
    """A trace file or stream could not be decoded."""


class AddressRangeError(TraceFormatError, ValueError):
    """A reference address outside the range its consumer can hold.

    Traces hold addresses in ``[0, 2**64)``; the numpy kernels, which
    compute over int64 views, hold ``[0, 2**63)``.
    """


class UnknownWorkloadError(ReproError, KeyError):
    """A workload name was not found in the registry."""
