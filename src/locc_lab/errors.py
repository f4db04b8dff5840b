"""Exception types raised across the package.

Every error carries a human-readable message; the CLI catches LoccLabError
and prints the message instead of a traceback.
"""


class LoccLabError(Exception):
    """Base class for all errors raised by this package."""


# numerics
class NotUnitary(LoccLabError):
    pass


class ClusterFailure(LoccLabError):
    pass


class DimensionMismatch(LoccLabError):
    pass


# states
class SpecInvalid(LoccLabError):
    pass


# measurements
class TooManyStates(LoccLabError):
    pass


class BadPriors(LoccLabError):
    pass


# oneway
class NotCoisometry(LoccLabError):
    pass


# protocols
class MalformedTree(LoccLabError):
    pass


class NotOrthogonal(LoccLabError):
    pass


class ChannelTooSmall(LoccLabError):
    pass


class DuplicateStates(LoccLabError):
    pass


class UnsupportedR(LoccLabError):
    pass
