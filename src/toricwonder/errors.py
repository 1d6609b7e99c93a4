"""Exception hierarchy for the whole package."""


class ToricError(Exception):
    """Base class for all domain errors."""


class ZeroVector(ToricError):
    pass


class NotPrimitive(ToricError):
    pass


class NotContained(ToricError):
    pass


class NotSaturated(ToricError):
    pass


class InfiniteIndex(ToricError):
    pass


class EmptySubset(ToricError):
    pass


class NotAPoint(ToricError):
    pass


class NotComplete(ToricError):
    pass


class InvalidPartition(ToricError):
    pass


class InvalidBuildingSet(ToricError):
    pass


class NotInPoset(ToricError):
    pass


class NotInBuildingSet(ToricError):
    pass


class NotNested(ToricError):
    pass


class IsMinimal(ToricError):
    pass


class OutsideDomain(ToricError):
    pass


class NotUnimodular(ToricError):
    """An integer matrix has no integer inverse."""


class NotAdapted(ToricError):
    """An explicit chart basis is not adapted to its nested set."""


class NotExpandable(ToricError):
    """A character has no unit-function expansion in a chart."""


class OnDivisor(ToricError):
    pass


class NotInOverlap(ToricError):
    pass


class InvalidGerm(ToricError):
    pass


class ParseError(ToricError):
    pass
