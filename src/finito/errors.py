"""Exception and warning types shared across the package."""


class FinitoError(Exception):
    """Base class for errors raised by this package."""


class EmptyError(FinitoError):
    """The empty space is rejected everywhere."""


class CycleError(FinitoError):
    """A cover relation contains a directed cycle."""


class ParseError(FinitoError):
    """Malformed poset or map text; carries the 1-based line number, or
    None when the fault lies in no single line."""

    def __init__(self, line, message):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DuplicateCoverError(UserWarning):
    """A cover pair was declared twice; duplicates are dropped."""


class NotConnectedError(FinitoError):
    """Operation requires a connected space."""


class NotContinuousError(FinitoError):
    """A map between finite spaces is not order preserving."""

    def __init__(self, x, y, fx, fy):
        super().__init__(
            f"not order preserving: {x} <= {y} but image pair ({fx}, {fy}) is unrelated"
        )
        self.pair = (x, y)


class IllFormedMoveError(FinitoError):
    """A loop rewriting move does not satisfy its side conditions."""


class IllFormedPathError(FinitoError):
    """A point sequence is not a path along cover edges."""


class CapExceededError(FinitoError):
    """A request exceeds a fixed size limit: more than 10 points to
    enumerate, more than 20 circles in a wedge scan, or more chains than
    ``order_complex`` lists."""


class FlattenBlockedError(FinitoError):
    """Height-two flattening is blocked by a non-extremal basepoint."""
