"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad argument, configuration, or precondition violation."""


class ShapeError(ValidationError):
    """Array shapes incompatible with the requested operation."""


class StateError(RuntimeError):
    """Object in a state the operation cannot use (e.g. a non-contiguous parameter)."""


class DataError(Exception):
    """Problem with an external data file or directory."""


class ParseError(DataError, ValidationError):
    """Malformed data file; carries the offending location."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message

    def __reduce__(self):
        # args holds only the formatted text; rebuild from the three fields
        return type(self), (self.path, self.line, self.message)
