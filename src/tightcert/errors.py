"""Exception types shared across the package."""


class CalculusError(ValueError):
    """A request outside an operation's mathematical domain."""


class ExcludedSlopeError(CalculusError):
    """Raised for surgery coefficient 1 on the trefoil, where the companion
    coefficient degenerates to 0 and the construction is undefined."""


class NoTightExtensionError(CalculusError):
    """Raised for contact coefficient 0: the surgered torus admits no tight
    extension, so no diagram component may carry it."""


class NormalizationRequiredError(CalculusError):
    """Raised when an operation needs every coefficient to be +1 or -1."""


class NoExactTriangleError(CalculusError):
    """Raised when three ranks cannot occur as the vertices of an exact triangle."""


class ParseError(CalculusError):
    """Malformed serialized input.

    ``location`` is a human-readable position ("file.json: line 3 column 7"
    or a JSON path such as "components[2].coeff") when one is known;
    ``reason`` is the message without it.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location, self.reason = location, message
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
