"""Exception types shared across the package."""


class BoltPayError(Exception):
    """Base class for every error raised by this package."""


class SetupRejected(BoltPayError):
    """Security parameter below the accepted minimum."""


class DomainError(BoltPayError):
    """A value outside its domain, such as a foreign handle or a bolt position."""


class MeasureFailed(BoltPayError):
    """Destructive read attempted on a dead bolt."""


class NotOwner(BoltPayError):
    """Transfer attempted by a party that does not hold the bolt."""


class KeyExhausted(BoltPayError):
    """A signing key component needed for this message is already consumed."""


class ParseError(BoltPayError):
    """Malformed identifier, serial, signature, or message line."""


class MintFailed(BoltPayError):
    """Banknote minting could not complete."""


class ScriptError(ParseError):
    """A scenario script line could not be parsed or executed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
