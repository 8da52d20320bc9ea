"""The exceptions rqcheck raises, one hierarchy under RqError. The CLI
maps each to an exit code in one place (`cli.failure`)."""


class RqError(Exception):
    pass


class ParseError(RqError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ScopeError(RqError):
    """An atom or name is not bound in the environment or store typing."""


class Rejection(RqError):
    """A verdict against the program, under one error code."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class CheckError(Rejection):
    """The typechecker rejected the program."""

    def __init__(self, code: str, detail: str, span=None):
        super().__init__(code, detail)
        self.span = span


class FuelExhausted(RqError):
    """A fuel-bounded procedure ran out of fuel; distinct from a negative
    answer so incompleteness is never confused with ill-typedness."""


class InternalError(RqError):
    """An invariant of the implementation failed: a bug, not a verdict."""
