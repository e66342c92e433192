"""Exception types shared across the package."""


class DsmError(Exception):
    """Base class for errors raised by this package."""


class InputError(DsmError):
    """A fixture, config, or schedule file is missing or malformed."""


class PowerFlowError(DsmError):
    """Backward/forward sweep failed to converge."""

    def __init__(self, message: str, iterations: int = 0, mismatch: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.mismatch = mismatch


class EnumerationGuardError(DsmError):
    """Exhaustive search would exceed the configured schedule-count guard."""

    def __init__(self, message: str, count: int, limit: int):
        super().__init__(message)
        self.count = count
        self.limit = limit
