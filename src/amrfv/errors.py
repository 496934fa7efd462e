"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid run configuration or construction parameters."""


class ContractError(RuntimeError):
    """A call violated a module contract (e.g. neighbor query on an unbalanced forest)."""


class EosError(ArithmeticError):
    """Equation-of-state closure failed; ``index`` is the first offending state."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class VacuumError(ArithmeticError):
    """Relaxation solver produced a non-positive intermediate density at face ``row``."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
