"""Exception types shared across the package."""


class BvcError(Exception):
    """Base class for all package errors."""


class OddCycle(BvcError):
    """Edge list contains an odd cycle and is therefore not 2-colorable."""


class DuplicateEdge(BvcError):
    """Edge list contains a repeated edge."""


class InvalidParam(BvcError):
    """A parameter is outside its documented range."""


class RoundCapExceeded(BvcError):
    """Simulation reached the round cap before all nodes halted."""


class ProgramFault(BvcError):
    """A node program raised during init/step/output."""


class ShorterPathExists(BvcError):
    """An augmenting path shorter than the caller assumed exists."""
