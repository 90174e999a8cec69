"""Exception types shared across the package."""


class SpeckinError(Exception):
    """Base class for all package errors."""


class AmbiguousProjection(SpeckinError):
    """Boundary projection is not unique at this point (e.g. ball center)."""


class NotUnitNormal(SpeckinError):
    """Reflection called with a normal whose length deviates from 1."""


class InvalidStart(SpeckinError):
    """Path started outside the domain or outgoing on the boundary."""


class WatchdogExceeded(SpeckinError):
    """More reflections inside one macro step than max_hits allows."""


class InvalidExponent(SpeckinError):
    """Maxwellian exponent outside the admissible range for the case."""


class QuadratureNonConvergent(SpeckinError):
    """Adaptive quadrature failed to stabilize to the requested tolerance."""


class CFLViolated(SpeckinError):
    """Grid time step violates the transport or positivity constraint."""


class NegativeDensity(SpeckinError):
    """Grid density dropped below -1e-12; signals a scheme bug."""


class DegenerateTrace(SpeckinError):
    """Trace has zero mass; the no-permeability ratio is undefined."""


class BoxMismatch(SpeckinError):
    """Particle snapshot and grid density live on different phase boxes."""


class ParseError(SpeckinError):
    """Config file is not valid JSON or is structurally malformed."""


class ConstraintViolation(SpeckinError):
    """Config value violates a documented numeric constraint."""

    def __init__(self, key, constraint):
        super().__init__(f"config key '{key}': {constraint}")
        self.key = key
        self.constraint = constraint
