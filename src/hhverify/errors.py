"""Exception types shared across the package."""


class OutOfDomainError(ValueError):
    """A point (or a hull corner) lies outside a surface's declared domain."""

    def __init__(self, point, domain, context=""):
        self.point = tuple(float(v) for v in point)
        self.domain = domain
        msg = f"point {self.point} outside domain {domain}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class NonFiniteError(ArithmeticError):
    """An evaluation produced NaN or infinity."""

    def __init__(self, where, value):
        self.where = where
        self.value = value
        super().__init__(f"non-finite value {value!r} at {where}")


class ParameterError(ValueError):
    """A mathematical parameter violates its documented range."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its depth without meeting the error budget.

    The best-effort result is attached as ``.result``.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class ConfigError(ValueError):
    """A run configuration failed validation."""
