"""Exception types shared across the package."""


class NumericsError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ConvergenceError(NumericsError):
    """Iteration did not converge (shooting bracket, eigensolve, ...)."""


class SingularSolveError(NumericsError):
    """A linear solve hit a (numerically) singular operator."""


class TailFitError(NumericsError):
    """Asymptotic tail fit failed; the fit window is too small."""


class BracketError(ValueError):
    """A bisection bracket does not straddle a sign change."""


class NotAZeroModeError(ValueError):
    """The supplied function is not a zero-energy solution."""
