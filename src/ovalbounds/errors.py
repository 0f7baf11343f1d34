"""Exception types shared across the package."""


class OvalBoundsError(Exception):
    """Base class for all library errors."""


class InputError(OvalBoundsError):
    """Invalid user input (malformed file, inconsistent sizes, bad flag)."""


class NotPositiveDefinite(OvalBoundsError):
    """A Cholesky pivot failed; carries the matrix name and pivot index."""

    def __init__(self, name: str, index: int, pivot: float):
        self.name = name
        self.index = index
        self.pivot = pivot
        super().__init__(
            f"matrix {name} is not positive definite: pivot {pivot:.3e} at index {index}"
        )


class NoConvergence(OvalBoundsError):
    """An eigensolve or an iterative search did not converge."""


class NonPositiveFrequency(OvalBoundsError):
    """A squared frequency came out non-positive (stiffness not definite)."""


class SingularFit(OvalBoundsError):
    """Proportional-fit normal equations are singular (all frequencies equal)."""


class CriticalModePresent(OvalBoundsError):
    """A condition-number based region was requested with a critically damped mode."""


class CertificateMissing(OvalBoundsError):
    """Interval bounds requested but the sufficient certificate was refused."""


class EpsilonTooLarge(OvalBoundsError):
    """Relative perturbation size exceeds the admissible overdamping margin."""


class ResolutionTooCoarse(OvalBoundsError):
    """Rasterization grid too coarse: some primitive covers zero cells."""
