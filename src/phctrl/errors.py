"""Exception hierarchy shared by all phctrl modules."""

from __future__ import annotations


class PhctrlError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatch(PhctrlError):
    """Matrix shapes are inconsistent with the declared dimensions."""


class StructureViolation(PhctrlError):
    """A symmetry residual exceeds the admissible tolerance."""

    def __init__(self, message: str, residual: float | None = None,
                 threshold: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.threshold = threshold


class NotPositiveDefinite(PhctrlError):
    """H fails the positive definiteness gate; carries the offending eigenvalue."""

    def __init__(self, smallest_eigenvalue: float, delta: float):
        super().__init__(
            f"smallest eigenvalue of H is {smallest_eigenvalue:.6e}, "
            f"below the required margin {delta:.6e}"
        )
        self.smallest_eigenvalue = smallest_eigenvalue
        self.delta = delta


class LengthMismatch(PhctrlError):
    """A packed coordinate vector has the wrong length for its dimensions."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} packed coordinates, got {got}")
        self.expected = expected
        self.got = got


class SvdFailure(PhctrlError):
    """The singular value decomposition did not converge."""


class EigenFailure(PhctrlError):
    """The eigenvalue computation did not converge."""


class ToleranceOutOfRange(PhctrlError):
    """A verdict tolerance is not a finite double, so no verdict is given."""


class CombinatorialBlowup(PhctrlError):
    """Minor enumeration refused: too many column subsets."""

    def __init__(self, q: int, cap: int):
        super().__init__(f"{q} minors of order n exceed the cap of {cap}")
        self.q = q
        self.cap = cap


class DegenerateDraw(PhctrlError):
    """A random positive definite draw failed repeatedly; the sampler or its
    parameters are broken (this has probability ~0 under a healthy setup)."""

    def __init__(self, retries: int, smallest_eigenvalue: float):
        super().__init__(
            f"no positive definite H after {retries} attempts "
            f"(last smallest eigenvalue {smallest_eigenvalue:.6e})"
        )
        self.retries = retries
        self.smallest_eigenvalue = smallest_eigenvalue


class PerturbationFailed(PhctrlError):
    """No positive definite system found along the perturbation direction."""

    def __init__(self, epsilon: float, retries: int):
        super().__init__(
            f"perturbation with initial step {epsilon:.6e} still leaves the "
            f"positive definite cone after {retries} halvings"
        )
        self.epsilon = epsilon
        self.retries = retries


class BaseNotUncontrollable(PhctrlError):
    """The perturbation probe needs an uncontrollable base system."""

    def __init__(self, rank: int, n: int):
        super().__init__(
            f"base system is controllable (rank {rank} = n = {n}); "
            "the probe needs an uncontrollable base"
        )
        self.rank = rank
        self.n = n


class ExperimentError(PhctrlError):
    """An error inside an experiment loop, annotated with the trial index
    and, for a perturbation probe trial, the index and value of its step
    size: the trial replays from stream(seed, trial), or from
    stream(seed, eps_index, trial)."""

    def __init__(self, trial: int, cause: Exception, eps_index: int | None = None,
                 eps: float | None = None):
        where = f"trial {trial}" if eps_index is None else \
            f"eps[{eps_index}] = {eps!r}, trial {trial}"
        super().__init__(f"{where}: {cause}")
        self.trial = trial
        self.eps_index = eps_index
        self.eps = eps
