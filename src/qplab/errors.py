"""Exception hierarchy for the qplab package.

Every error that library code raises deliberately derives from
:class:`QplabError`, so callers can catch the package's failures without
swallowing programming errors.
"""

from __future__ import annotations


class QplabError(Exception):
    """Base class for all qplab errors."""


# ---------------------------------------------------------------------------
# model construction and evaluation


class OutOfStrip(QplabError):
    """Evaluation point left the analyticity strip of the potential."""


class DegenerateRatio(QplabError):
    """Morse certification found a vanishing difference ratio (potential is
    not cosine-type on the sampled grid)."""


class DiophantineViolation(QplabError):
    """A frequency vector failed the small-divisor bound at some site.

    Attributes
    ----------
    site : tuple of int
        The offending integer vector n.
    margin : float
        ``torus_norm(n . omega) * ||n||^tau / gamma``; < 1 means failure.
    """

    def __init__(self, site, margin):
        self.site = tuple(int(c) for c in site)
        self.margin = float(margin)
        super().__init__(f"small-divisor bound fails at n={self.site} "
                         f"(margin {self.margin:.3e})")


class DecayViolation(QplabError):
    """A hopping amplitude exceeded its declared decay envelope."""


class BoxTooLarge(QplabError):
    """Requested dense restriction exceeds the configured site cap."""


class NotHermitian(QplabError):
    """Operation requires a Hermitian restriction."""


# ---------------------------------------------------------------------------
# lattice geometry


class SizeOverflow(QplabError):
    """Box enumeration would exceed the site cap."""


class PreconditionViolated(QplabError):
    """Arguments outside the admissible region of an inequality."""


class TailNotSmall(QplabError):
    """Kernel-sum truncation too short for a meaningful tail bound."""


class NonConvergence(QplabError):
    """Fixpoint iteration did not stabilize within the configured cap."""


# ---------------------------------------------------------------------------
# Green's function engine


class Singular(QplabError):
    """Matrix numerically singular (pivot below threshold), typically the
    energy sits too close to the finite-volume spectrum."""


class ASingular(QplabError):
    """The block scheduled for inversion in a Schur complement is singular."""


class DenominatorNonpositive(QplabError):
    """Combes-Thomas denominator is not positive for the requested rate."""


class NotContractive(QplabError):
    """Neumann series perturbation has estimated norm >= 1."""


class AsymmetricBox(QplabError):
    """Site set is not symmetric about the origin."""


# ---------------------------------------------------------------------------
# multi-scale analysis


class ScheduleOverflow(QplabError):
    """Scale recursion left the representable (or admissible) range."""


class SeparationViolated(QplabError):
    """Resonant centers too close for block construction at this scale."""


class NoRootInWindow(QplabError):
    """Newton iteration found no determinant root inside the search window."""


class WindingMismatch(QplabError):
    """Boundary winding number disagrees with the located root count."""


class WindowTooSmall(QplabError):
    """Candidate set does not fit inside the analyzed window with margin."""


# ---------------------------------------------------------------------------
# dynamics


class SpectrumEscapes(QplabError):
    """Finite-volume spectrum left the declared energy margins."""


class BracketViolated(QplabError):
    """Imaginary energy offset outside the valid scale bracket."""


# ---------------------------------------------------------------------------
# orchestration


class ConfigInvalid(QplabError):
    """Experiment configuration failed validation.

    Carries the dotted path of the offending field when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)


class IoFailure(QplabError):
    """Report bundle could not be written."""
