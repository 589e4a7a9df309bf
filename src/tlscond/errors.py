"""Exception classes shared across the package."""


class TlsCondError(Exception):
    """Base class for all package-specific failures."""


class ParseError(TlsCondError):
    """A problem or report file is malformed."""


class ShapeError(TlsCondError):
    """Dimensions violate m > n >= 1, or the data is empty/non-finite or too large to square."""


class ConvergenceError(TlsCondError):
    """A LAPACK call failed: dgeqrt, numpy's dgesdd (its LinAlgError), dgebrd,
    dlasda, dstebz, dstein, dormbr, or dlasd4.

    These are the bundle's row-block kernels, which the alpha generator and
    the perturbation lab's stacked re-solves share: dgeqrt for the QR (the
    lab reduces its narrow tall stacks by numpy's stacked dgeqrf instead,
    whose info reports only illegal arguments), and for the SVD numpy's dgesdd
    (core.full_svd) on narrow blocks and, at every width, for the whole V
    that the lab's worst direction forms through core.right_factor and for
    the alpha generator's draw; on wide blocks dgebrd, then dlasda, dstebz,
    dstein and dormbr for the few values the bundle keeps
    (core.few_value_svd). dlasd4 solves the secular roots.
    """


class NoUniqueSolution(TlsCondError):
    """The genericity gap sigma_{n+1} < sigma_hat_n fails."""


class TrivialProblem(TlsCondError):
    """sigma_{n+1} = 0: b lies in range(A) and the residual vanishes."""


class DegenerateVector(TlsCondError):
    """Last entry of the trailing right singular vector is numerically zero.

    Contradicts the gap condition, so it signals an upstream SVD failure.
    """


class IllConditionedGap(TlsCondError):
    """The relative gap is too small for a gap-sensitive formula."""


class FactorizationError(TlsCondError):
    """A matrix that must be positive definite lost definiteness numerically."""


class NotApplicable(TlsCondError):
    """A bound's or route's precondition (certified alpha, size cap) does not hold."""


class InvalidAlpha(TlsCondError):
    """A target alpha outside the open interval (0, 1)."""


class GapFailure(TlsCondError):
    """A generator could not produce a solvable instance after retries."""


class PerturbationTooLarge(TlsCondError):
    """The perturbed problem no longer satisfies the gap condition."""


class VerdictFailure(TlsCondError):
    """A certified bound failed to enclose the reference condition number."""
