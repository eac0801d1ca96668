"""Exception types shared across the library."""


class KernelimError(Exception):
    """Base class for all errors raised by this package."""


class NumericalError(KernelimError):
    """Base class for numerical failures; the CLI exits 2 on these and 1 on the rest."""


class GraphFormatError(KernelimError):
    """A graph file or edge list violates the format contract."""


class KernelSpecError(KernelimError):
    """A kernel specification string could not be parsed."""


class SplineSingularityError(KernelimError):
    """eps + lambda_k = 0 for some eigenvalue; spline coefficients undefined."""


class ComplexPowerError(KernelimError):
    """Negative base with non-integer exponent in the spline coefficient map."""


class CoefficientOverflowError(NumericalError):
    """Spectral coefficients overflowed to non-finite values."""


class IndefiniteKernelError(NumericalError):
    """Operation requires a positive definite kernel (all spectral coefficients > 0)."""


class NotPositiveDefiniteError(NumericalError):
    """Cholesky factorization of the kernel submatrix failed."""


class ZeroPivotError(NumericalError):
    """Greedy pivot fell below the numerical guard; the selection is exhausted."""


class NotSymmetricError(KernelimError):
    """Matrix expected to be finite, square and symmetric is not."""


class SolverError(NumericalError):
    """The dense eigensolver failed to converge."""


class ConvergenceError(NumericalError):
    """An iterative method exceeded its iteration limit."""
