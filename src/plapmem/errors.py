"""Exception types and the process exit codes the CLI maps them to."""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_LINEAR_SOLVE = 4
EXIT_IO = 5


class PlapmemError(Exception):
    """Base class for all solver errors."""

    exit_code = 1


class ConfigError(PlapmemError):
    """Invalid or inconsistent configuration; message names the field."""

    exit_code = EXIT_CONFIG

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class FixedPointDivergenceError(PlapmemError):
    """Fixed-point iteration hit max_iter above tol, or its iterates overflowed.

    Carries the last observed contraction ratio: a ratio >= 1 signals that
    the time step is too large for the current mesh.
    """

    exit_code = EXIT_DIVERGENCE

    def __init__(self, step: int, iterations: int, last_ratio: float,
                 increment_u: float, increment_y: float):
        self.step = step
        self.iterations = iterations
        self.last_ratio = last_ratio
        self.increment_u = increment_u
        self.increment_y = increment_y
        super().__init__(
            f"fixed point did not converge at step {step}: "
            f"{iterations} iterations, squared increments "
            f"({increment_u:.3e}, {increment_y:.3e}), "
            f"last contraction ratio {last_ratio:.3g}"
        )


class LinearSolveError(PlapmemError):
    """Direct banded factorization failed (singular or non-finite system)."""

    exit_code = EXIT_LINEAR_SOLVE


class IllPosedStepError(LinearSolveError):
    """The memory relation's diagonal coefficient is numerically zero.

    Happens when delta * g(0) is close to -4; the time step must shrink.
    """
