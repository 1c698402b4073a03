"""Exception types shared across the engine."""


class DivisionByZero(ZeroDivisionError):
    """Division by an exactly-zero expression."""


class NonMonomialDenominator(ArithmeticError):
    """A division would create a denominator outside the allowed F-monomial alphabet."""


class UnsupportedOrder(ValueError):
    """A derivative order beyond what the jet tables support was requested."""


class ShellViolation(ValueError):
    """An operation was applied on the wrong side of the shell restriction."""


class DecayViolation(ValueError):
    """Integrand does not decay fast enough for absolute convergence."""


class NonInvertibleLeadingSymbol(ArithmeticError):
    """Leading symbol has no inverse; the parametrix recursion cannot start."""


class MissingBinding(KeyError):
    """Numeric evaluation hit an indeterminate with no assigned value."""


class NonConvergence(RuntimeError):
    """A numeric quadrature failed to reach its error target."""
