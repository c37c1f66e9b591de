"""Exception taxonomy.

ValidationError   -> bad user input / malformed data        (CLI exit 2)
NumericalError    -> continuation, quadrature or ODE failure (CLI exit 3)
ToleranceError    -> a certified check missed its tolerance  (CLI exit 4)
"""


class MaxfaceError(Exception):
    pass


class ValidationError(MaxfaceError):
    pass


class NumericalError(MaxfaceError):
    pass


class ContinuationError(NumericalError):
    pass


class QuadratureError(NumericalError):
    pass


class DegenerateError(NumericalError):
    pass


class ToleranceError(MaxfaceError):
    pass
