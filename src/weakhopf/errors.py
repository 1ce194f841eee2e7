"""Exception types shared across the workbench."""


class WeakHopfError(Exception):
    """Base class for all workbench errors."""


class ParseError(WeakHopfError):
    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        loc = []
        if line is not None:
            loc.append("line %d" % line)
        if field is not None:
            loc.append("field %r" % field)
        suffix = (" (%s)" % ", ".join(loc)) if loc else ""
        super().__init__(message + suffix)


class DimensionMismatch(WeakHopfError):
    pass


class NonUniqueSolution(WeakHopfError):
    pass


class NonUniqueAntipode(WeakHopfError):
    pass


class AntipodeNotInvertible(WeakHopfError):
    pass


class NotCocommutative(WeakHopfError):
    pass


class UNotInvertible(WeakHopfError):
    pass


class MismatchedAlgebra(WeakHopfError):
    pass


class ClosureViolation(WeakHopfError):
    """A structure map escaped its stated codomain subspace."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class InvalidGroupoid(WeakHopfError):
    pass


class NotABicharacter(WeakHopfError):
    pass


class InconsistentStructure(WeakHopfError):
    """Inputs violate an identity the construction relies on."""


class TwistAxiomFailure(WeakHopfError):
    """The twisted structure failed a check; witness is that check's witness."""

    def __init__(self, check_name, message="", witness=None):
        self.check_name = check_name
        self.witness = witness
        super().__init__(message or "twisted structure failed check %r" % check_name)


class CarrierMismatch(WeakHopfError):
    pass


class PreconditionUnmet(WeakHopfError):
    pass
