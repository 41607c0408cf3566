"""Exception hierarchy.

ValidationError covers rejected inputs and failed mathematical
preconditions; InternalError marks conditions that are impossible for
valid input and therefore indicate a bug.  The CLI maps the two classes
to distinct exit codes.
"""


class HodgekitError(Exception):
    pass


class ValidationError(HodgekitError):
    pass


class InternalError(HodgekitError):
    pass


class WitnessedError(ValidationError):
    """A failed condition that carries the value showing the failure."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# exactmath

class NotMonic(ValidationError):
    pass


class Reducible(WitnessedError):
    pass


class DegreeTooLarge(ValidationError):
    pass


class NotRealValued(ValidationError):
    pass


class ConjugationNotInternal(ValidationError):
    """The complex conjugate of the chosen embedding does not come from a
    field automorphism, so conjugated periods cannot be represented inside
    the given field.  Re-present the period over a conjugation-closed
    (e.g. Galois) field."""


# qforms

class NotSymmetric(ValidationError):
    pass


class Degenerate(ValidationError):
    pass


# hodge

class WrongSignature(ValidationError):
    pass


class IsotropyFails(WitnessedError):
    pass


class PositivityFails(WitnessedError):
    pass


# symalg

class DegreeTooHigh(ValidationError):
    pass


class HarmonicDimTooSmall(ValidationError):
    pass


# ksympl

class OddDimension(ValidationError):
    pass


class TooLarge(ValidationError):
    pass


class NotGenericallySymplectic(ValidationError):
    pass


class NotQuadricPower(ValidationError):
    pass


class DegenerateQuadric(ValidationError):
    pass


class WrongRankOnQuadric(ValidationError):
    pass


class BasePointIsotropic(ValidationError):
    pass


class RelationsFail(ValidationError):
    pass


# perdom

class NotIsotropicPath(ValidationError):
    pass


# cli

class FileFormatError(ValidationError):
    pass
