"""Exception hierarchy shared by all tropkit modules."""


class TropkitError(Exception):
    """Base class for all domain errors raised by tropkit."""


class SchemaError(ValueError):
    """Input does not match the documented file schema, or asks for what
    tropkit refuses as bad input. A ValueError and not a domain error: the
    CLI gives it exit code 2, not 1."""


class TagMismatch(TropkitError):
    """Operands carry different semiring tags."""


class DimensionMismatch(TropkitError):
    """Matrix/vector shapes are incompatible."""


class DivisionByBottom(TropkitError):
    """Residuation with a zero (bottom) denominator."""


class Divergent(TropkitError):
    """A star series is unbounded (scalar above unit, or positive cycle)."""


class ZeroColumn(TropkitError):
    """A residuated matrix has an all-zero column."""


class NoCycle(TropkitError):
    """The digraph of finite entries is acyclic; no cycle mean exists."""


class Unbounded(TropkitError):
    """Collatz-Wielandt infimum is unbounded below (a row is all zero)."""


class EmptySupport(TropkitError):
    """A vector residual was requested against an empty support."""


class Infeasible(TropkitError):
    """A system admits only the trivial zero solution."""


class TooLarge(TropkitError):
    """Instance exceeds a size cap.

    Caps bound work that is exponential in the input size even for the best
    exact algorithm in use (tables over all 2^n subsets, double-description
    generator sets) or set by a traffic request; no cap guards enumeration.
    Each cap is checked where its work is built: the 2^n tables and the
    flow-net grid by `plucker`'s constructors, never by `io`.
    """


class ImprovingCycle(TropkitError):
    """The supplied bijection is not optimal: an improving cycle exists."""


class CertificateInvalid(TropkitError):
    """A certificate fails its own check: a regularity certificate violates
    its strict inequalities, or an eigenvalue witness (Collatz-Wielandt
    vector, cyclic orbit) does not attain the value it certifies."""


class NoFlow(TropkitError):
    """No normal flow meets the divergence constraints."""


class Inconsistent(TropkitError):
    """Reconstructed subset function violates the defining relations."""


class BadConfig(TropkitError):
    """A simulation configuration is invalid (e.g. overlapping cars)."""


class Diverged(TropkitError):
    """A trajectory exploded beyond the configured spread bound."""
