"""Exception types shared across the toolkit."""


class OpcalError(Exception):
    """Base class for all toolkit errors."""


class BackendMismatch(OpcalError):
    """Operands live on different theories (backend or dimension)."""


class DimensionMismatch(OpcalError):
    """Matrix or subsystem dimensions are incompatible."""


class ZeroProbability(OpcalError):
    """Conditioning on an outcome whose probability is below cutoff."""


class NotCoexistent(OpcalError):
    """Sum of two transformations would exceed unit probability."""


class NoClosedForm(OpcalError):
    """A transformation norm with no closed form: the map is not CP."""


class NotIC(OpcalError):
    """Observable is not informationally complete."""


class NotFaithful(OpcalError):
    """Bipartite state lacks the faithfulness needed by the operation."""


class DegenerateSplit(OpcalError):
    """Bilinear-form eigenvalue sits at the zero cutoff; the sign split
    is ill-defined (strict positivity fails)."""


class WitnessFailed(OpcalError):
    """A constructive witness failed the certificate it must meet."""


class ConeViolation(OpcalError):
    """Involution mapped a physical input outside the physical cone."""


class CompletenessError(OpcalError):
    """Experiment branches do not sum to a deterministic transformation."""


class ParseError(OpcalError):
    """Theory-spec file failed to parse; message carries line/field."""


class ValidationError(OpcalError):
    """Theory-spec parsed but violates an invariant."""


class UnknownSuite(OpcalError):
    """Requested verification suite does not exist."""
