"""Error types raised by the kit, one per failure condition."""


class HyperkitError(Exception):
    """Base class for all kit errors."""


class DimensionMismatch(HyperkitError):
    pass


class DuplicateLabel(HyperkitError):
    pass


class IdentityAxiomViolated(HyperkitError):
    pass


class NotAMosaic(HyperkitError):
    pass


class SearchCapExceeded(HyperkitError):
    pass


class NotParallel(HyperkitError):
    pass


class NoCommonCodomain(HyperkitError):
    pass


class UnsupportedCategory(HyperkitError):
    pass


class NotUnital(HyperkitError):
    pass


class CodomainNotUnital(HyperkitError):
    pass


class NotCommutativeMosaic(HyperkitError):
    pass


class NotMultiring(HyperkitError):
    pass


class AdditiveNotCanonical(NotMultiring):
    pass


class ZeroNotAbsorbing(NotMultiring):
    pass


class NotASubgroup(HyperkitError):
    pass


class NotAbelian(HyperkitError):
    pass


class NotAnAutomorphismGroup(HyperkitError):
    pass


class NotASemilattice(HyperkitError):
    pass


class NotUnitSubgroup(HyperkitError):
    pass


class FlatsNotIntersectionClosed(HyperkitError):
    pass


class ExchangeFails(HyperkitError):
    pass


class NotSimplePointed(HyperkitError):
    pass


class NoMatroidData(HyperkitError):
    """A matroid asked for with neither flats, a rank function nor the
    independent sets."""


class FormatError(HyperkitError):
    """Malformed input: an object file or the HYPERKIT_SEARCH_CAP setting."""


class InvariantViolated(HyperkitError):
    """An internal invariant failed: a bug in the kit, not in the input."""


def ensure(condition: bool, message: str) -> None:
    """Check an internal invariant; unlike `assert`, it also runs under -O."""
    if not condition:
        raise InvariantViolated(message)
