"""Exception taxonomy shared across the package.

Every domain failure raises a subclass of FavfaError so callers (and the CLI)
can tell bad inputs apart from genuine bugs.
"""

from __future__ import annotations


class FavfaError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(FavfaError):
    """An input file or value could not be interpreted."""


class SchemaInvalid(FavfaError):
    """An attribute schema violates its invariants."""


class MissingAttribute(FavfaError):
    def __init__(self, image_id: str, attribute: str):
        super().__init__(f"image {image_id!r} has no value for attribute {attribute!r}")
        self.image_id = image_id
        self.attribute = attribute


class UnresolvedImage(FavfaError):
    """A pair references an image id absent from the image table."""


class DegeneratePairs(FavfaError):
    """Threshold optimization needs at least one positive and one negative pair."""


class NoGroups(FavfaError):
    """A fairness aggregate was requested over too few groups."""


class DegenerateSupport(FavfaError):
    """Diversity is undefined for fewer than two categories."""


class EmptySubset(FavfaError):
    """No pairs are left after filtering by ground truth."""


class DegenerateResponse(FavfaError):
    """A logit model has no variation in its response, or no more rows than
    design columns, so there is nothing to fit."""


class ConstantColumn(FavfaError):
    def __init__(self, label: str):
        super().__init__(f"design column {label!r} is constant")
        self.label = label


class QuasiSeparation(FavfaError):
    """The logit MLE diverges because a covariate (almost) separates the outcome."""


class SingularInformation(FavfaError):
    """The weighted normal equations are rank-deficient."""


class NotConverged(FavfaError):
    """The requested operation needs a converged fit."""


class RankDeficient(FavfaError):
    """A model matrix lost rank in a context where that cannot be repaired."""


class InsufficientCandidates(FavfaError):
    def __init__(self, cell: tuple[str, ...], have: int, need: int):
        super().__init__(f"cell {'×'.join(cell)} has {have} candidate(s), needs {need}")
        self.cell = cell
        self.have = have
        self.need = need


class NotDivisible(FavfaError):
    """The requested pool size does not split evenly across demographic cells."""


class InsufficientStyles(FavfaError):
    def __init__(self, segment: tuple[str, ...], have: int, need: int):
        super().__init__(
            f"segment {'×'.join(segment)} has {have} style image(s), needs {need}"
        )
        self.segment = segment
        self.have = have
        self.need = need


class ValueOutOfRange(FavfaError):
    """A continuous value falls outside the declared bin range."""
