"""Exception types shared across the package."""


class ListalignError(Exception):
    """Base class for all library errors."""


class DegenerateInput(ListalignError):
    """Input is structurally valid but unusable (empty, too small, non-finite)."""


class ShapeMismatch(ListalignError):
    """Array arguments disagree on dimensions."""


class StaleTape(ListalignError):
    """A gradient tape was used for a second backward pass."""


class DetachedParameter(ListalignError):
    """A trainable tensor's value is no longer a view of its optimizer's parameter arena."""


class ConfigError(ListalignError):
    """Configuration is malformed or internally inconsistent."""


class UnknownId(ListalignError):
    """A lookup referenced an id that is not in the dataset."""


class CorruptFile(ListalignError, ValueError):
    """A binary file is truncated or does not follow its container format."""
