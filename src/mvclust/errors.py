"""Exception and warning types shared across the package."""


class MvclustError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(MvclustError):
    """Views (or other paired arrays) disagree on the sample count."""


class NonFiniteEntryError(MvclustError):
    """A matrix contains NaN or infinity; carries the first offending location."""

    def __init__(self, view: int, row: int, col: int):
        self.view = view
        self.row = row
        self.col = col
        super().__init__(f"non-finite entry at view={view}, row={row}, col={col}")


class NonFiniteFactorError(MvclustError):
    """A factor holds NaN or infinity: names the view, the layer (None for the
    top representation) and, in a fit, the outer iteration."""

    def __init__(self, view: int | None, layer: int | None, iteration: int | None = None):
        self.view = view
        self.layer = layer
        self.iteration = iteration
        where = "top" if layer is None else f"layer {layer}"
        what = "representation" if layer is None else "mapping"
        prefix = "" if iteration is None else f"iteration {iteration}: "
        prefix += "" if view is None else f"view {view}: "
        super().__init__(f"{prefix}{where}: non-finite {what} entries")


class LabelRangeError(MvclustError):
    """Labels are malformed: wrong length, negative, or class ids with gaps."""


class LayerSpecError(MvclustError):
    """Layer sizes violate the admissibility rules for a dataset/cluster count."""


class RankDeficientError(MvclustError):
    """A factor has no pseudo-inverse (all zero or non-finite), a view is
    constant, or a layer given to `fit_seminmf` directly is wider than the
    sample count (a fit raises LayerSpecError for that before any work)."""


class TooManyViewsError(MvclustError):
    """A dataset has more views than the exact view-weight solver takes."""


class EigensolverError(MvclustError):
    """The spectral embedding's eigen-solver did not converge within its
    cycle budget."""


class LengthMismatchError(MvclustError):
    """Two label sequences being compared have different lengths."""


class MissingManifestError(MvclustError):
    """A dataset directory has no manifest file."""


class MissingFileError(MvclustError):
    """A file referenced by a manifest does not exist."""


class ParseError(MvclustError):
    """A text file could not be parsed; carries file/line/column when known."""

    def __init__(self, path, line=None, col=None, reason=""):
        self.path = str(path)
        self.line = line
        self.col = col
        loc = self.path
        if line is not None:
            loc += f":{line}"
            if col is not None:
                loc += f":{col}"
        super().__init__(f"parse error at {loc}: {reason}" if reason else f"parse error at {loc}")


class InfeasibleGeometryError(MvclustError):
    """Requested synthetic cluster geometry cannot fit in the given dimensions."""


class RankDeficientWarning(UserWarning):
    """A factor's rank fell below its expected rank; its pseudo-inverse
    truncated the small singular values."""


class DegenerateGraphWarning(UserWarning):
    """A similarity graph has isolated nodes; degrees were floored."""


class ZeroColumnWarning(UserWarning):
    """Normalization encountered all-zero sample columns and left them unchanged."""
