"""Exception types shared across the package."""


class SingularParameterError(ValueError):
    """A free parameter hits a pole of a decomposition formula."""


class DegenerateMeasurementError(ValueError):
    """A homodyne setting destroys the teleported quadrature information."""


class DegenerateConditioningError(ValueError):
    """The measured quadrature has zero variance; conditioning is ill-posed."""


class ProgramError(ValueError):
    """A measurement program is structurally inconsistent."""


class CompileError(RuntimeError):
    """Internal consistency check of a compilation failed."""


class SchemaError(ValueError):
    """A serialized document violates the expected schema.

    Carries the path of the offending field, e.g. ``graph.nodes.role[3]``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class VersionError(SchemaError):
    """A serialized document carries an incompatible format version."""
