"""Exception types shared across the package."""


class AnisodiffError(Exception):
    """Base of every error the package raises on purpose."""


class ParameterError(AnisodiffError, ValueError):
    """A hyper-parameter or argument is outside its valid range."""


class DegenerateDataError(AnisodiffError, ValueError):
    """The data admits no meaningful scale (e.g. all pairwise distances zero)."""


class ShapeError(AnisodiffError, ValueError):
    """Array dimensions do not match the graph or each other."""


class InputError(AnisodiffError, ValueError):
    """A file or label list failed to parse or violates its format contract."""


class DivergenceError(AnisodiffError, ArithmeticError):
    """An explicit Euler step produced non-finite values."""


class UnlabeledComponentError(AnisodiffError, ValueError):
    """A connected component contains no labeled node, so the harmonic
    system restricted to it is singular."""

    def __init__(self, component_nodes):
        self.component_nodes = list(component_nodes)
        preview = ", ".join(str(i) for i in self.component_nodes[:8])
        if len(self.component_nodes) > 8:
            preview += ", ..."
        super().__init__(
            f"connected component with no labeled node: "
            f"{len(self.component_nodes)} nodes [{preview}]"
        )

    def __reduce__(self):
        # the default would pass the message back in as component_nodes
        return type(self), (self.component_nodes,)
