"""Exception hierarchy for walkdist.

All library errors derive from :class:`WalkdistError` so callers (notably the
CLI) can distinguish invalid input from genuine bugs.
"""


class WalkdistError(Exception):
    """Base class for all walkdist errors."""


# -- graph construction and enumeration ------------------------------------

class EmptyVertexSetError(WalkdistError):
    """Graph must have at least one vertex."""


class SelfLoopError(WalkdistError):
    """Edge joins a vertex to itself."""


class DuplicateEdgeError(WalkdistError):
    """The same unordered pair appears more than once."""


class InvalidVertexError(WalkdistError):
    """Vertex index outside 0..n-1."""


class DisconnectedError(WalkdistError):
    """Graph is not connected."""


class LimitExceededError(WalkdistError):
    """Requested enumeration size above the supported bound."""


class GraphFormatError(WalkdistError):
    """Graph text file does not match the documented format."""


# -- walks ------------------------------------------------------------------

class LazinessOutOfRangeError(WalkdistError):
    """Laziness must lie in [0, 1]."""


class LazinessOrderError(WalkdistError):
    """A walk pair requires alpha <= beta."""


class NotBipartiteError(WalkdistError):
    """Operation defined only on bipartite graphs."""


class InvalidDistributionError(WalkdistError):
    """Distribution values are non-finite, or miss the required sign or total mass."""


# -- transport ---------------------------------------------------------------

class UnbalancedMassError(WalkdistError):
    """Signed distribution does not sum to zero within tolerance."""


class NotLipschitzError(WalkdistError):
    """Potential violates an edge Lipschitz constraint."""


class TooLargeError(WalkdistError):
    """Brute-force oracle restricted to small vertex counts."""


# -- tree transport -----------------------------------------------------------

class NoLaterNeighborError(WalkdistError):
    """A vertex with nonzero mass has no neighbor later in the ordering.

    Carries ``step`` (1-based step index) and ``vertex``.
    """

    def __init__(self, step: int, vertex: int):
        super().__init__(
            f"step {step}: vertex {vertex} holds mass but has no neighbor "
            "with a later ordering index"
        )
        self.step = step
        self.vertex = vertex


# -- analysis ------------------------------------------------------------------

class WrongCategoryError(WalkdistError):
    """Operation restricted to a specific limit category."""


class BetaOneError(WalkdistError):
    """Constancy characterization is only available for beta < 1."""


class EventuallyConstantError(WalkdistError):
    """Series is constant to numerical precision; no decay rate to fit."""


class TooFewPointsError(WalkdistError):
    """Not enough usable points for a rate fit."""
