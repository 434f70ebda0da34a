"""Exception hierarchy shared by all modules."""


class DevRatioError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidInstance(DevRatioError):
    """Instance data violates a structural invariant."""


class PathExplosion(DevRatioError):
    """Simple-path enumeration exceeded the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"path count exceeds cap ({count} > {cap})")
        self.count = count
        self.cap = cap


class NonMonotonePerceived(DevRatioError):
    """Perceived latency l + delta decreases somewhere on the flow range."""


class NotConverged(DevRatioError):
    """Equilibrium solver did not reach the gap tolerance."""

    def __init__(self, gap: float, tol: float, iterations: int):
        super().__init__(
            f"relative gap {gap:.3e} above tolerance {tol:.1e} "
            f"after {iterations} iterations"
        )
        self.gap = gap
        self.tol = tol
        self.iterations = iterations


class InvalidConfig(DevRatioError):
    """Solver settings out of range."""


class NonLinearFace(DevRatioError):
    """The worst equilibrium is not one LP: an arc's latency varies over
    the flows its equilibria may put on it, or arcs of zero perceived cost
    form a cycle that equilibrium flow could circulate on."""


class NotCommonSource(DevRatioError):
    """Operation requires all commodities to share a single source node.

    The negative-cycle characterization of inducibility is only valid for
    common-source instances: there are two-commodity instances whose flow
    is inducible even though the auxiliary graph has a negative cycle
    (see generators.remark_b1_counterexample).
    """


class NotInducible(DevRatioError):
    """Flow is not inducible under the instance thresholds."""


class ConstructionFailed(DevRatioError):
    """An internal construction that is guaranteed to succeed did not."""


class TooLarge(DevRatioError):
    """Brute-force operation refused: search space over budget."""


class ParameterOutOfRange(DevRatioError):
    """A bound's numeric input lies outside the domain it is stated for."""


class AlphaOutOfRange(DevRatioError):
    """Lower threshold factor alpha must satisfy -1 < alpha <= 0."""


class GammaOutOfRange(DevRatioError):
    """Risk-aversion gamma must satisfy gamma > -1/kappa."""


class EpsilonOutOfRange(DevRatioError):
    """Perturbation epsilon must lie in (0, 1)."""


class MuTooLarge(DevRatioError):
    """Smoothness constant out of the bound's validity range."""


class Unbounded(DevRatioError):
    """Smoothness supremum diverges on the requested domain."""


class DemandNotNormalized(DevRatioError):
    """Heterogeneous-player bound requires demands summing to one."""


class NoValidSplit(DevRatioError):
    """No feasible flow split satisfying the rung saturation constraints."""
