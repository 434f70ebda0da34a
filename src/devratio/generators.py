"""Instance families with known worst-case cost ratios.

Each generator returns the full certificate: the instance, the deviation,
the original equilibrium z, the deviated equilibrium x, and the achieved
ratio C(x)/C(z). Generators self-check: both flows must pass the
equilibrium conditions and the ratio must match before a case is returned.
The Fibonacci ladder's rung split is an LP, solved by the ``lp`` layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import lp
from .core import (Arc, Commodity, Curve, Deviation, Flow, Instance,
                   ThresholdPair, social_cost)
from .equilibrium import verify_nash
from .errors import ConstructionFailed, InvalidInstance, NoValidSplit


@dataclass(frozen=True)
class GeneratedCase:
    instance: Instance
    deviation: Deviation
    z: Flow
    x: Flow
    expected_ratio: float
    family: str

    def validate(self, eps: float = 1e-9, ratio_tol: float = 1e-9) -> None:
        bad = verify_nash(self.instance, self.z, None, eps)
        if bad:
            raise ConstructionFailed(f"z fails equilibrium check: {bad[:3]}")
        bad = verify_nash(self.instance, self.x, self.deviation, eps)
        if bad:
            raise ConstructionFailed(f"x fails equilibrium check: {bad[:3]}")
        ratio = (social_cost(self.instance, self.x)
                 / social_cost(self.instance, self.z))
        if abs(ratio - self.expected_ratio) > ratio_tol * max(
                1.0, abs(self.expected_ratio)):
            raise ConstructionFailed(
                f"ratio {ratio} != expected {self.expected_ratio}")


def _fibonacci_numbers(upto: int) -> list[int]:
    fib = [0, 1, 1]
    while len(fib) <= upto:
        fib.append(fib[-1] + fib[-2])
    return fib


# ---------------------------------------------------------------------------
# Single-commodity Braess family
# ---------------------------------------------------------------------------
def _braess_graph(m: int, y_ramp: Curve) -> tuple[list[str], list[Arc]]:
    """Nodes and arcs of the m-th Braess graph; rising arcs (s,v_j) get
    latency (m-j)*ramp, falling arcs (w_j,t) get j*ramp, everything else
    is constant 1."""
    nodes = ["s", "t"] + [f"v{j}" for j in range(1, m)] \
        + [f"w{j}" for j in range(1, m)]
    one = Curve.constant(1.0)
    arcs = []
    for j in range(1, m):
        arcs.append(Arc(f"s>v{j}", "s", f"v{j}", y_ramp.scale(m - j)))
        arcs.append(Arc(f"v{j}>w{j}", f"v{j}", f"w{j}", one))
        arcs.append(Arc(f"w{j}>t", f"w{j}", "t", y_ramp.scale(j)))
    for j in range(2, m):
        arcs.append(Arc(f"v{j}>w{j-1}", f"v{j}", f"w{j-1}", one))
    arcs.append(Arc("v1>t", "v1", "t", one))
    arcs.append(Arc(f"s>w{m-1}", "s", f"w{m-1}", one))
    return nodes, arcs


def _braess_diagonal_ids(m: int) -> list[str]:
    """The constant-1 shortcut arcs that receive the deviation."""
    return [f"v{j}>w{j-1}" for j in range(2, m)] + ["v1>t", f"s>w{m-1}"]


def _braess_z_paths(m: int) -> dict[tuple[str, ...], float]:
    paths: dict[tuple[str, ...], float] = {
        (f"s>w{m-1}", f"w{m-1}>t"): 1.0 / m,
        ("s>v1", "v1>t"): 1.0 / m,
    }
    for j in range(2, m):
        paths[(f"s>v{j}", f"v{j}>w{j-1}", f"w{j-1}>t")] = 1.0 / m
    return paths


def _braess_x_paths(m: int, amount: float) -> dict[tuple[str, ...], float]:
    return {(f"s>v{j}", f"v{j}>w{j}", f"w{j}>t"): amount
            for j in range(1, m)}


def braess(m: int, beta: float) -> GeneratedCase:
    """m-th Braess graph (n = 2m nodes) with ratio 1 + beta*m.

    The equilibrium z routes 1/m through each of the m zig-zag paths at
    cost 1; a deviation of beta on the shortcut arcs pushes the
    equilibrium onto the m-1 three-arc paths at cost 1 + beta*m.
    """
    if m < 2:
        raise InvalidInstance("braess family needs m >= 2")
    if beta < 0.0:
        raise InvalidInstance("beta must be non-negative")
    ramp = Curve.ramp(1.0 / m, 1.0 / (m - 1), beta)
    nodes, arcs = _braess_graph(m, ramp)
    instance = Instance(nodes, arcs, [Commodity("s", "t", 1.0)],
                        ThresholdPair.alpha_beta(0.0, beta))
    deviation = Deviation.constants(
        {a: beta for a in _braess_diagonal_ids(m)})
    z = Flow(instance, [_braess_z_paths(m)])
    x = Flow(instance, [_braess_x_paths(m, 1.0 / (m - 1))])
    case = GeneratedCase(instance, deviation, z, x, 1.0 + beta * m, "braess")
    case.validate()
    return case


# ---------------------------------------------------------------------------
# Two-commodity Braess variants
# ---------------------------------------------------------------------------
def braess_odd(m: int, beta: float, r: float) -> GeneratedCase:
    """Odd-n two-commodity variant (n = 2m+1) with ratio 1 + beta*r*m.

    An extra sink t2 hangs off the source through an arc whose latency
    ramps from 0 to m*beta once its flow exceeds r-1; the second commodity
    (demand r-1) parks there while the deviated first commodity spills
    eps_m units onto it, which prices every path at 1 + beta*m and lifts
    the total cost to 1 + beta*r*m.
    """
    if m < 2 or beta < 0.0 or r < 1.0:
        raise InvalidInstance("need m >= 2, beta >= 0, r >= 1")
    eps_m = 1.0 / (2 * m)
    ramp = Curve.ramp(1.0 / m, (1.0 - eps_m) / (m - 1), beta)
    nodes, arcs = _braess_graph(m, ramp)
    nodes = nodes + ["t2"]
    star = Curve.ramp(r - 1.0, r - 1.0 + eps_m, beta)
    arcs.append(Arc("s>t2", "s", "t2", star.scale(m)))
    arcs.append(Arc("t2>t", "t2", "t", Curve.constant(1.0)))
    commodities = [Commodity("s", "t", 1.0)]
    if r > 1.0:
        commodities.append(Commodity("s", "t2", r - 1.0))
    instance = Instance(nodes, arcs, commodities,
                        ThresholdPair.alpha_beta(0.0, beta))
    deviation = Deviation.constants(
        {a: beta for a in _braess_diagonal_ids(m)})

    z_paths = [_braess_z_paths(m)]
    x_paths = [_braess_x_paths(m, (1.0 - eps_m) / (m - 1))]
    x_paths[0][("s>t2", "t2>t")] = eps_m
    if r > 1.0:
        z_paths.append({("s>t2",): r - 1.0})
        x_paths.append({("s>t2",): r - 1.0})
    z = Flow(instance, z_paths)
    x = Flow(instance, x_paths)
    case = GeneratedCase(instance, deviation, z, x, 1.0 + beta * r * m,
                         "braess_odd")
    case.validate()
    return case


def braess_even(m: int, beta: float, r: float) -> GeneratedCase:
    """Even-n two-commodity variant (n = 2m) with ratio
    (1 + beta*r*m) - beta*(r-1).

    The second commodity (demand r-1) terminates at v1; shifting the ramp
    of the first rising arc by r-1 keeps both equilibria intact while the
    extra demand inflates the deviated cost.
    """
    if m < 2 or beta < 0.0 or r < 1.0:
        raise InvalidInstance("need m >= 2, beta >= 0, r >= 1")
    ramp = Curve.ramp(1.0 / m, 1.0 / (m - 1), beta)
    nodes, arcs = _braess_graph(m, ramp)
    shifted = Curve.ramp(1.0 / m + (r - 1.0), 1.0 / (m - 1) + (r - 1.0), beta)
    arcs = [Arc(a.id, a.tail, a.head, shifted.scale(m - 1))
            if a.id == "s>v1" else a for a in arcs]
    commodities = [Commodity("s", "t", 1.0)]
    if r > 1.0:
        commodities.append(Commodity("s", "v1", r - 1.0))
    instance = Instance(nodes, arcs, commodities,
                        ThresholdPair.alpha_beta(0.0, beta))
    deviation = Deviation.constants(
        {a: beta for a in _braess_diagonal_ids(m)})

    z_paths = [_braess_z_paths(m)]
    x_paths = [_braess_x_paths(m, 1.0 / (m - 1))]
    if r > 1.0:
        z_paths.append({("s>v1",): r - 1.0})
        x_paths.append({("s>v1",): r - 1.0})
    z = Flow(instance, z_paths)
    x = Flow(instance, x_paths)
    expected = (1.0 + beta * r * m) - beta * (r - 1.0)
    case = GeneratedCase(instance, deviation, z, x, expected, "braess_even")
    case.validate()
    return case


# ---------------------------------------------------------------------------
# Fibonacci ladder (exponential ratio in the number of nodes)
# ---------------------------------------------------------------------------
def fibonacci(p: int, beta: float, ramp_delta: float = 0.01) -> GeneratedCase:
    """Two-commodity ladder whose ratio grows like the Fibonacci numbers.

    Rung arc (v_i, v_{i+1}) (i odd) and (w_i, w_{i+1}) (i even) have
    latency beta * F_i once their flow exceeds 1 + ramp_delta, and zero up
    to flow 1. The original equilibrium uses the two straight paths at
    total cost 1; a deviation of beta on the single entry arc (s1, e)
    reroutes both commodities across the rungs, saturating all of them
    and driving the cost above 1 + beta*F_{p+1}.
    """
    if p < 3 or p % 2 == 0:
        raise InvalidInstance("need odd p >= 3")
    if beta < 0.0 or ramp_delta <= 0.0:
        raise InvalidInstance("need beta >= 0 and ramp_delta > 0")
    fib = _fibonacci_numbers(p + 1)
    d = ramp_delta

    nodes = ["s1", "s2", "t1", "t2", "e"] \
        + [f"w{i}" for i in range(p + 1)] + [f"v{i}" for i in range(1, p + 1)]
    zero = Curve.constant(0.0)
    one = Curve.constant(1.0)

    def rung(i: int) -> Curve:
        height = beta * fib[max(i, 1)]
        return Curve.pwl([(1.0, 0.0), (1.0 + d, height), (2.0 + d, height)])

    arcs = [
        Arc("s1>e", "s1", "e", one),
        Arc("s1>w0", "s1", "w0", one),
        Arc("e>w1", "e", "w1", zero),
        Arc("w1>v1", "w1", "v1", zero),
        Arc("s2>w0", "s2", "w0", zero),
        Arc(f"w{p}>t2", f"w{p}", "t2", zero),
        Arc(f"v{p}>t1", f"v{p}", "t1", zero),
    ]
    for i in range(p):  # w-ladder rungs (w_i, w_{i+1})
        arcs.append(Arc(f"w{i}>w{i+1}", f"w{i}", f"w{i+1}",
                        rung(i) if i % 2 == 0 else zero))
    for i in range(1, p):  # v-ladder rungs (v_i, v_{i+1})
        arcs.append(Arc(f"v{i}>v{i+1}", f"v{i}", f"v{i+1}",
                        rung(i) if i % 2 == 1 else zero))
    for i in range(1, p - 1, 2):  # commodity-2 entries
        arcs.append(Arc(f"s2>v{i}", "s2", f"v{i}", zero))
    for i in range(2, p, 2):  # commodity-1 entries past e
        arcs.append(Arc(f"e>w{i}", "e", f"w{i}", zero))
    for i in range(3, p + 1, 2):  # crossings w -> v
        arcs.append(Arc(f"w{i}>v{i}", f"w{i}", f"v{i}", zero))
    for i in range(2, p, 2):  # crossings v -> w
        arcs.append(Arc(f"v{i}>w{i}", f"v{i}", f"w{i}", zero))

    commodities = [Commodity("s1", "t1", 1.0), Commodity("s2", "t2", 1.0)]
    instance = Instance(nodes, arcs, commodities,
                        ThresholdPair.alpha_beta(0.0, beta))
    deviation = Deviation.constants({"s1>e": beta})

    p1 = tuple(["s1>e", "e>w1", "w1>v1"]
               + [f"v{i}>v{i+1}" for i in range(1, p)] + [f"v{p}>t1"])
    p2 = tuple(["s2>w0"] + [f"w{i}>w{i+1}" for i in range(p)] + [f"w{p}>t2"])
    z = Flow(instance, [{p1: 1.0}, {p2: 1.0}])

    # deviated flow: commodity 1 on the detour paths T_0, T_2, T_4, ...;
    # commodity 2 on T_1, T_3, ... and the straight path. The split must
    # put at least 1 + ramp_delta on every rung.
    paths_1 = [tuple(["s1>w0", "w0>w1", "w1>v1"]
                     + [f"v{i}>v{i+1}" for i in range(1, p)] + [f"v{p}>t1"])]
    paths_1 += [tuple(["s1>e", f"e>w{j}", f"w{j}>w{j+1}", f"w{j+1}>v{j+1}"]
                      + [f"v{i}>v{i+1}" for i in range(j + 1, p)]
                      + [f"v{p}>t1"]) for j in range(2, p, 2)]
    paths_2 = [tuple([f"s2>v{j}", f"v{j}>v{j+1}", f"v{j+1}>w{j+1}"]
                     + [f"w{i}>w{i+1}" for i in range(j + 1, p)]
                     + [f"w{p}>t2"]) for j in range(1, p - 1, 2)] + [p2]
    columns, n_1 = paths_1 + paths_2, len(paths_1)

    # rung saturation rows, as -flow <= -(1 + d); overshoot the ramp end
    # slightly: on the flat tail the rung latency is exactly beta*F_i,
    # immune to LP constraint residuals
    rungs = [(f"w{i}>w{i+1}", i) for i in range(0, p, 2)] \
        + [(f"v{i}>v{i+1}", i) for i in range(1, p, 2)]
    saturate, objective = [], [0.0] * len(columns)
    for arc_id, i in rungs:
        on = [k for k, path in enumerate(columns) if arc_id in path]
        saturate.append(([(k, -1.0) for k in on], -(1.0 + d + 1e-6)))
        for k in on:  # minimize total weighted rung flow
            objective[k] += fib[max(i, 1)]
    result = lp.solve(objective, saturate, [
        ([(k, 1.0) for k in range(n_1)], 1.0),
        ([(k, 1.0) for k in range(n_1, len(columns))], 1.0)])
    if not result.success:
        raise NoValidSplit(
            f"no split saturates every rung at 1 + {d}: {result.message}")

    x1 = {path: float(v) for path, v in zip(paths_1, result.x)}
    x2 = {path: float(v) for path, v in zip(paths_2, result.x[n_1:])}
    x = Flow(instance, [x1, x2])
    expected = social_cost(instance, x) / social_cost(instance, z)
    if expected < 1.0 + beta * fib[p + 1] - 1e-9:
        raise NoValidSplit(
            f"achieved ratio {expected} below 1 + beta*F_{p + 1}")
    case = GeneratedCase(instance, deviation, z, x, expected, "fibonacci")
    case.validate(eps=1e-9, ratio_tol=1e-6)
    return case


# ---------------------------------------------------------------------------
# Smoothness tightness pair
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SmoothnessCase:
    instance: Instance
    deviation: Deviation
    #: deviated equilibrium, all demand on the congestible arc
    x: Flow
    #: comparison flow (not an equilibrium)
    z_star: Flow
    ratio: float


def smoothness_tight(c: Curve, beta: float, r: float,
                     epsilon: float) -> SmoothnessCase:
    """Two parallel arcs realizing the smoothness bound.

    Arc "cong" has latency (1+beta) c(y) / (r c(r)) and no deviation; arc
    "flat" has constant latency 1/r and deviation beta/r. All demand on
    "cong" is a deviated equilibrium of cost 1+beta; splitting epsilon /
    r-epsilon gives the comparison cost whose minimum over epsilon
    approaches the smoothness-ratio supremum.
    """
    if not (0.0 < epsilon < r):
        raise InvalidInstance("need 0 < epsilon < r")
    if beta < 0.0:
        raise InvalidInstance("beta must be non-negative")
    c_r = c.eval(r)
    if c_r <= 0.0:
        raise InvalidInstance("latency must be positive at x = r")
    arcs = [
        Arc("cong", "s", "t", c.scale((1.0 + beta) / (r * c_r))),
        Arc("flat", "s", "t", Curve.constant(1.0 / r)),
    ]
    instance = Instance(["s", "t"], arcs, [Commodity("s", "t", r)],
                        ThresholdPair.per_arc(
                            upper={"flat": Curve.constant(beta / r)}))
    deviation = Deviation.constants({"flat": beta / r})
    x = Flow(instance, [{("cong",): r}])
    z_star = Flow(instance, [{("cong",): epsilon, ("flat",): r - epsilon}])
    ratio = social_cost(instance, x) / social_cost(instance, z_star)
    bad = verify_nash(instance, x, deviation, eps=1e-9)
    if bad:
        raise ConstructionFailed(f"x fails equilibrium check: {bad}")
    return SmoothnessCase(instance, deviation, x, z_star, ratio)


def smoothness_tight_best(c: Curve, beta: float, r: float,
                          grid: int = 400) -> tuple[float, float]:
    """(best ratio, best epsilon) over an epsilon grid."""
    best, best_eps = -math.inf, None
    for k in range(1, grid):
        eps = r * k / grid
        case = smoothness_tight(c, beta, r, eps)
        if case.ratio > best:
            best, best_eps = case.ratio, eps
    return best, best_eps


# ---------------------------------------------------------------------------
# Worst-deviation hardness gadget and the multi-source caveat
# ---------------------------------------------------------------------------
def hamiltonian_reduction(nodes: list[str], arc_pairs: list[tuple[str, str]],
                          s: str, t: str) -> Instance:
    """Unit-demand instance on the given digraph with l_a(x) = x and
    constant deviation headroom n-1 on every arc. The worst deviation
    reaches cost n-1 exactly when the graph has a Hamiltonian s-t path.
    """
    if s == t:
        raise InvalidInstance("source and sink must differ")
    n = len(nodes)
    identity = Curve.poly([0.0, 1.0])
    cap = Curve.constant(float(n - 1))
    arcs = [Arc(f"{u}>{v}", u, v, identity) for u, v in arc_pairs]
    upper = {a.id: cap for a in arcs}
    return Instance(nodes, arcs, [Commodity(s, t, 1.0)],
                    ThresholdPair.per_arc(upper=upper))


def remark_b1_counterexample() -> tuple[Instance, Flow]:
    """Two-commodity instance whose flow is inducible (by the zero
    deviation) although the auxiliary graph contains the negative cycle
    (1, 4, 3, 2, 1). Shows that the negative-cycle criterion is only valid
    with a common source.
    """
    zero = Curve.constant(0.0)
    arcs = [
        Arc("s1>v1", "s1", "v1", zero),
        Arc("v1>1", "v1", "1", zero),
        Arc("1>2", "1", "2", Curve.constant(1.0)),
        Arc("2>t1", "2", "t1", zero),
        Arc("s2>v2", "s2", "v2", zero),
        Arc("v2>3", "v2", "3", zero),
        Arc("3>4", "3", "4", Curve.constant(3.0)),
        Arc("4>t2", "4", "t2", zero),
        Arc("3>2", "3", "2", zero),
        Arc("1>4", "1", "4", zero),
    ]
    thresholds = ThresholdPair.per_arc(upper={
        "1>4": Curve.constant(2.0),
        "3>2": Curve.constant(1.0),
    })
    nodes = ["s1", "v1", "1", "2", "t1", "s2", "v2", "3", "4", "t2"]
    instance = Instance(nodes, arcs,
                        [Commodity("s1", "t1", 1.0),
                         Commodity("s2", "t2", 1.0)], thresholds)
    flow = Flow(instance, [
        {("s1>v1", "v1>1", "1>2", "2>t1"): 1.0},
        {("s2>v2", "v2>3", "3>4", "4>t2"): 1.0},
    ])
    return instance, flow
