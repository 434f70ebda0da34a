"""Domain model: graphs, latency functions, commodities, thresholds, flows.

All types are immutable after construction and safe to share between
threads. Node and arc ids are opaque strings; anywhere an order matters we
sort by id so that runs are reproducible.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from numpy.polynomial.polynomial import polyroots

from .errors import InvalidInstance, NotCommonSource, PathExplosion

#: Arc flows below this value are treated as zero (support cutoff).
SUPPORT_EPS = 1e-10


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Curve:
    """Evaluable scalar function of one non-negative variable.

    Two variants:

    * ``poly``: polynomial with coefficients ``data[k]`` for x**k.
    * ``pwl``: continuous piecewise-linear through sorted breakpoints
      ``[(x0, y0), (x1, y1), ...]``; constant before the first breakpoint
      and extrapolated with the last segment's slope after the last one.

    A Curve used as a latency function must be non-negative and
    non-decreasing (see :func:`validate_latency`); deviations may take
    negative values.
    """

    kind: str  # "poly" | "pwl"
    data: tuple

    def __post_init__(self):
        numbers = self.data if self.kind == "poly" else sum(self.data, ())
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"curve numbers must be finite: {self.data}")

    @classmethod
    def poly(cls, coefficients: Sequence[float]) -> "Curve":
        coeffs = tuple(float(c) for c in coefficients) or (0.0,)
        return cls("poly", coeffs)

    @classmethod
    def constant(cls, value: float) -> "Curve":
        return cls.poly([value])

    @classmethod
    def pwl(cls, breakpoints: Sequence[tuple[float, float]]) -> "Curve":
        pts = tuple((float(x), float(y)) for x, y in breakpoints)
        if not pts:
            raise ValueError("pwl curve needs at least one breakpoint")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x1 <= x0:
                raise ValueError("pwl breakpoints must be strictly increasing "
                                 f"in x: {[list(p) for p in pts]}")
        return cls("pwl", pts)

    @classmethod
    def ramp(cls, x0: float, x1: float, y1: float) -> "Curve":
        """Zero up to x0, then linear reaching y1 at x1 (slope continues)."""
        return cls.pwl([(x0, 0.0), (x1, y1)])

    def eval(self, x: float) -> float:
        if self.kind == "poly":
            acc = 0.0
            for c in reversed(self.data):
                acc = acc * x + c
            return acc
        pts = self.data
        if x <= pts[0][0]:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        if len(pts) == 1:
            return pts[0][1]
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        return y1 + (y1 - y0) * (x - x1) / (x1 - x0)

    def slope(self, x: float) -> float:
        """Right derivative at x (a pwl curve's slope after a breakpoint)."""
        if self.kind == "poly":
            return _value_and_slope(self.data, x)[1]
        pts = self.data
        if len(pts) == 1 or x < pts[0][0]:
            return 0.0
        k = min(sum(px <= x for px, _ in pts), len(pts) - 1)
        return (pts[k][1] - pts[k - 1][1]) / (pts[k][0] - pts[k - 1][0])

    def integral(self, upper: float) -> float:
        """Exact value of the integral from 0 to ``upper``."""
        if upper <= 0.0:
            return 0.0
        if self.kind == "poly":
            acc = 0.0
            for k, c in enumerate(self.data):
                acc += c * upper ** (k + 1) / (k + 1)
            return acc
        xs = critical_points([(1.0, self)], upper)
        return sum(0.5 * (self.eval(a) + self.eval(b)) * (b - a)
                   for a, b in zip(xs, xs[1:]))

    def scale(self, factor: float) -> "Curve":
        if self.kind == "poly":
            return Curve.poly([factor * c for c in self.data])
        return Curve("pwl", tuple((x, factor * y) for x, y in self.data))

    def to_json(self) -> dict:
        if self.kind == "poly":
            return {"poly": list(self.data)}
        return {"pwl": [[x, y] for x, y in self.data]}

    @classmethod
    def from_json(cls, spec: Mapping) -> "Curve":
        if "poly" in spec:
            return cls.poly(spec["poly"])
        if "pwl" in spec:
            return cls.pwl([tuple(p) for p in spec["pwl"]])
        raise ValueError(f"unknown curve spec: {spec!r}")


ZERO_CURVE = Curve.poly([0.0])


def validate_latency(curve: Curve, name: str = "latency") -> None:
    """Reject curves that are not non-negative and non-decreasing."""
    if curve.kind == "poly":
        if any(c < 0.0 for c in curve.data):
            raise InvalidInstance(f"{name}: polynomial coefficients must be >= 0")
        return
    ys = [y for _, y in curve.data]
    if ys[0] < 0.0:
        raise InvalidInstance(f"{name}: negative value at first breakpoint")
    for y0, y1 in zip(ys, ys[1:]):
        if y1 < y0:
            raise InvalidInstance(f"{name}: breakpoints must be non-decreasing")


def _value_and_slope(coefs: Sequence[float], x: float) -> tuple[float, float]:
    """p(x) and p'(x) for p = sum_k coefs[k] x^k, by Horner's rule."""
    value = slope = 0.0
    for c in reversed(coefs):
        slope = slope * x + value
        value = value * x + c
    return value, slope


def critical_points(terms: Sequence[tuple[float, Curve]],
                    x_max: float) -> list[float]:
    """Sorted points of [0, x_max] between which g = sum of w * c over
    ``terms`` [(w, c), ...] is monotone: 0, x_max, every breakpoint between
    them and, on each piece between those, the real parts of the roots of
    g' (a superset of its real roots), polished by one Newton step. Only
    polynomials of degree >= 2 make g' vary on a piece, so affine and pwl
    terms add no roots."""
    ends = sorted({0.0, x_max, *(x for _, c in terms if c.kind == "pwl"
                                 for x, _ in c.data if 0.0 < x < x_max)})
    polys = [(w, c.data) for w, c in terms if c.kind == "poly"]
    if all(len(data) <= 2 for _, data in polys):
        return ends
    deriv = [0.0] * max(len(data) - 1 for _, data in polys)
    for w, data in polys:
        for k in range(1, len(data)):
            deriv[k - 1] += w * k * data[k]
    points = list(ends)
    for a, b in zip(ends, ends[1:]):
        # pwl terms are linear on [a, b]: their slopes shift g' there
        shift = sum(w * (c.eval(b) - c.eval(a)) / (b - a)
                    for w, c in terms if c.kind == "pwl")
        full = [deriv[0] + shift, *deriv[1:]]
        # eigenvalue roots go astray (or fail) when the leading coefficients
        # are negligible on [0, x_max], so those are dropped first and each
        # root is then polished on the full g'
        sizes = [abs(c) * x_max ** k for k, c in enumerate(full)]
        degree = len(full) - 1
        while degree > 0 and sizes[degree] <= 1e-12 * max(sizes):
            degree -= 1
        for r in polyroots(full[:degree + 1]):
            x = float(r.real)
            if not a < x < b:
                continue
            value, slope = _value_and_slope(full, x)
            if slope:
                polished = x - value / slope
                if (a < polished < b and abs(_value_and_slope(
                        full, polished)[0]) < abs(value)):
                    x = polished
            points.append(x)
    return sorted(points)


# ---------------------------------------------------------------------------
# Instance building blocks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Arc:
    id: str
    tail: str
    head: str
    latency: Curve


@dataclass(frozen=True)
class Commodity:
    source: str
    sink: str
    demand: float

    def __post_init__(self):
        if self.demand <= 0.0:
            raise InvalidInstance("commodity demand must be positive")
        if self.source == self.sink:
            raise InvalidInstance("commodity source and sink must differ")


@dataclass(frozen=True)
class ThresholdPair:
    """Per-arc deviation bounds theta_min <= 0 <= theta_max.

    Two kinds:

    * ``alpha_beta``: theta_min = alpha * l_a, theta_max = beta * l_a with
      -1 < alpha <= 0 <= beta.
    * ``per_arc``: explicit curves per arc id. ``lower`` stores the
      *magnitude* of theta_min (a non-negative curve, negated on
      evaluation); missing arcs default to zero.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    lower: Mapping[str, Curve] = field(default_factory=dict)
    upper: Mapping[str, Curve] = field(default_factory=dict)

    @classmethod
    def alpha_beta(cls, alpha: float, beta: float) -> "ThresholdPair":
        if not (-1.0 < alpha <= 0.0 <= beta):
            raise InvalidInstance("need -1 < alpha <= 0 <= beta")
        return cls("alpha_beta", alpha=alpha, beta=beta)

    @classmethod
    def per_arc(cls, lower: Mapping[str, Curve] | None = None,
                upper: Mapping[str, Curve] | None = None) -> "ThresholdPair":
        lower = dict(lower or {})
        upper = dict(upper or {})
        for name, curves in (("theta_min magnitude", lower), ("theta_max", upper)):
            for arc_id, curve in curves.items():
                validate_latency(curve, f"{name}[{arc_id}]")
        return cls("per_arc", lower=lower, upper=upper)

    @classmethod
    def zero(cls) -> "ThresholdPair":
        return cls.per_arc()

    def theta_min(self, arc: Arc, x: float) -> float:
        if self.kind == "alpha_beta":
            return self.alpha * arc.latency.eval(x)
        curve = self.lower.get(arc.id)
        return -curve.eval(x) if curve is not None else 0.0

    def theta_max(self, arc: Arc, x: float) -> float:
        if self.kind == "alpha_beta":
            return self.beta * arc.latency.eval(x)
        curve = self.upper.get(arc.id)
        return curve.eval(x) if curve is not None else 0.0

    def theta_min_curve(self, arc: Arc) -> Curve:
        """Signed curve for theta_min (values <= 0)."""
        if self.kind == "alpha_beta":
            return arc.latency.scale(self.alpha)
        curve = self.lower.get(arc.id)
        return curve.scale(-1.0) if curve is not None else ZERO_CURVE

    def theta_max_curve(self, arc: Arc) -> Curve:
        if self.kind == "alpha_beta":
            return arc.latency.scale(self.beta)
        return self.upper.get(arc.id, ZERO_CURVE)

    def to_json(self) -> dict:
        if self.kind == "alpha_beta":
            return {"kind": "alpha_beta", "alpha": self.alpha, "beta": self.beta}
        return {
            "kind": "per_arc",
            "theta_min": {a: c.to_json() for a, c in self.lower.items()},
            "theta_max": {a: c.to_json() for a, c in self.upper.items()},
        }

    @classmethod
    def from_json(cls, spec: Mapping) -> "ThresholdPair":
        if spec["kind"] == "alpha_beta":
            return cls.alpha_beta(spec["alpha"], spec["beta"])
        if spec["kind"] != "per_arc":
            raise ValueError(f"unknown threshold kind {spec['kind']!r}; "
                             "expected 'alpha_beta' or 'per_arc'")
        return cls.per_arc(
            {a: Curve.from_json(c) for a, c in spec.get("theta_min", {}).items()},
            {a: Curve.from_json(c) for a, c in spec.get("theta_max", {}).items()},
        )


class Instance:
    """A non-atomic routing game with per-arc deviation thresholds."""

    def __init__(self, nodes: Sequence[str], arcs: Sequence[Arc],
                 commodities: Sequence[Commodity],
                 thresholds: ThresholdPair | None = None):
        self.nodes = tuple(sorted(nodes))
        self.arcs = tuple(sorted(arcs, key=lambda a: a.id))
        self.commodities = tuple(commodities)
        self.thresholds = thresholds if thresholds is not None else ThresholdPair.zero()
        self._validate()
        self.arcs_by_id = {a.id: a for a in self.arcs}
        self.out_arcs: dict[str, list[Arc]] = {v: [] for v in self.nodes}
        for arc in self.arcs:
            self.out_arcs[arc.tail].append(arc)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_demand(self) -> float:
        return sum(c.demand for c in self.commodities)

    @property
    def common_source(self) -> bool:
        sources = {c.source for c in self.commodities}
        return len(sources) == 1

    @property
    def source(self) -> str:
        if not self.common_source:
            raise NotCommonSource("instance has multiple sources")
        return self.commodities[0].source

    def _validate(self) -> None:
        node_set = set(self.nodes)
        seen_ids: set[str] = set()
        for arc in self.arcs:
            if arc.id in seen_ids:
                raise InvalidInstance(f"duplicate arc id {arc.id!r}")
            seen_ids.add(arc.id)
            if arc.tail not in node_set or arc.head not in node_set:
                raise InvalidInstance(f"arc {arc.id!r} references unknown node")
            validate_latency(arc.latency, f"latency[{arc.id}]")
        if not self.commodities:
            raise InvalidInstance("instance needs at least one commodity")
        sinks = [c.sink for c in self.commodities]
        if len(set(sinks)) != len(sinks):
            raise InvalidInstance("commodity sinks must be pairwise distinct")
        for c in self.commodities:
            if c.source not in node_set or c.sink not in node_set:
                raise InvalidInstance("commodity endpoint not a node")

    def check_threshold_assumption(self) -> None:
        """Assert l_a + theta_min_a >= 0 on [0, max(total demand, 1)] at
        its critical points, exactly (Assumption on thresholds that keeps
        perceived latencies non-negative)."""
        x_max = max(self.total_demand, 1.0)
        for arc in self.arcs:
            terms = [(1.0, arc.latency),
                     (1.0, self.thresholds.theta_min_curve(arc))]
            for x in critical_points(terms, x_max):
                if arc.latency.eval(x) + self.thresholds.theta_min(arc, x) < -1e-12:
                    raise InvalidInstance(
                        f"l + theta_min negative on arc {arc.id!r} at x={x}")

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "arcs": [
                {"id": a.id, "tail": a.tail, "head": a.head,
                 "latency": a.latency.to_json()}
                for a in self.arcs
            ],
            "commodities": [
                {"source": c.source, "sink": c.sink, "demand": c.demand}
                for c in self.commodities
            ],
            "thresholds": self.thresholds.to_json(),
        }

    @classmethod
    def from_json(cls, spec: Mapping) -> "Instance":
        arcs = [Arc(a["id"], a["tail"], a["head"], Curve.from_json(a["latency"]))
                for a in spec["arcs"]]
        commodities = [Commodity(c["source"], c["sink"], float(c["demand"]))
                       for c in spec["commodities"]]
        thresholds = ThresholdPair.from_json(spec["thresholds"]) \
            if "thresholds" in spec else ThresholdPair.zero()
        return cls(spec["nodes"], arcs, commodities, thresholds)

    def to_dot(self) -> str:
        return _dot("instance", self.nodes, [
            (a.tail, a.head, 'label="{}: {}"'.format(a.id, json.dumps(
                a.latency.to_json()).replace('"', r'\"'))) for a in self.arcs])


def _dot(name: str, nodes: Sequence[str], edges) -> str:
    """DOT text of the digraph ``name`` with ``edges`` [(tail, head,
    attributes), ...]."""
    return "\n".join([f"digraph {name} {{", *(f'  "{v}";' for v in nodes),
                      *(f'  "{t}" -> "{h}" [{a}];' for t, h, a in edges),
                      "}"])


# ---------------------------------------------------------------------------
# Deviations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Deviation:
    """Per-arc additive latency perturbations; zero where unspecified."""

    curves: Mapping[str, Curve] = field(default_factory=dict)

    @classmethod
    def zero(cls) -> "Deviation":
        return cls({})

    @classmethod
    def constants(cls, values: Mapping[str, float]) -> "Deviation":
        return cls({a: Curve.constant(v) for a, v in values.items() if v != 0.0})

    def eval(self, arc_id: str, x: float) -> float:
        curve = self.curves.get(arc_id)
        return curve.eval(x) if curve is not None else 0.0

    def to_json(self) -> dict:
        return {"arcs": {a: c.to_json() for a, c in self.curves.items()}}

    @classmethod
    def from_json(cls, spec: Mapping) -> "Deviation":
        return cls({a: Curve.from_json(c) for a, c in spec.get("arcs", {}).items()})


Path = tuple[str, ...]  # sequence of arc ids


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------
class Flow:
    """Path-indexed flow per commodity with a cached arc-flow view."""

    def __init__(self, instance: Instance,
                 commodity_paths: Sequence[Mapping[Path, float]],
                 check: bool = True):
        if len(commodity_paths) != len(instance.commodities):
            raise InvalidInstance("one path map per commodity required")
        self.instance = instance
        self.commodity_paths: tuple[dict[Path, float], ...] = tuple(
            {tuple(p): float(v) for p, v in paths.items() if v != 0.0}
            for paths in commodity_paths
        )
        if check:
            self._check_feasibility()
        self.arc_flows: dict[str, float] = {a.id: 0.0 for a in instance.arcs}
        for paths in self.commodity_paths:
            for path, value in paths.items():
                for arc_id in path:
                    self.arc_flows[arc_id] += value

    def _check_feasibility(self) -> None:
        for commodity, paths in zip(self.instance.commodities, self.commodity_paths):
            total = 0.0
            for path, value in paths.items():
                if value < -1e-12:
                    raise InvalidInstance("negative path flow")
                node = commodity.source
                for arc_id in path:
                    arc = self.instance.arcs_by_id.get(arc_id)
                    if arc is None or arc.tail != node:
                        raise InvalidInstance(f"path {path} is not connected")
                    node = arc.head
                if node != commodity.sink:
                    raise InvalidInstance(f"path {path} does not reach the sink")
                total += value
            if abs(total - commodity.demand) > 1e-9:
                raise InvalidInstance(
                    f"path flows sum to {total}, demand is {commodity.demand}")

    def arc_flow(self, arc_id: str) -> float:
        return self.arc_flows[arc_id]

    def support(self) -> set[str]:
        return {a for a, v in self.arc_flows.items() if v > SUPPORT_EPS}

    def to_json(self) -> dict:
        return {
            "commodities": [
                {
                    "source": c.source, "sink": c.sink, "demand": c.demand,
                    "paths": [{"arcs": list(p), "value": v}
                              for p, v in sorted(paths.items())],
                }
                for c, paths in zip(self.instance.commodities, self.commodity_paths)
            ]
        }

    @classmethod
    def from_json(cls, instance: Instance, spec: Mapping) -> "Flow":
        maps = []
        for entry in spec["commodities"]:
            maps.append({tuple(p["arcs"]): p["value"] for p in entry["paths"]})
        return cls(instance, maps)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------
def enumerate_paths(instance: Instance, commodity: Commodity,
                    cap: int = 10000) -> list[Path]:
    """All simple source->sink paths, lexicographic by arc-id sequence.

    Raises PathExplosion as soon as more than ``cap`` paths are found.
    """
    result: list[Path] = []
    visited = {commodity.source}
    stack: list[str] = []

    def dfs(node: str) -> None:
        if node == commodity.sink:
            result.append(tuple(stack))
            if len(result) > cap:
                raise PathExplosion(len(result), cap)
            return
        for arc in sorted(instance.out_arcs[node], key=lambda a: a.id):
            if arc.head in visited:
                continue
            visited.add(arc.head)
            stack.append(arc.id)
            dfs(arc.head)
            stack.pop()
            visited.remove(arc.head)

    dfs(commodity.source)
    return result


def social_cost(instance: Instance, flow: Flow) -> float:
    """Total average latency sum_a f_a * l_a(f_a); deviations excluded."""
    return sum(v * instance.arcs_by_id[a].latency.eval(v)
               for a, v in flow.arc_flows.items())


def path_latency(instance: Instance, flow: Flow, path: Sequence[str],
                 deviation: Deviation | None = None) -> float:
    total = 0.0
    for arc_id in path:
        arc = instance.arcs_by_id[arc_id]
        x = flow.arc_flow(arc_id)
        total += arc.latency.eval(x)
        if deviation is not None:
            total += deviation.eval(arc_id, x)
    return total


def validate_deviation(instance: Instance, deviation: Deviation) -> list[dict]:
    """Exact check of theta_min <= delta <= theta_max on [0, max(total
    demand, 1)] at the critical points of delta - theta_min and
    theta_max - delta; one entry per violating point, empty == feasible."""
    x_max = max(instance.total_demand, 1.0)
    report = []
    for arc in instance.arcs:
        delta = deviation.curves.get(arc.id, ZERO_CURVE)
        theta_min = instance.thresholds.theta_min_curve(arc)
        theta_max = instance.thresholds.theta_max_curve(arc)
        points = {*critical_points([(1.0, delta), (-1.0, theta_min)], x_max),
                  *critical_points([(1.0, theta_max), (-1.0, delta)], x_max)}
        for x in sorted(points):
            value = deviation.eval(arc.id, x)
            lo = instance.thresholds.theta_min(arc, x)
            hi = instance.thresholds.theta_max(arc, x)
            if value < lo - 1e-9 or value > hi + 1e-9:
                report.append({"arc": arc.id, "x": x, "delta": value,
                               "theta_min": lo, "theta_max": hi})
    return report
