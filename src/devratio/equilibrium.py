"""Wardrop equilibrium computation for perceived latencies l + delta.

The solver minimizes the Beckmann potential sum_a integral_0^{f_a} q_a(u) du
(q_a = l_a + delta_a) over feasible path flows. It combines path
equilibration (pairwise shifts between the most and least expensive active
paths, with an exact root search on the potential derivative) with column
generation: new paths enter via shortest-path computations on the arc
graph, which also certify the equilibrium gap against the full path space.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from scipy.optimize import brentq

from .core import (Commodity, Deviation, Flow, Instance, Path,
                   enumerate_paths, sample_grid, social_cost)
from .errors import InvalidInstance, NonMonotonePerceived, NotConverged

_GAP_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    relative_gap_tol: float = 1e-8
    max_iterations: int = 200000
    restarts: int = 5
    path_cap: int = 10000

    def __post_init__(self):
        assert self.relative_gap_tol > 0.0
        assert self.max_iterations >= 1


@dataclass(frozen=True)
class EquilibriumResult:
    flow: Flow
    relative_gap: float
    iterations: int
    potential_value: float


def perceived_cost(instance: Instance, deviation: Deviation | None,
                   arc_id: str, x: float) -> float:
    value = instance.arcs_by_id[arc_id].latency.eval(x)
    if deviation is not None:
        value += deviation.eval(arc_id, x)
    return value


def check_monotone_perceived(instance: Instance,
                             deviation: Deviation | None) -> None:
    """Reject perceived latencies that decrease or go negative on the
    flow range [0, total demand]."""
    for arc in instance.arcs:
        extra = list(arc.latency.breakpoint_xs())
        if deviation is not None and arc.id in deviation.curves:
            extra += list(deviation.curves[arc.id].breakpoint_xs())
        prev = None
        for x in sample_grid(instance.total_demand, extra):
            value = perceived_cost(instance, deviation, arc.id, x)
            if value < -1e-12:
                raise NonMonotonePerceived(
                    f"perceived latency negative on arc {arc.id!r} at x={x}")
            if prev is not None and value < prev - 1e-12:
                raise NonMonotonePerceived(
                    f"perceived latency decreasing on arc {arc.id!r} near x={x}")
            prev = value


def shortest_path(instance: Instance, costs: dict[str, float],
                  source: str, sink: str) -> tuple[Path, float] | None:
    """Deterministic Bellman-Ford; ties broken by arc-id relaxation order."""
    dist = {v: math.inf for v in instance.nodes}
    pred: dict[str, str] = {}
    dist[source] = 0.0
    for _ in range(len(instance.nodes) - 1):
        changed = False
        for arc in instance.arcs:  # already sorted by id
            d = dist[arc.tail] + costs[arc.id]
            if d < dist[arc.head] - 1e-15:
                dist[arc.head] = d
                pred[arc.head] = arc.id
                changed = True
        if not changed:
            break
    if not math.isfinite(dist[sink]):
        return None
    path: list[str] = []
    node = sink
    while node != source:
        arc_id = pred[node]
        path.append(arc_id)
        node = instance.arcs_by_id[arc_id].tail
    return tuple(reversed(path)), dist[sink]


def _unreachable(commodity: Commodity) -> InvalidInstance:
    return InvalidInstance(
        f"sink {commodity.sink!r} unreachable from {commodity.source!r}")


def beckmann_potential(instance: Instance, flow: Flow,
                       deviation: Deviation | None) -> float:
    total = 0.0
    for arc_id, x in flow.arc_flows.items():
        total += instance.arcs_by_id[arc_id].latency.integral(x)
        if deviation is not None:
            total += deviation.integral(arc_id, x)
    return total


def relative_gap(instance: Instance, flow: Flow,
                 deviation: Deviation | None) -> float:
    """(sum_i r_i (avg perceived_i - shortest_i)) / sum_i r_i shortest_i."""
    costs = {a.id: perceived_cost(instance, deviation, a.id,
                                  flow.arc_flow(a.id))
             for a in instance.arcs}
    num = 0.0
    den = 0.0
    for commodity, paths in zip(instance.commodities, flow.commodity_paths):
        best = shortest_path(instance, costs, commodity.source, commodity.sink)
        if best is None:
            raise _unreachable(commodity)
        _, shortest = best
        avg = sum(v * sum(costs[a] for a in p) for p, v in paths.items())
        num += avg - commodity.demand * shortest
        den += commodity.demand * shortest
    return max(num, 0.0) / max(den, _GAP_DENOM_FLOOR)


class _CommodityState:
    """Mutable active-path flows for one commodity during a solve."""

    def __init__(self, commodity: Commodity, initial: dict[Path, float]):
        self.commodity = commodity
        self.flows: dict[Path, float] = dict(initial)

    def prune(self) -> None:
        self.flows = {p: v for p, v in self.flows.items() if v > 1e-15}


def _shift(instance: Instance, deviation: Deviation | None,
           arc_flows: dict[str, float], state: _CommodityState,
           p_from: Path, p_to: Path) -> None:
    """Move flow from p_from to p_to, minimizing the potential along the
    segment. The derivative is monotone, so an exact root search applies."""
    only_to = [a for a in p_to if a not in set(p_from)]
    only_from = [a for a in p_from if a not in set(p_to)]
    d_max = state.flows[p_from]

    def deriv(d: float) -> float:
        up = sum(perceived_cost(instance, deviation, a, arc_flows[a] + d)
                 for a in only_to)
        down = sum(perceived_cost(instance, deviation, a, arc_flows[a] - d)
                   for a in only_from)
        return up - down

    if deriv(d_max) <= 0.0:
        d = d_max
    else:
        d = brentq(deriv, 0.0, d_max, xtol=1e-15)
    if d <= 0.0:
        return
    for a in only_to:
        arc_flows[a] += d
    for a in only_from:
        arc_flows[a] -= d
    state.flows[p_from] -= d
    state.flows[p_to] = state.flows.get(p_to, 0.0) + d
    state.prune()


def wardrop(instance: Instance, deviation: Deviation | None = None,
            config: SolverConfig = SolverConfig(),
            initial_paths: list[dict[Path, float]] | None = None
            ) -> EquilibriumResult:
    """Equilibrium flow with certified relative gap <= the tolerance."""
    check_monotone_perceived(instance, deviation)

    states: list[_CommodityState] = []
    if initial_paths is None:
        zero_costs = {a.id: perceived_cost(instance, deviation, a.id, 0.0)
                      for a in instance.arcs}
        for commodity in instance.commodities:
            best = shortest_path(instance, zero_costs,
                                 commodity.source, commodity.sink)
            if best is None:
                raise _unreachable(commodity)
            states.append(_CommodityState(commodity, {best[0]: commodity.demand}))
    else:
        for commodity, paths in zip(instance.commodities, initial_paths):
            states.append(_CommodityState(commodity, dict(paths)))

    arc_flows = {a.id: 0.0 for a in instance.arcs}
    for state in states:
        for path, value in state.flows.items():
            for a in path:
                arc_flows[a] += value

    def current_flow() -> Flow:
        return Flow(instance, [s.flows for s in states], check=False)

    iterations = 0
    prev_potential = beckmann_potential(instance, current_flow(), deviation)
    gap = math.inf
    inner_tol = config.relative_gap_tol * 1e-3

    while iterations < config.max_iterations:
        costs = {a.id: perceived_cost(instance, deviation, a.id, arc_flows[a.id])
                 for a in instance.arcs}
        # column generation: bring in each commodity's current shortest path
        for state in states:
            best = shortest_path(instance, costs, state.commodity.source,
                                 state.commodity.sink)
            if best is None:
                raise _unreachable(state.commodity)
            state.flows.setdefault(best[0], 0.0)

        for state in states:
            for _ in range(200):
                iterations += 1
                path_costs = {p: sum(
                    perceived_cost(instance, deviation, a, arc_flows[a])
                    for a in p) for p in state.flows}
                carrying = {p: c for p, c in path_costs.items()
                            if state.flows[p] > 1e-15}
                if not carrying:
                    break
                p_from = max(carrying, key=lambda p: (carrying[p], p))
                p_to = min(path_costs, key=lambda p: (path_costs[p], p))
                scale = max(abs(path_costs[p_to]), 1.0)
                if carrying[p_from] - path_costs[p_to] <= inner_tol * scale:
                    break
                _shift(instance, deviation, arc_flows, state, p_from, p_to)

        flow = current_flow()
        potential = beckmann_potential(instance, flow, deviation)
        assert potential <= prev_potential + 1e-10, "potential increased"
        prev_potential = potential
        gap = relative_gap(instance, flow, deviation)
        if gap <= config.relative_gap_tol:
            return EquilibriumResult(Flow(instance, [s.flows for s in states]),
                                     gap, iterations, potential)
        inner_tol = min(inner_tol, max(gap * 1e-3, 1e-16))

    raise NotConverged(gap, config.relative_gap_tol, iterations)


def verify_nash(instance: Instance, flow: Flow,
                deviation: Deviation | None = None,
                eps: float = 1e-9) -> list[dict]:
    """Flow-carrying paths must be within eps of each commodity's shortest
    perceived path latency; returns the list of violations."""
    costs = {a.id: perceived_cost(instance, deviation, a.id,
                                  flow.arc_flow(a.id))
             for a in instance.arcs}
    report = []
    for i, (commodity, paths) in enumerate(
            zip(instance.commodities, flow.commodity_paths)):
        best = shortest_path(instance, costs, commodity.source, commodity.sink)
        if best is None:
            raise _unreachable(commodity)
        _, shortest = best
        for path, value in paths.items():
            if value <= 1e-15:
                continue
            cost = sum(costs[a] for a in path)
            if cost > shortest + eps:
                report.append({"commodity": i, "path": path, "flow": value,
                               "latency": cost, "shortest": shortest})
    return report


def worst_equilibrium_cost(instance: Instance,
                           deviation: Deviation | None = None,
                           config: SolverConfig = SolverConfig(),
                           seed: int = 0) -> float:
    """Best-effort worst Nash flow cost: the max social cost over restarts
    from randomized initial path assignments. A lower estimate of the true
    worst-equilibrium cost in general."""
    rng = random.Random(seed)
    best = social_cost(instance, wardrop(instance, deviation, config).flow)
    for _ in range(config.restarts - 1):
        initial = []
        for commodity in instance.commodities:
            paths = enumerate_paths(instance, commodity, config.path_cap)
            weights = [rng.random() for _ in paths]
            total = sum(weights)
            initial.append({p: commodity.demand * w / total
                            for p, w in zip(paths, weights)})
        result = wardrop(instance, deviation, config, initial_paths=initial)
        best = max(best, social_cost(instance, result.flow))
    return best
