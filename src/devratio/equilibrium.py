"""Wardrop equilibrium computation for perceived latencies l + delta.

The solver minimizes the Beckmann potential sum_a integral_0^{f_a} q_a(u) du
(q_a = l_a + delta_a) over feasible path flows. It combines path
equilibration (pairwise shifts between the most and least expensive active
paths, with an exact root search on the potential derivative) with column
generation: each round runs one shortest-path search per source, which
certifies the equilibrium gap and supplies the next round's columns.

Every equilibrium shares the perceived arc costs of the solved one, so the
worst equilibrium cost is exact: one LP over the face of equilibrium flows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq, linprog
from scipy.sparse import coo_array

from .core import (SUPPORT_EPS, ZERO_CURVE, Arc, Deviation, Flow, Instance,
                   Path, critical_points, social_cost)
from .errors import (ConstructionFailed, InvalidConfig, InvalidInstance,
                     NonLinearFace, NonMonotonePerceived, NotConverged)

_GAP_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    relative_gap_tol: float = 1e-8
    max_iterations: int = 200000

    def __post_init__(self):
        if not self.relative_gap_tol > 0.0:
            raise InvalidConfig("relative gap tolerance must be positive, "
                                f"got {self.relative_gap_tol!r}")
        if not self.max_iterations >= 1:
            raise InvalidConfig("max_iterations must be at least 1, "
                                f"got {self.max_iterations!r}")


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


def _perceived_terms(arc: Arc, deviation: Deviation | None) -> list:
    curves = {} if deviation is None else deviation.curves
    return [(1.0, arc.latency), (1.0, curves.get(arc.id, ZERO_CURVE))]


def check_monotone_perceived(instance: Instance,
                             deviation: Deviation | None) -> None:
    """Reject perceived latencies that decrease or go negative on the
    flow range [0, max(total demand, 1)]. Exact: q_a is monotone between
    its critical points, so each is compared with the highest before it."""
    x_max = max(instance.total_demand, 1.0)
    for arc in instance.arcs:
        peak = -math.inf
        for x in critical_points(_perceived_terms(arc, deviation), x_max):
            value = perceived_cost(instance, deviation, arc.id, x)
            if value < -1e-12:
                raise NonMonotonePerceived(
                    f"perceived latency negative on arc {arc.id!r} at x={x}")
            if value < peak - 1e-12:
                raise NonMonotonePerceived(
                    f"perceived latency decreasing on arc {arc.id!r} near x={x}")
            peak = max(peak, value)


def _bellman_ford(arcs: list[tuple[str, str, float]], dist: dict[str, float],
                  tol: float) -> tuple[dict[str, float], dict[str, int],
                                       list[int] | None]:
    """Bellman-Ford from the initial distances ``dist`` (one entry per
    node, inf where unreached), relaxing ``arcs`` [(tail, head, cost), ...]
    in the given order and improving a distance only by more than ``tol``.
    Returns the distances, the index of the predecessor arc of every
    improved node and a negative cycle as arc indices in path order, or
    None."""
    dist = dict(dist)
    pred: dict[str, int] = {}
    for _ in range(len(dist) - 1):
        changed = False
        for k, (tail, head, cost) in enumerate(arcs):
            d = dist[tail] + cost
            if d < dist[head] - tol:
                dist[head] = d
                pred[head] = k
                changed = True
        if not changed:
            return dist, pred, None
    for k, (tail, head, cost) in enumerate(arcs):
        if dist[tail] + cost < dist[head] - tol:
            # walk predecessors until a node repeats; the repeat closes the
            # negative cycle in the predecessor graph
            pred[head] = k
            seen: dict[str, int] = {}
            trail: list[int] = []
            node = head
            while node not in seen and node in pred:
                seen[node] = len(trail)
                trail.append(pred[node])
                node = arcs[pred[node]][0]
            if node not in seen:
                continue  # no pred cycle behind this arc; keep scanning
            cycle = trail[seen[node]:][::-1]
            if sum(arcs[j][2] for j in cycle) >= -1e-10:
                continue  # numerically neutral cycle; not a sound witness
            return dist, pred, cycle
    return dist, pred, None


def _search(instance: Instance, costs: dict[str, float], source: str
            ) -> tuple[dict[str, float], dict[str, int]]:
    """Distances from source over the instance's arcs (inf where
    unreachable) and, for every reached node but the source, the index in
    instance.arcs of its predecessor arc; ties broken by arc-id relaxation
    order."""
    init = dict.fromkeys(instance.nodes, math.inf)
    init[source] = 0.0
    dist, pred, cycle = _bellman_ford(
        [(a.tail, a.head, costs[a.id]) for a in instance.arcs], init, 1e-15)
    if cycle is not None:
        raise InvalidInstance("negative-cost cycle through arc "
                              f"{instance.arcs[cycle[0]].id!r}")
    return dist, pred


def _route(instance: Instance, dist: dict[str, float], pred: dict[str, int],
           source: str, sink: str) -> tuple[Path, float] | None:
    if not math.isfinite(dist[sink]):
        return None
    path: list[str] = []
    node = sink
    while node != source:
        arc = instance.arcs[pred[node]]
        path.append(arc.id)
        node = arc.tail
    return tuple(reversed(path)), dist[sink]


def shortest_path(instance: Instance, costs: dict[str, float],
                  source: str, sink: str) -> tuple[Path, float] | None:
    """Deterministic Bellman-Ford; ties broken by arc-id relaxation order."""
    dist, pred = _search(instance, costs, source)
    return _route(instance, dist, pred, source, sink)


def _shortest_paths(instance: Instance, costs: dict[str, float]
                    ) -> list[tuple[Path, float]]:
    """Each commodity's shortest path and its length, from one search per
    distinct source; an unreachable sink raises InvalidInstance."""
    searches = {source: _search(instance, costs, source) for source
                in dict.fromkeys(c.source for c in instance.commodities)}
    found = []
    for commodity in instance.commodities:
        best = _route(instance, *searches[commodity.source],
                      commodity.source, commodity.sink)
        if best is None:
            raise InvalidInstance(f"sink {commodity.sink!r} unreachable "
                                  f"from {commodity.source!r}")
        found.append(best)
    return found


def _arc_costs(instance: Instance, deviation: Deviation | None,
               arc_flows: dict[str, float]) -> dict[str, float]:
    """The perceived cost of every arc at the given arc flows."""
    return {a.id: perceived_cost(instance, deviation, a.id, arc_flows[a.id])
            for a in instance.arcs}


def beckmann_potential(instance: Instance, flow: Flow,
                       deviation: Deviation | None) -> float:
    total = 0.0
    for arc_id, x in flow.arc_flows.items():
        total += instance.arcs_by_id[arc_id].latency.integral(x)
        if deviation is not None:
            total += deviation.integral(arc_id, x)
    return total


def _gap(instance: Instance, commodity_paths: tuple[dict[Path, float], ...],
         costs: dict[str, float],
         shortest: list[tuple[Path, float]]) -> float:
    num = 0.0
    den = 0.0
    for commodity, paths, (_, least) in zip(instance.commodities,
                                            commodity_paths, shortest):
        avg = sum(v * sum(costs[a] for a in p) for p, v in paths.items())
        num += avg - commodity.demand * least
        den += commodity.demand * least
    return max(num, 0.0) / max(den, _GAP_DENOM_FLOOR)


def relative_gap(instance: Instance, flow: Flow,
                 deviation: Deviation | None) -> float:
    """(sum_i r_i (avg perceived_i - shortest_i)) / sum_i r_i shortest_i."""
    costs = _arc_costs(instance, deviation, flow.arc_flows)
    return _gap(instance, flow.commodity_paths, costs,
                _shortest_paths(instance, costs))


def _shift(instance: Instance, deviation: Deviation | None,
           arc_flows: dict[str, float], costs: dict[str, float],
           paths: dict[Path, float], p_from: Path, p_to: Path) -> None:
    """Move flow from p_from to p_to, minimizing the potential along the
    segment by an exact root search on its monotone derivative, and reprice
    the arcs that moved in costs."""
    only_to = [a for a in p_to if a not in set(p_from)]
    only_from = [a for a in p_from if a not in set(p_to)]
    d_max = paths[p_from]

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
    for a in only_to + only_from:
        costs[a] = perceived_cost(instance, deviation, a, arc_flows[a])
    paths[p_from] -= d
    paths[p_to] = paths.get(p_to, 0.0) + d
    for p in [p for p, v in paths.items() if v <= 1e-15]:
        del paths[p]


def wardrop(instance: Instance, deviation: Deviation | None = None,
            config: SolverConfig = SolverConfig(),
            initial_paths: list[dict[Path, float]] | None = None
            ) -> EquilibriumResult:
    """Equilibrium flow with certified relative gap <= the tolerance. Each
    round prices the flow once; one search per source gives the gap and,
    unless the gap ends the solve, each commodity's next column. The first
    round always runs, so ``iterations`` is at least the commodity count."""
    check_monotone_perceived(instance, deviation)
    if initial_paths is None:
        zero = _arc_costs(instance, deviation,
                          dict.fromkeys(instance.arcs_by_id, 0.0))
        columns = [{path: commodity.demand} for commodity, (path, _) in zip(
            instance.commodities, _shortest_paths(instance, zero))]
    else:
        columns = [dict(paths) for paths in initial_paths]

    # pair shifts keep arc_flows and costs current across rounds; each
    # round's gap prices the path flows as Flow sums them again
    flow = Flow(instance, columns, check=False)
    arc_flows = dict(flow.arc_flows)
    flow_costs = _arc_costs(instance, deviation, arc_flows)
    costs = dict(flow_costs)

    iterations = 0
    prev_potential = math.inf
    inner_tol = config.relative_gap_tol * 1e-3
    while True:
        potential = beckmann_potential(instance, flow, deviation)
        if not potential <= prev_potential + 1e-10:
            raise ConstructionFailed("potential increased")
        prev_potential = potential
        shortest = _shortest_paths(instance, flow_costs)
        gap = _gap(instance, flow.commodity_paths, flow_costs, shortest)
        # a start within the tolerance is still equilibrated once, to the
        # tighter inner_tol of the pair steps
        if iterations and gap <= config.relative_gap_tol:
            return EquilibriumResult(Flow(instance, columns), gap,
                                     iterations, potential)
        if iterations >= config.max_iterations:
            raise NotConverged(gap, config.relative_gap_tol, iterations)

        for paths, (path, _) in zip(columns, shortest):
            paths.setdefault(path, 0.0)
            for _ in range(200):
                iterations += 1
                path_costs = {p: sum(costs[a] for a in p) for p in paths}
                carrying = {p: c for p, c in path_costs.items()
                            if paths[p] > 1e-15}
                if not carrying:
                    break
                p_from = max(carrying, key=lambda p: (carrying[p], p))
                p_to = min(path_costs, key=lambda p: (path_costs[p], p))
                scale = max(abs(path_costs[p_to]), 1.0)
                if carrying[p_from] - path_costs[p_to] <= inner_tol * scale:
                    break
                _shift(instance, deviation, arc_flows, costs, paths, p_from,
                       p_to)
        flow = Flow(instance, columns, check=False)
        flow_costs = _arc_costs(instance, deviation, flow.arc_flows)


def verify_nash(instance: Instance, flow: Flow,
                deviation: Deviation | None = None,
                eps: float = 1e-9) -> list[dict]:
    """Flow-carrying paths must be within eps of each commodity's shortest
    perceived path latency; returns the list of violations."""
    costs = _arc_costs(instance, deviation, flow.arc_flows)
    report = []
    for i, (paths, (_, shortest)) in enumerate(
            zip(flow.commodity_paths, _shortest_paths(instance, costs))):
        for path, value in paths.items():
            if value <= 1e-15:
                continue
            cost = sum(costs[a] for a in path)
            if cost > shortest + eps:
                report.append({"commodity": i, "path": path, "flow": value,
                               "latency": cost, "shortest": shortest})
    return report


class _SparseRows:
    """Rows of a sparse LP constraint matrix, added one row at a time."""

    def __init__(self):
        self.entries: list[tuple[int, int, float]] = []  # (row, column, value)
        self.rhs: list[float] = []

    def add(self, coefs: list[tuple[int, float]], bound: float) -> None:
        self.entries.extend((len(self.rhs), col, val) for col, val in coefs)
        self.rhs.append(bound)

    def matrix(self, n_cols: int) -> coo_array:
        rows, cols, vals = zip(*self.entries)
        return coo_array((vals, (rows, cols)), shape=(len(self.rhs), n_cols))


def _face(instance: Instance, deviation: Deviation | None, arc: Arc,
          x: float, q: float, eps: float) -> tuple[float, float]:
    """The interval [lo, hi] of flows in [0, total demand] on which the
    perceived cost q_a equals q = q_a(x).

    q_a is non-decreasing, so the interval is a point or a plateau, whose
    ends are critical points of q_a. Plateaus no longer than the solver's
    accuracy collapse to the point x.
    """
    total = instance.total_demand
    tol = eps * max(1.0, abs(q))
    on = [x] + [p for p in critical_points(_perceived_terms(arc, deviation),
                                           total)
                if abs(perceived_cost(instance, deviation, arc.id, p) - q)
                <= tol]
    lo, hi = min(on), max(on)
    if hi - lo <= eps * max(1.0, total):
        return x, x
    return lo, hi


def worst_equilibrium_cost(instance: Instance,
                           deviation: Deviation | None = None,
                           config: SolverConfig = SolverConfig(),
                           seed: int = 0) -> float:
    """Exact worst Nash flow cost under the perceived latencies l + delta.

    Every equilibrium has the perceived arc costs q*_a of the solved one
    (Beckmann, McGuire & Winsten 1956), so the equilibria are the flows
    that keep each arc flow in its interval [lo_a, hi_a] where q_a = q*_a
    and route commodity i only over arcs of zero reduced cost under its
    shortest-path distances. When every interval is a point the arc flows
    of all equilibria agree and the solved cost is returned. Otherwise
    l_a is constant on each interval, the cost is linear on that
    polytope, and one sparse LP gives its maximum; the solved cost is
    returned unless the LP beats it by more than the tolerance. Exact up
    to the solver tolerance. ``seed`` is unused; it is kept for callers
    that pass it.

    Raises NonLinearFace when l_a varies on an arc's interval, or when
    arcs of zero reduced cost form a directed cycle.
    """
    solved = wardrop(instance, deviation, config).flow
    cost = social_cost(instance, solved)
    eps = 10.0 * config.relative_gap_tol
    x = solved.arc_flows
    q_star = _arc_costs(instance, deviation, x)
    faces = {a.id: _face(instance, deviation, a, x[a.id], q_star[a.id], eps)
             for a in instance.arcs}
    if all(lo == hi for lo, hi in faces.values()):
        return cost
    levels = {}  # l_a on its interval
    for arc in instance.arcs:
        lo, hi = faces[arc.id]
        levels[arc.id] = arc.latency.eval(lo)
        if arc.latency.eval(hi) - levels[arc.id] > eps * max(
                1.0, levels[arc.id]):
            raise NonLinearFace(
                f"latency of arc {arc.id!r} varies on its equilibrium "
                f"interval [{lo:.6g}, {hi:.6g}], so the cost is not linear "
                "over the equilibria")

    # (commodity, arc) pairs of zero reduced cost, plus the ones the solved
    # flow uses so that it stays feasible whatever the rounding
    columns: list[tuple[int, Arc]] = []
    dists = {s: _search(instance, q_star, s)[0]
             for s in dict.fromkeys(c.source for c in instance.commodities)}
    for i, commodity in enumerate(instance.commodities):
        dist = dists[commodity.source]
        tol = eps * max(1.0, dist[commodity.sink])
        carried = solved.commodity_arc_flows[i]
        tight = [a for a in instance.arcs
                 if faces[a.id][1] > SUPPORT_EPS
                 and math.isfinite(dist[a.tail])
                 and (carried[a.id] > SUPPORT_EPS
                      or dist[a.tail] + q_star[a.id] - dist[a.head] <= tol)]
        # at cost -1 per tight arc, every cycle among them is negative
        _, _, cycle = _bellman_ford([(a.tail, a.head, -1.0) for a in tight],
                                    dict.fromkeys(instance.nodes, 0.0), 1e-15)
        if cycle is not None:
            raise NonLinearFace(
                f"arc {tight[cycle[0]].id!r} lies on a cycle of zero "
                "perceived cost, so flow could circulate in an equilibrium")
        columns += [(i, a) for a in tight]

    conservation, capacity = _SparseRows(), _SparseRows()
    balance: dict[tuple[int, str], list[tuple[int, float]]] = {}
    per_arc: dict[str, list[int]] = {}
    for col, (i, arc) in enumerate(columns):
        balance.setdefault((i, arc.tail), []).append((col, 1.0))
        balance.setdefault((i, arc.head), []).append((col, -1.0))
        per_arc.setdefault(arc.id, []).append(col)
    for i, commodity in enumerate(instance.commodities):
        for node in instance.nodes:
            supply = (commodity.demand if node == commodity.source
                      else -commodity.demand if node == commodity.sink
                      else 0.0)
            conservation.add(balance.get((i, node), []), supply)
    for arc_id, cols in per_arc.items():
        lo, hi = faces[arc_id]
        capacity.add([(col, 1.0) for col in cols], hi)
        capacity.add([(col, -1.0) for col in cols], -lo)
    objective = [-levels[arc.id] for _, arc in columns]
    result = linprog(objective, A_ub=capacity.matrix(len(columns)),
                     b_ub=capacity.rhs,
                     A_eq=conservation.matrix(len(columns)),
                     b_eq=conservation.rhs, bounds=(0.0, None),
                     method="highs")
    if result.status != 0:
        raise ConstructionFailed(
            f"equilibrium-face LP failed: {result.message}")
    worst = -result.fun
    return worst if worst > cost + eps * max(1.0, cost) else cost
