"""Wardrop equilibrium computation for perceived latencies l + delta.

The solver minimizes the Beckmann potential sum_a integral_0^{f_a} q_a(u) du
(q_a = l_a + delta_a) by column generation: one shortest-path search per
source and round certifies the gap and supplies the next columns, which
projected Newton steps (Bertsekas 1982; Bertsekas & Gafni 1983) equilibrate.

Every equilibrium shares the perceived arc costs of the solved one, so the
worst equilibrium cost is exact: one LP over the face of equilibrium flows,
solved by the ``lp`` layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from operator import mul

import numpy as np

from . import lp
from .core import (SUPPORT_EPS, Arc, Curve, Deviation, Flow, Instance, Path,
                   _value_and_slope, critical_points, social_cost)
from .errors import (ConstructionFailed, InvalidConfig, InvalidInstance,
                     NonLinearFace, NonMonotonePerceived, NotConverged)

@dataclass(frozen=True)
class SolverConfig:
    relative_gap_tol: float = 1e-8
    max_iterations: int = 200000

    def __post_init__(self):
        if not 0.0 < self.relative_gap_tol < math.inf:
            raise InvalidConfig("relative gap tolerance must be positive and "
                                f"finite, got {self.relative_gap_tol!r}")
        if not self.max_iterations >= 1:
            raise InvalidConfig("max_iterations must be at least 1, "
                                f"got {self.max_iterations!r}")


@dataclass(frozen=True)
class EquilibriumResult:
    flow: Flow
    relative_gap: float
    iterations: int
    potential_value: float


def _terms(instance: Instance, deviation: Deviation | None) -> dict:
    """q_a = l_a + delta_a per arc as its curves (l_a,) or (l_a, delta_a)."""
    curves = {} if deviation is None else deviation.curves
    return {a.id: (a.latency,) if (dev := curves.get(a.id)) is None
            else (a.latency, dev) for a in instance.arcs}


def _q(curves: tuple, x: float, at=Curve.eval) -> float:
    q = 0.0  # q_a(x), or with ``at=Curve.slope`` its right derivative
    for c in curves:
        q += at(c, x)
    return q


def check_monotone_perceived(instance: Instance,
                             deviation: Deviation | None) -> None:
    """Reject a q_a that decreases or goes negative on [0, max(total demand,
    1)], exactly: q_a at each critical point is compared with its peak so
    far. l_a alone and polynomials with non-negative coefficients pass."""
    x_max = max(instance.total_demand, 1.0)
    for arc_id, curves in _terms(instance, deviation).items():
        if len(curves) == 1 or all(c.kind == "poly" for c in curves) and all(
                u + v >= 0.0 for u, v in zip_longest(
                    *(c.data for c in curves), fillvalue=0.0)):
            continue
        peak = -math.inf
        for x in critical_points([(1.0, c) for c in curves], x_max):
            value = _q(curves, x)
            if value < -1e-12:
                raise NonMonotonePerceived(
                    f"perceived latency negative on arc {arc_id!r} at x={x}")
            if value < peak - 1e-12:
                raise NonMonotonePerceived(
                    f"perceived latency decreasing on arc {arc_id!r} near x={x}")
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
            seen, trail, node = {}, [], head  # node -> its index in trail
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
    init = {**dict.fromkeys(instance.nodes, math.inf), source: 0.0}
    dist, pred, cycle = _bellman_ford(
        [(a.tail, a.head, costs[a.id]) for a in instance.arcs], init, 1e-15)
    if cycle is not None:
        raise InvalidInstance("negative-cost cycle through arc "
                              f"{instance.arcs[cycle[0]].id!r}")
    return dist, pred


def _shortest_paths(instance: Instance, costs: dict[str, float],
                    searches: dict | None = None) -> list[tuple[Path, float]]:
    """Each commodity's shortest path and its length, one search per source
    (stored in ``searches``); an unreachable sink raises InvalidInstance."""
    searches = {} if searches is None else searches
    for source in dict.fromkeys(c.source for c in instance.commodities):
        searches[source] = _search(instance, costs, source)
    found = []
    for commodity in instance.commodities:
        (dist, pred), node = searches[commodity.source], commodity.sink
        if not math.isfinite(dist[node]):
            raise InvalidInstance(f"sink {node!r} unreachable "
                                  f"from {commodity.source!r}")
        path: list[str] = []
        while node != commodity.source:
            path.append(instance.arcs[pred[node]].id)
            node = instance.arcs[pred[node]].tail
        found.append((tuple(reversed(path)), dist[commodity.sink]))
    return found


def _arc_costs(terms: dict, arc_flows: dict[str, float]) -> dict[str, float]:
    """The perceived cost of every arc at the given arc flows."""
    return {a: _q(curves, arc_flows[a]) for a, curves in terms.items()}


def beckmann_potential(instance: Instance, flow: Flow,
                       deviation: Deviation | None) -> float:
    return sum(c.integral(flow.arc_flows[a])
               for a, cs in _terms(instance, deviation).items() for c in cs)


def _gap(instance: Instance, commodity_paths: tuple[dict[Path, float], ...],
         costs: dict[str, float], shortest: list[tuple[Path, float]]) -> float:
    num = den = 0.0
    for commodity, paths, (_, least) in zip(instance.commodities,
                                            commodity_paths, shortest):
        avg = sum(v * sum(costs[a] for a in p) for p, v in paths.items())
        num += avg - commodity.demand * least
        den += commodity.demand * least
    return max(num, 0.0) / max(den, 1e-12)  # floored for zero costs


def relative_gap(instance: Instance, flow: Flow,
                 deviation: Deviation | None) -> float:
    """(sum_i r_i (avg perceived_i - shortest_i)) / sum_i r_i shortest_i."""
    costs = _arc_costs(_terms(instance, deviation), flow.arc_flows)
    return _gap(instance, flow.commodity_paths, costs,
                _shortest_paths(instance, costs))


def _step(terms: dict, arc_flows: dict[str, float], costs: dict[str, float],
          free: list) -> bool:
    """Projected Newton step over ``free`` [(paths, p, r, c_p - c_r), ...]:
    p moves at rate y_p against its reference r, M y = -(c_p - c_r) with
    M = Z diag(q') Z^T + 1e-9 max diag I, Z_p = p's arcs minus r's, q' =
    right slope, refined once so that y is exact on the range of Z diag(q')
    Z^T; a zero-flow p with y_p < 0 leaves and y is re-solved; a lone p
    moves at -sign(c_p - c_r). An exact line search and a ratio test stop
    at the least potential before a path empties. Updates arc_flows,
    costs; False if no descent."""
    sides: dict[str, list] = {}  # arc -> [(row k, +1 on p_k, -1 on r_k)]
    for k, (_, p, r, _) in enumerate(free):
        on_p, on_r = set(p), set(r)
        for a in p + r:
            if s := (a in on_p) - (a in on_r):
                sides.setdefault(a, []).append((k, s))
    keep, y = [0], [-math.copysign(1.0, free[0][3])]
    if len(free) > 1:
        gram = [[0.0] * len(free) for _ in free]
        for a, rows in sides.items():
            w = _q(terms[a], arc_flows[a], Curve.slope)
            for k, s in rows:
                for j, t in rows:
                    gram[k][j] += s * t * w
        keep, kept = list(range(len(free))), None
        while keep and keep != kept:
            kept, reg = keep, 1e-9 * max(gram[k][k] for k in keep) or 1.0
            low = np.linalg.cholesky(
                [[gram[k][j] + reg * (k == j) for j in keep] for k in keep]
            ).tolist()
            y = _cholesky_solve(low, [-free[k][3] for k in keep])
            # reg y is the residual of the unregularised system
            y = [u + v for u, v in zip(y, _cholesky_solve(
                low, [reg * u for u in y]))]
            keep = [k for k, v in zip(kept, y)
                    if v >= 0.0 or free[k][0][free[k][1]] > 0.0]
    rates, rate = dict(zip(keep, y)), {}
    for k, v in rates.items():
        paths, p, r, _ = free[k]
        rate[p] = paths, v
        rate[r] = paths, rate.get(r, (paths, 0.0))[1] - v
    moving = [(a, terms[a], arc_flows[a], d) for a, rows in sides.items()
              if (d := sum(s * rates.get(k, 0.0) for k, s in rows))]
    t_max, stop = min(((paths[p] / -v, p) for p, (paths, v) in rate.items()
                       if v < 0.0), default=(0.0, None))
    if not t_max > 0.0 or (t := _line_search(moving, t_max)) is None:
        return False
    for a, curves, f, d in moving:
        arc_flows[a] = f + t * d
        costs[a] = _q(curves, f + t * d)
    for p, (paths, v) in rate.items():
        paths[p] += t * v
        if paths[p] <= 1e-15 or (p == stop and t == t_max):
            del paths[p]
    return True


def _cholesky_solve(low: list[list[float]], b: list[float]) -> list[float]:
    """x with L L^T x = b for the lower triangular L = ``low``: forward
    substitution on L, then back substitution on L^T, whose rows are L's
    columns."""
    y: list[float] = []
    for row, v in zip(low, b):
        y.append((v - sum(map(mul, row, y))) / row[len(y)])
    x: list[float] = []  # backwards, last entry first
    for col, v in zip(reversed(list(zip(*low))), reversed(y)):
        x.append((v - sum(map(mul, reversed(col), x))) / col[-1 - len(x)])
    return x[::-1]


def _line_search(moving: list, t_max: float) -> float | None:
    """The least t in [0, t_max] with g(t) = sum_a q_a(f_a + t d_a) d_a >= 0
    over ``moving`` [(arc, curves of q_a, f_a, d_a), ...]; t_max if g stays
    negative, None if g(0) >= 0. Between the pwl breakpoints that the step
    crosses g is one polynomial: ``coef`` holds it on the current piece and
    each kink (t_k, jump) adds jump to its slope from t_k on."""
    coef, kinks = [0.0, 0.0], []
    for _, curves, f, d in moving:
        for c in curves:
            if c.kind == "pwl":
                coef[0] += c.eval(f) * d
                coef[1] += c.slope(f) * d * d
                xs, slopes = c.pieces
                for x, before, after in zip(xs, slopes, slopes[1:]):
                    t_k = (x - f) / d  # d < 0 crosses a kink at f at 0
                    if 0.0 < t_k < t_max or (t_k == 0.0 and d < 0.0):
                        kinks.append((t_k, (after - before) * d * abs(d)))
            elif len(c.data) == 1:  # a constant needs no Taylor shift
                coef[0] += c.data[0] * d
            else:
                taylor = list(c.data)  # c's Taylor coefficients at f
                for i in range(len(taylor) - 1):
                    for k in range(len(taylor) - 2, i - 1, -1):
                        taylor[k] += f * taylor[k + 1]
                coef += [0.0] * (len(taylor) - len(coef))
                for j, v in enumerate(taylor):
                    coef[j] += v * d ** (j + 1)
    if not coef[0] < 0.0:
        return None
    lo, g_lo = 0.0, coef[0]
    for hi, jump in sorted(kinks) + [(t_max, 0.0)]:
        g_hi = _value_and_slope(coef, hi)[0]
        if g_hi > 0.0:
            if not any(coef[2:]):  # affine on [lo, hi]: the exact secant
                return lo + (hi - lo) * g_lo / (g_lo - g_hi)
            t = hi  # Newton steps safeguarded by bisection
            for _ in range(100):
                value, slope = _value_and_slope(coef, t)
                lo, hi = (lo, t) if value > 0.0 else (t, hi)
                step = t - value / slope if slope > 0.0 else lo
                if abs(step - t) <= 1e-15 * t:
                    break
                t = step if lo < step < hi else 0.5 * (lo + hi)
            return t
        coef[0] -= jump * hi
        coef[1] += jump
        lo, g_lo = hi, g_hi
    return t_max


def _solve(instance: Instance, deviation: Deviation | None,
           config: SolverConfig, initial_paths: list[dict[Path, float]] | None
           ) -> tuple[EquilibriumResult, dict[str, float], dict]:
    """``wardrop``, also returning the last round's arc costs and searches."""
    check_monotone_perceived(instance, deviation)
    # a phase ends at 1e-3 of the gap tolerance, floored at float rounding
    terms = _terms(instance, deviation)
    inner = max(1e-3 * config.relative_gap_tol, 1e-15)
    # an empty start takes each commodity's shortest path at zero flow
    columns = list(map(dict, initial_paths or [{}] * len(instance.commodities)))
    iterations, prev_potential = 0, math.inf
    while True:
        flow = Flow(instance, columns, check=False)
        costs, searches = _arc_costs(terms, flow.arc_flows), {}
        shortest = _shortest_paths(instance, costs, searches)
        if iterations:  # so a start within tolerance is equilibrated once
            potential = sum([c.integral(flow.arc_flows[a])
                             for a, cs in terms.items() for c in cs])
            if not potential <= prev_potential + 1e-10:
                raise ConstructionFailed("potential increased")
            prev_potential = potential
            gap = _gap(instance, flow.commodity_paths, costs, shortest)
            if gap <= config.relative_gap_tol:
                flow._check_feasibility()  # once, on the returned flow
                result = EquilibriumResult(flow, gap, iterations, potential)
                return result, costs, searches
            if iterations >= config.max_iterations:
                raise NotConverged(gap, config.relative_gap_tol, iterations)
        for c, paths, (p, _) in zip(instance.commodities, columns, shortest):
            paths.setdefault(p, 0.0 if paths else c.demand)
        # Newton steps until every carrying path is near its commodity's least
        arc_flows, steps = dict(flow.arc_flows), 0
        while iterations + steps < config.max_iterations:
            free, ahead = [], False
            for paths in columns:
                cost = {p: sum(map(costs.__getitem__, p)) for p in paths}
                least = min(cost.values())
                top = max(cost[p] for p in paths if paths[p] > 0.0)
                ref = min(cost, key=lambda p: (paths[p] == 0.0, cost[p], p))
                ahead = ahead or top - least > inner * max(abs(least), 1.0)
                free += [(paths, p, ref, cost[p] - cost[ref]) for p in paths
                         if p != ref and (paths[p] or cost[p] <= cost[ref])]
            if not ahead or not _step(terms, arc_flows, costs, free):
                break
            steps += 1
        iterations += max(steps, 1)


def wardrop(instance: Instance, deviation: Deviation | None = None,
            config: SolverConfig = SolverConfig(),
            initial_paths: list[dict[Path, float]] | None = None
            ) -> EquilibriumResult:
    """Equilibrium flow with certified relative gap <= the tolerance, by
    column generation and projected Newton steps. ``iterations`` counts the
    Newton steps that moved flow, and at least 1 a round."""
    return _solve(instance, deviation, config, initial_paths)[0]


def verify_nash(instance: Instance, flow: Flow,
                deviation: Deviation | None = None,
                eps: float = 1e-9) -> list[dict]:
    """Flow-carrying paths must be within eps of each commodity's shortest
    perceived path latency; returns the list of violations."""
    costs = _arc_costs(_terms(instance, deviation), flow.arc_flows)
    report = []
    for i, (paths, (_, shortest)) in enumerate(
            zip(flow.commodity_paths, _shortest_paths(instance, costs))):
        for path, value in paths.items():
            cost = sum(costs[a] for a in path)
            if value > 1e-15 and cost > shortest + eps:
                report.append({"commodity": i, "path": path, "flow": value,
                               "latency": cost, "shortest": shortest})
    return report


def _face(curves: tuple, total: float, x: float, q: float,
          eps: float) -> tuple[float, float]:
    """The interval [lo, hi] of flows in [0, total] on which the perceived
    cost q_a, the sum of ``curves``, equals q = q_a(x).

    q_a is non-decreasing, so the interval is a point or a plateau, whose
    ends are critical points of q_a. Plateaus no longer than the solver's
    accuracy collapse to the point x.
    """
    tol = eps * max(1.0, abs(q))
    on = [x] + [p for p in critical_points([(1.0, c) for c in curves], total)
                if abs(_q(curves, p) - q) <= tol]
    lo, hi = min(on), max(on)
    return (x, x) if hi - lo <= eps * max(1.0, total) else (lo, hi)


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
    solution, q_star, searches = _solve(instance, deviation, config, None)
    solved, eps = solution.flow, 10.0 * config.relative_gap_tol
    cost, x = social_cost(instance, solved), solved.arc_flows
    faces = {a: _face(curves, instance.total_demand, x[a], q_star[a], eps)
             for a, curves in _terms(instance, deviation).items()}
    if all(lo == hi for lo, hi in faces.values()):
        return cost
    levels = {}  # l_a on its interval
    for arc in instance.arcs:
        lo, hi = faces[arc.id]
        level = levels[arc.id] = arc.latency.eval(lo)
        if arc.latency.eval(hi) - level > eps * max(1.0, level):
            raise NonLinearFace(
                f"latency of arc {arc.id!r} varies on its equilibrium "
                f"interval [{lo:.6g}, {hi:.6g}], so the cost is not linear "
                "over the equilibria")

    # (commodity, arc) pairs of zero reduced cost, plus the ones the solved
    # flow uses so that it stays feasible whatever the rounding
    columns: list[tuple[int, Arc]] = []
    for i, commodity in enumerate(instance.commodities):
        dist = searches[commodity.source][0]
        tol = eps * max(1.0, dist[commodity.sink])
        carried = dict.fromkeys(x, 0.0)  # commodity i's arc flows
        for path, value in solved.commodity_paths[i].items():
            for arc_id in path:
                carried[arc_id] += value
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

    conservation, capacity = [], []
    balance, per_arc = {}, {}  # keyed by (commodity, node) and by arc
    for col, (i, arc) in enumerate(columns):
        balance.setdefault((i, arc.tail), []).append((col, 1.0))
        balance.setdefault((i, arc.head), []).append((col, -1.0))
        per_arc.setdefault(arc.id, []).append(col)
    for i, commodity in enumerate(instance.commodities):
        for node in instance.nodes:
            supply = commodity.demand * ((node == commodity.source)
                                         - (node == commodity.sink))
            conservation.append((balance.get((i, node), []), supply))
    for arc_id, cols in per_arc.items():
        lo, hi = faces[arc_id]
        capacity.append(([(col, 1.0) for col in cols], hi))
        capacity.append(([(col, -1.0) for col in cols], -lo))
    result = lp.solve([-levels[arc.id] for _, arc in columns], capacity,
                      conservation)
    if result.status != 0:
        raise ConstructionFailed(
            f"equilibrium-face LP failed: {result.message}")
    worst = -result.fun
    return worst if worst > cost + eps * max(1.0, cost) else cost
