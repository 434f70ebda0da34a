"""Deciding whether a flow is inducible by a feasible threshold deviation.

The decision procedure builds an auxiliary graph whose forward arcs carry
cost l_a + theta^max_a and whose reversed arcs (one per flow-carrying arc)
carry cost -(l_a + theta^min_a), both evaluated at the given arc flows. On
common-source instances the flow is inducible if and only if this graph
has no negative-cost cycle; shortest-path potentials then recover an
inducing deviation. Both come from one search from the common source with
the Bellman-Ford kernel that the equilibrium solver uses. With several
sources the cycle test fails (remark B1); the oracle decides inducibility
there by an exact margin LP over per-arc deviation values and
per-commodity potentials, for any number of sources, solved by ``lp``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import lp
from .core import SUPPORT_EPS, Curve, Deviation, Flow, Instance, _dot
from .equilibrium import _bellman_ford, verify_nash
from .errors import (ConstructionFailed, InvalidInstance, NotCommonSource,
                     NotInducible)


@dataclass(frozen=True)
class AuxArc:
    arc_id: str
    tail: str
    head: str
    cost: float
    is_reversed: bool


@dataclass(frozen=True)
class AuxGraph:
    nodes: tuple[str, ...]
    arcs: tuple[AuxArc, ...]

    def to_dot(self) -> str:
        return _dot("aux", self.nodes, [
            (a.tail, a.head, f'label="{a.arc_id}: {a.cost:.6g}", style='
             + ("dashed" if a.is_reversed else "solid")) for a in self.arcs])


def _arc_table(instance: Instance, flow: Flow
               ) -> dict[str, tuple[float, float, float]]:
    """l_a, theta^min_a and theta^max_a of every arc at its flow."""
    table = {}
    for arc in instance.arcs:
        x = flow.arc_flow(arc.id)
        lo, hi = instance.theta[arc.id]
        table[arc.id] = (arc.latency.eval(x), lo.eval(x), hi.eval(x))
    return table


def build_aux_graph(instance: Instance, flow: Flow) -> AuxGraph:
    """Forward copies of all arcs plus reversed copies of support arcs."""
    return _aux_graph(instance, flow, _arc_table(instance, flow))


def _aux_graph(instance: Instance, flow: Flow,
               table: dict[str, tuple[float, float, float]]) -> AuxGraph:
    aux: list[AuxArc] = []
    for arc in instance.arcs:
        x = flow.arc_flow(arc.id)
        latency, lo, hi = table[arc.id]
        aux.append(AuxArc(arc.id, arc.tail, arc.head, latency + hi, False))
        if x > SUPPORT_EPS:
            backward = -(latency + lo)
            if backward > 1e-12:
                raise InvalidInstance(
                    f"l + theta_min = {-backward} < 0 on arc {arc.id!r} at "
                    f"its flow x={x}")
            aux.append(AuxArc(arc.id, arc.head, arc.tail, backward, True))
    return AuxGraph(instance.nodes, tuple(aux))


@dataclass(frozen=True)
class InducibilityResult:
    inducible: bool
    witness: tuple[AuxArc, ...] | None = None

    def __bool__(self) -> bool:
        return self.inducible


def _aux_search(instance: Instance, flow: Flow
                ) -> tuple[dict[str, float], tuple[AuxArc, ...] | None,
                           dict[str, tuple[float, float, float]]]:
    """Bellman-Ford from the common source over the auxiliary graph: the
    distance of every node (inf where unreachable), a negative cycle or
    None, and the per-arc table the graph was built from."""
    if not instance.common_source:
        raise NotCommonSource(
            "the negative-cycle test needs a single common source; with "
            "several sources a flow can be inducible even though its "
            "auxiliary graph has a negative cycle")
    table = _arc_table(instance, flow)
    graph = _aux_graph(instance, flow, table)
    init = dict.fromkeys(graph.nodes, math.inf)
    init[instance.source] = 0.0
    dist, _, cycle = _bellman_ford(
        [(a.tail, a.head, a.cost) for a in graph.arcs], init, 1e-12)
    return (dist, None if cycle is None
            else tuple(graph.arcs[k] for k in cycle), table)


def is_inducible(instance: Instance, flow: Flow) -> InducibilityResult:
    """Negative-cycle test on the auxiliary graph.

    One Bellman-Ford search from the common source, with the kernel that
    the equilibrium solver uses; a negative cycle it finds is the witness.
    One search suffices: under the threshold assumption every forward aux
    arc costs l + theta^max >= 0, so a negative cycle passes through a
    reversed flow-carrying arc, whose ends lie on flow paths from the
    source.

    Only valid for common-source instances: with several sources a flow
    can be inducible although the auxiliary graph has a negative cycle
    (the cycle may mix arcs that no single commodity can trade against).
    """
    _, cycle, _ = _aux_search(instance, flow)
    if cycle is not None:
        return InducibilityResult(False, cycle)
    return InducibilityResult(True)


def recover_deviation(instance: Instance, flow: Flow) -> Deviation:
    """Inducing deviation from auxiliary shortest-path potentials.

    At the flow point, delta_a = max{theta^min_a, pi_head - pi_tail - l_a};
    the single value extends to a function by scaling theta^max (value >= 0)
    or theta^min (value < 0), so threshold feasibility holds everywhere.
    """
    pi, cycle, table = _aux_search(instance, flow)
    if cycle is not None:
        raise NotInducible("flow admits no feasible inducing deviation")
    curves: dict[str, Curve] = {}
    for arc in instance.arcs:
        if not (math.isfinite(pi.get(arc.tail, math.inf))
                and math.isfinite(pi.get(arc.head, math.inf))):
            continue  # unreachable from the source: any feasible value works
        latency, lo, hi = table[arc.id]
        value = max(lo, pi[arc.head] - pi[arc.tail] - latency)
        value = min(max(value, lo), hi)
        if value >= 0.0:
            if hi > 1e-15:
                curves[arc.id] = instance.theta[arc.id][1].scale(value / hi)
            elif value > 1e-15:
                curves[arc.id] = Curve.constant(value)
        else:
            if lo < -1e-15:
                curves[arc.id] = instance.theta[arc.id][0].scale(value / lo)
            else:
                curves[arc.id] = Curve.constant(value)
    deviation = Deviation({a: c for a, c in curves.items()
                           if c.kind != "poly" or any(c.data)})
    violations = verify_nash(instance, flow, deviation, eps=1e-7)
    if violations:
        raise ConstructionFailed(
            f"recovered deviation fails the equilibrium check: {violations[:3]}")
    return deviation


@dataclass(frozen=True)
class OracleResult:
    inducible: bool
    #: least worst-path violation over feasible deviations (0 when inducible)
    margin: float
    #: resolution of the decision; the margin LP is exact, so always 0
    step: float

    def __bool__(self) -> bool:
        return self.inducible


def oracle_inducible(instance: Instance, flow: Flow) -> OracleResult:
    """Exact inducibility decision by one margin LP; any number of sources.

    Variables are the deviation values delta_a in [theta^min_a, theta^max_a]
    at the flow point, one potential vector pi^i per commodity and the
    margin t >= 0. Arc rows pi^i_head - pi^i_tail - delta_a <= l_a keep
    pi^i_sink - pi^i_source below commodity i's shortest perceived path;
    each flow-carrying path P of commodity i adds
    c_P(delta) - (pi^i_sink - pi^i_source) <= t. The least t is the least
    worst violation of the equilibrium conditions, which is the toll
    enforcement LP with two-sided toll bounds. The reported margin is
    re-measured with verify_nash at the LP's deviation clamped into its
    bounds, so it is a violation that a feasible deviation reaches.
    """
    arcs = instance.arcs
    n_arcs, n_nodes = len(arcs), len(instance.nodes)
    node_index = {v: j for j, v in enumerate(instance.nodes)}
    arc_index = {a.id: j for j, a in enumerate(arcs)}
    n_vars = n_arcs + n_nodes * len(instance.commodities) + 1
    base, lows, highs = zip(*_arc_table(instance, flow).values())
    rows = []
    for i, (commodity, paths) in enumerate(zip(instance.commodities,
                                               flow.commodity_paths)):
        pi = n_arcs + i * n_nodes
        for j, arc in enumerate(arcs):
            rows.append(([(pi + node_index[arc.head], 1.0),
                          (pi + node_index[arc.tail], -1.0), (j, -1.0)],
                         base[j]))
        for path, value in paths.items():
            if value > SUPPORT_EPS:
                rows.append(([(arc_index[a], 1.0) for a in path]
                             + [(pi + node_index[commodity.sink], -1.0),
                                (pi + node_index[commodity.source], 1.0),
                                (n_vars - 1, -1.0)],
                             -sum(base[arc_index[a]] for a in path)))
    bounds = (list(zip(lows, highs))
              + [(None, None)] * (n_vars - n_arcs - 1) + [(0.0, None)])
    cost = [0.0] * (n_vars - 1) + [1.0]
    result = lp.solve(cost, rows, bounds=bounds)
    if result.status != 0:
        raise ConstructionFailed(f"margin LP failed: {result.message}")
    delta = {a.id: min(max(float(v), lo), hi)
             for a, v, lo, hi in zip(arcs, result.x, lows, highs)}
    violations = verify_nash(instance, flow, Deviation.constants(delta),
                             eps=0.0)
    margin = max((v["latency"] - v["shortest"] for v in violations
                  if v["flow"] > SUPPORT_EPS), default=0.0)
    return OracleResult(margin <= 1e-9, margin, step=0.0)


def check_path_inequalities(instance: Instance, flow: Flow,
                            alt_paths: list[tuple[int, list[AuxArc]]]
                            ) -> list[dict]:
    """Check the two inducibility path inequalities for supplied aux paths.

    For an inducible flow x, every (s,t_i)-path chi and (t_i,s)-path psi
    in the auxiliary graph satisfies

        min over flow-carrying P_i of sum_{a in P_i} (l_a + theta^min_a)
            <= sum_{chi, forward} (l_a + theta^max_a)
             - sum_{chi, reversed} (l_a + theta^min_a)

        max over flow-carrying P_i of sum_{a in P_i} (l_a + theta^max_a)
            >= sum_{psi, reversed} (l_a + theta^min_a)
             - sum_{psi, forward} (l_a + theta^max_a)

    (strengthened here to the extremal flow-carrying path, since the
    inequalities hold for every choice). ``alt_paths`` holds pairs of
    commodity index and aux-arc list; orientation is inferred from the
    path's endpoints. Returns the list of violations.
    """
    source = instance.source
    table = _arc_table(instance, flow)
    lo_cost = {a: latency + lo for a, (latency, lo, _) in table.items()}
    hi_cost = {a: latency + hi for a, (latency, _, hi) in table.items()}

    report = []
    for i, aux_path in alt_paths:
        commodity = instance.commodities[i]
        carrying = [p for p, v in flow.commodity_paths[i].items()
                    if v > SUPPORT_EPS]
        if not carrying:
            continue
        start = aux_path[0].tail
        end = aux_path[-1].head
        path = [(a.arc_id, a.is_reversed) for a in aux_path]
        rhs_fwd = sum(hi_cost[a.arc_id] for a in aux_path if not a.is_reversed)
        rhs_rev = sum(lo_cost[a.arc_id] for a in aux_path if a.is_reversed)
        if start == source and end == commodity.sink:
            lhs = min(sum(lo_cost[a] for a in p) for p in carrying)
            rhs = rhs_fwd - rhs_rev
            if lhs > rhs + 1e-9:
                report.append({"commodity": i, "kind": "source_to_sink",
                               "lhs": lhs, "rhs": rhs, "path": path})
        elif start == commodity.sink and end == source:
            lhs = max(sum(hi_cost[a] for a in p) for p in carrying)
            rhs = rhs_rev - rhs_fwd
            if lhs < rhs - 1e-9:
                report.append({"commodity": i, "kind": "sink_to_source",
                               "lhs": lhs, "rhs": rhs, "path": path})
        else:
            report.append({"commodity": i, "kind": "bad_endpoints",
                           "path": path})
    return report
