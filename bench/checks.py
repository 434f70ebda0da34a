"""Checks of devratio's answers that do not use devratio's own code.

Everything here starts from the JSON the program writes (``Instance.to_json``,
``Flow.to_json``, ``Deviation.to_json``) and recomputes arc flows, latencies,
thresholds, shortest paths and negative cycles itself, or compares against a
closed form from the paper (arXiv:1605.01510). Each check raises
:class:`CheckFailed` with a message when an answer is wrong.
"""
from __future__ import annotations

import heapq
import math


class CheckFailed(Exception):
    """An output of the program failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(value: float, target: float, rel: float, what: str) -> None:
    require(abs(value - target) <= rel * max(1.0, abs(target)),
            f"{what}: {value!r} differs from {target!r} by more than {rel:g}")


# ---------------------------------------------------------------------------
# Curves and networks, read from the program's JSON
# ---------------------------------------------------------------------------
def curve(spec: dict):
    """Evaluator for a curve spec: {"poly": [c0, c1, ...]} or
    {"pwl": [[x, y], ...]} (constant before the first breakpoint, last
    slope continued after the last one)."""
    if "poly" in spec:
        coeffs = [float(c) for c in spec["poly"]]
        return lambda x: sum(c * x ** k for k, c in enumerate(coeffs))
    pts = [(float(x), float(y)) for x, y in spec["pwl"]]

    def pwl(x: float) -> float:
        if x <= pts[0][0] or len(pts) == 1:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        return y1 + (y1 - y0) * (x - x1) / (x1 - x0)
    return pwl


def _zero(_x: float) -> float:
    return 0.0


class Net:
    """A routing instance as the benchmark reads it from instance JSON."""

    def __init__(self, spec: dict):
        self.nodes = list(spec["nodes"])
        self.tail, self.head, self.lat = {}, {}, {}
        self.out = {v: [] for v in self.nodes}
        for arc in spec["arcs"]:
            a = arc["id"]
            self.tail[a], self.head[a] = arc["tail"], arc["head"]
            self.lat[a] = curve(arc["latency"])
            self.out[arc["tail"]].append(a)
        self.commodities = [(c["source"], c["sink"], float(c["demand"]))
                            for c in spec["commodities"]]
        self.total_demand = sum(r for _, _, r in self.commodities)
        th = spec.get("thresholds", {"kind": "per_arc"})
        if th["kind"] == "alpha_beta":
            alpha, beta = float(th["alpha"]), float(th["beta"])
            self.theta_min = {a: (lambda x, f=f: alpha * f(x))
                              for a, f in self.lat.items()}
            self.theta_max = {a: (lambda x, f=f: beta * f(x))
                              for a, f in self.lat.items()}
        else:
            lower = {a: curve(s) for a, s in th.get("theta_min", {}).items()}
            upper = {a: curve(s) for a, s in th.get("theta_max", {}).items()}
            self.theta_min = {a: (lambda x, f=lower.get(a, _zero): -f(x))
                              for a in self.lat}
            self.theta_max = {a: upper.get(a, _zero) for a in self.lat}

    def perceived(self, flows: dict, deviation: dict | None) -> dict:
        dev = {a: curve(s) for a, s in (deviation or {}).get("arcs", {}).items()}
        return {a: self.lat[a](x) + (dev[a](x) if a in dev else 0.0)
                for a, x in flows.items()}


# ---------------------------------------------------------------------------
# Flows and equilibria
# ---------------------------------------------------------------------------
def arc_flows(net: Net, flow: dict) -> dict:
    """Arc flows of a path flow; checks that every path runs from its
    commodity's source to its sink and that the demands are met."""
    require(len(flow["commodities"]) == len(net.commodities),
            "flow has the wrong number of commodities")
    flows = {a: 0.0 for a in net.lat}
    for (source, sink, demand), entry in zip(net.commodities,
                                              flow["commodities"]):
        total = 0.0
        for path in entry["paths"]:
            value = float(path["value"])
            require(value >= -1e-12, f"negative path flow {value}")
            node = source
            for a in path["arcs"]:
                require(a in net.tail and net.tail[a] == node,
                        f"path {path['arcs']} is not connected at {a}")
                node = net.head[a]
                flows[a] += value
            require(node == sink, f"path {path['arcs']} misses sink {sink}")
            total += value
        close(total, demand, 1e-9, f"flow routed from {source} to {sink}")
    return flows


def social_cost(net: Net, flows: dict) -> float:
    return sum(x * net.lat[a](x) for a, x in flows.items())


def shortest_distances(net: Net, costs: dict, source: str) -> dict:
    """Dijkstra over non-negative arc costs."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for a in net.out[v]:
            w = net.head[a]
            nd = d + costs[a]
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def check_wardrop(net: Net, flow: dict, deviation: dict | None = None,
                  gap_tol: float = 1e-6) -> dict:
    """The flow meets its demands and routes on shortest perceived paths
    (latency plus deviation): its relative gap
    sum_P f_P (c_P - shortest) / sum_i r_i shortest_i is at most ``gap_tol``.
    Returns the arc flows."""
    flows = arc_flows(net, flow)
    costs = net.perceived(flows, deviation)
    worst = min(costs.values(), default=0.0)
    require(worst >= -1e-12, f"negative perceived arc cost {worst}")
    by_source = {}
    excess = total = 0.0
    for (source, sink, demand), entry in zip(net.commodities,
                                              flow["commodities"]):
        if source not in by_source:
            by_source[source] = shortest_distances(net, costs, source)
        shortest = by_source[source][sink]
        total += demand * shortest
        for path in entry["paths"]:
            cost = sum(costs[a] for a in path["arcs"])
            excess += path["value"] * (cost - shortest)
    gap = excess / max(total, 1e-12)
    require(gap <= gap_tol, f"relative gap {gap:.3e} above {gap_tol:g}: the "
            "flow is not on shortest perceived paths")
    return flows


def check_within_thresholds(net: Net, deviation: dict, flows: dict) -> None:
    """theta_min <= delta <= theta_max at the flow point of every arc and on
    a grid over [0, total demand]."""
    grid = [net.total_demand * k / 16 for k in range(17)]
    for a, spec in deviation.get("arcs", {}).items():
        require(a in net.lat, f"deviation names unknown arc {a}")
        f = curve(spec)
        for x in grid + [flows[a]]:
            lo, hi, value = net.theta_min[a](x), net.theta_max[a](x), f(x)
            require(lo - 1e-9 <= value <= hi + 1e-9,
                    f"deviation {value!r} on arc {a} at x={x} outside "
                    f"[{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# Inducibility: the auxiliary graph, rebuilt here
# ---------------------------------------------------------------------------
def aux_cost(net: Net, flows: dict, arc_id: str, reverse: bool) -> float:
    """Forward copy: l + theta_max; reversed copy: -(l + theta_min), both at
    the arc's flow."""
    x = flows[arc_id]
    if reverse:
        return -(net.lat[arc_id](x) + net.theta_min[arc_id](x))
    return net.lat[arc_id](x) + net.theta_max[arc_id](x)


def negative_cycle(net: Net, flows: dict) -> list | None:
    """A negative-cost cycle of the auxiliary graph as [(arc id, reversed)],
    or None. Bellman-Ford from a virtual source joined to every node."""
    edges = []
    for a in net.lat:
        edges.append((net.tail[a], net.head[a], aux_cost(net, flows, a, False),
                      (a, False)))
        if flows[a] > 1e-10:
            edges.append((net.head[a], net.tail[a],
                          aux_cost(net, flows, a, True), (a, True)))
    dist = {v: 0.0 for v in net.nodes}
    pred = {}
    last = None
    for _ in range(len(net.nodes) + 1):
        last = None
        for u, v, w, key in edges:
            if dist[u] + w < dist[v] - 1e-12:
                dist[v] = dist[u] + w
                pred[v] = (u, key, w)
                last = v
        if last is None:
            return None
    # still relaxing after |V| + 1 passes: walking |V| predecessors back
    # from the last relaxed node lands on a cycle of the predecessor graph
    node = last
    for _ in range(len(net.nodes)):
        node = pred[node][0]
    cycle, v = [], node
    while True:
        u, key, _ = pred[v]
        cycle.append(key)
        v = u
        if v == node or len(cycle) > len(net.nodes):
            break
    if v != node:
        return None
    cycle.reverse()
    cost = sum(aux_cost(net, flows, a, rev) for a, rev in cycle)
    return cycle if cost < -1e-10 else None


def simple_paths(net: Net, source: str, sink: str) -> list[tuple]:
    """Every simple source-sink path as a tuple of arc ids."""
    paths, stack = [], [(source, (), {source})]
    while stack:
        node, path, seen = stack.pop()
        if node == sink:
            paths.append(path)
            continue
        for a in net.out[node]:
            if net.head[a] not in seen:
                stack.append((net.head[a], path + (a,), seen | {net.head[a]}))
    return paths


def inducibility_margin(net: Net, flow: dict, flows: dict) -> float:
    """Least worst violation of the equilibrium conditions over deviations
    inside the thresholds at the flow point: the minimum over delta_a in
    [theta_min_a, theta_max_a] of the largest c_P - c_Q over commodities,
    flow-carrying paths P and all paths Q. It is 0 exactly when the flow is
    inducible; one linear program, solved with HiGHS."""
    from scipy.optimize import linprog
    arcs = sorted(net.lat)
    col = {a: j for j, a in enumerate(arcs)}
    rows, rhs = [], []
    for (source, sink, _), entry in zip(net.commodities, flow["commodities"]):
        carrying = [tuple(p["arcs"]) for p in entry["paths"]
                    if p["value"] > 1e-10]
        for p in carrying:
            for q in simple_paths(net, source, sink):
                row = [0.0] * (len(arcs) + 1)
                for a in p:
                    row[col[a]] += 1.0
                for a in q:
                    row[col[a]] -= 1.0
                row[-1] = -1.0
                rows.append(row)
                rhs.append(sum(net.lat[a](flows[a]) for a in q)
                           - sum(net.lat[a](flows[a]) for a in p))
    bounds = [(net.theta_min[a](flows[a]), net.theta_max[a](flows[a]))
              for a in arcs] + [(0.0, None)]
    result = linprog([0.0] * len(arcs) + [1.0], A_ub=rows, b_ub=rhs,
                     bounds=bounds, method="highs")
    require(result.status == 0, f"margin LP failed: {result.message}")
    return float(result.x[-1])


def check_witness(net: Net, flows: dict, witness) -> None:
    """A witness cycle (devratio AuxArc records) closes and has negative cost
    when every arc cost is recomputed here."""
    require(bool(witness), "non-inducible verdict without a witness cycle")
    total = 0.0
    for arc, nxt in zip(witness, witness[1:] + witness[:1]):
        a = arc.arc_id
        tail, head = ((net.head[a], net.tail[a]) if arc.is_reversed
                      else (net.tail[a], net.head[a]))
        require((arc.tail, arc.head) == (tail, head),
                f"witness arc {a} has the wrong orientation")
        require(arc.head == nxt.tail, "witness arcs do not form a cycle")
        require(not arc.is_reversed or flows[a] > 1e-10,
                f"witness reverses arc {a}, which carries no flow")
        total += aux_cost(net, flows, a, arc.is_reversed)
    require(total < -1e-10, f"witness cycle cost {total!r} is not negative")


# ---------------------------------------------------------------------------
# Closed forms from the paper
# ---------------------------------------------------------------------------
def fibonacci_number(k: int) -> int:
    """F_k with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def coarse_bound(alpha: float, beta: float, n: int, r: float) -> float:
    """1 + (beta - alpha)/(1 + alpha) * ceil((n - 1)/2) * r."""
    return 1.0 + (beta - alpha) / (1.0 + alpha) * math.ceil((n - 1) / 2) * r
