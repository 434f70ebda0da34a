"""Flow-pair comparison machinery: X/Z partition, alternating path trees,
segment counting, and the resulting cost-ratio upper bounds.

Given an original equilibrium z and a deviated flow x, the arcs split into
Z (z_a >= x_a, z_a > 0) and X (the rest). A tree of alternating paths
rooted at the common source — Z-arcs pointing away from the source,
X-arcs pointing toward it — always exists, and the number eta_i of maximal
consecutive-Z segments on commodity i's tree path drives the upper bound
on C(x)/C(z).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

from .core import SUPPORT_EPS, Flow, Instance, _dot, social_cost
from .errors import (AlphaOutOfRange, ConstructionFailed, InvalidInstance,
                     NotCommonSource)

_FLOW_CMP_TOL = 1e-10

Z_FORWARD = "Z-forward"
X_BACKWARD = "X-backward"


@dataclass(frozen=True)
class XZPartition:
    Z: frozenset[str]
    X: frozenset[str]
    #: arcs with z_a = x_a = 0; they sit in X but can be dropped entirely
    removable: frozenset[str]


def partition_xz(x: Flow, z: Flow) -> XZPartition:
    """Z = arcs where z_a >= x_a and z_a > 0 (tolerance 1e-10)."""
    if x.instance is not z.instance:
        raise InvalidInstance("flows must belong to the same instance")
    Z, X, removable = set(), set(), set()
    for arc in x.instance.arcs:
        xa, za = x.arc_flow(arc.id), z.arc_flow(arc.id)
        if za >= xa - _FLOW_CMP_TOL and za > _FLOW_CMP_TOL:
            Z.add(arc.id)
        else:
            X.add(arc.id)
            if za <= _FLOW_CMP_TOL and xa <= _FLOW_CMP_TOL:
                removable.add(arc.id)
    return XZPartition(frozenset(Z), frozenset(X), frozenset(removable))


@dataclass(frozen=True)
class AltPathTree:
    #: node -> (arc id, orientation); absent for the root
    parent: dict[str, tuple[str, str]]
    #: per commodity: the tree path from the source, as (arc id, orientation)
    paths: tuple[tuple[tuple[str, str], ...], ...]
    #: per commodity: number of maximal consecutive-Z segments on the path
    etas: tuple[int, ...]
    partition: XZPartition

    def to_dot(self, instance: Instance) -> str:
        arcs = [(instance.arcs_by_id[a], o) for _, (a, o) in sorted(
            self.parent.items())]
        return _dot("alt_tree", [], [
            (a.tail, a.head, f'label="{a.id}", style='
             + ("solid" if o == Z_FORWARD else "dashed")) for a, o in arcs])


def count_segments(path: tuple[tuple[str, str], ...]) -> int:
    """Number of maximal runs of consecutive Z-forward arcs."""
    runs = groupby(orientation == Z_FORWARD for _, orientation in path)
    return sum(forward for forward, _ in runs)


def build_alt_path_tree(instance: Instance, x: Flow, z: Flow) -> AltPathTree:
    """Grow the tree by repeatedly crossing the cut around the source with
    a Z-arc forward or an X-arc backward (lowest arc id first). A super
    sink joined to every commodity sink by a Z-arc keeps all sinks inside
    the tree; those helper arcs are stripped from the result."""
    if not instance.common_source:
        raise NotCommonSource("alternating path tree needs a common source")
    part = partition_xz(x, z)
    super_sink = object()  # never collides with string node ids

    # (sort key, arc id, tail, head, in Z)
    arcs: list[tuple[tuple, str, object, object, bool]] = []
    for arc in instance.arcs:
        if arc.id in part.removable:
            continue
        arcs.append(((0, arc.id), arc.id, arc.tail, arc.head,
                     arc.id in part.Z))
    for i, commodity in enumerate(instance.commodities):
        arcs.append(((1, i), f"__sink_{i}", commodity.sink, super_sink, True))
    arcs.sort(key=lambda e: e[0])

    source = instance.source
    in_tree: set[object] = {source}
    parent: dict[object, tuple[str, str]] = {}
    while True:
        grown = False
        for _, arc_id, tail, head, in_z in arcs:
            if in_z and tail in in_tree and head not in in_tree:
                in_tree.add(head)
                parent[head] = (arc_id, Z_FORWARD)
                grown = True
                break
            if not in_z and head in in_tree and tail not in in_tree:
                in_tree.add(tail)
                parent[tail] = (arc_id, X_BACKWARD)
                grown = True
                break
        if not grown:
            break

    retained_nodes = {source}
    for _, _, tail, head, _ in arcs:
        retained_nodes.add(tail)
        retained_nodes.add(head)
    if retained_nodes - in_tree:
        raise ConstructionFailed(
            "alternating tree does not span all flow-carrying nodes; "
            "check flow feasibility")

    node_parent = {node: entry for node, entry in parent.items()
                   if node is not super_sink}
    paths = []
    etas = []
    n = instance.n_nodes
    for commodity in instance.commodities:
        path: list[tuple[str, str]] = []
        node: object = commodity.sink
        while node != source:
            arc_id, orientation = node_parent[node]
            path.append((arc_id, orientation))
            arc = instance.arcs_by_id[arc_id]
            node = arc.tail if orientation == Z_FORWARD else arc.head
        path.reverse()
        paths.append(tuple(path))
        eta = count_segments(tuple(path))
        if not eta <= math.ceil((n - 1) / 2):
            raise ConstructionFailed("segment count exceeds ceil((n-1)/2)")
        etas.append(eta)
    return AltPathTree(node_parent, tuple(paths), tuple(etas), part)


@dataclass(frozen=True)
class GeneralBound:
    value: float
    #: per-commodity flow-carrying path of x maximizing latency under x
    heavy_paths: tuple[tuple[str, ...], ...]
    warnings: tuple[str, ...] = field(default=())


def bound_general(instance: Instance, x: Flow, z: Flow, tree: AltPathTree,
                  check_inputs: bool = True) -> GeneralBound:
    """Upper bound on C(x) from the alternating tree:

        C(z) + sum_i r_i ( sum_{Z on path_i} theta^max_a(z_a)
                          - sum_{X on path_i} theta^min_a(z_a)
                          - sum_{a in X_i}    theta^min_a(x_a) )

    with X_i the flow-carrying path of commodity i maximizing its latency
    under x. Valid when x is inducible and z is an original equilibrium;
    other inputs get the formula anyway, with a warning attached.
    """
    theta = instance.theta
    warnings: list[str] = []
    if check_inputs:
        from .equilibrium import verify_nash
        from .inducibility import is_inducible
        if verify_nash(instance, z, None, eps=1e-6):
            warnings.append("z is not an equilibrium at eps=1e-6")
        if not is_inducible(instance, x).inducible:
            warnings.append("x is not inducible under the thresholds")

    total = social_cost(instance, z)
    heavy_paths = []
    for i, commodity in enumerate(instance.commodities):
        carrying = sorted(p for p, v in x.commodity_paths[i].items()
                          if v > SUPPORT_EPS)
        if not carrying:
            raise ConstructionFailed("commodity routes no flow")
        # argmax of latency under x; ties go to the lexicographically first
        heavy, best_latency = None, -math.inf
        for p in carrying:
            lat = sum(instance.arcs_by_id[a].latency.eval(x.arc_flow(a))
                      for a in p)
            if lat > best_latency:
                heavy, best_latency = p, lat
        heavy_paths.append(heavy)

        term = 0.0
        for arc_id, orientation in tree.paths[i]:
            lo, hi = theta[arc_id]
            za = z.arc_flow(arc_id)
            term += hi.eval(za) if orientation == Z_FORWARD else -lo.eval(za)
        for arc_id in heavy:
            term -= theta[arc_id][0].eval(x.arc_flow(arc_id))
        total += commodity.demand * term
    return GeneralBound(total, tuple(heavy_paths), tuple(warnings))


def _check_alpha_beta(alpha: float, beta: float) -> None:
    if not (-1.0 < alpha <= 0.0):
        raise AlphaOutOfRange(f"alpha={alpha} outside (-1, 0]")
    if not 0.0 <= beta < math.inf:
        raise InvalidInstance(f"beta={beta} must be finite and non-negative")


def bound_alpha_beta(alpha: float, beta: float, etas: list[int],
                     demands: list[float], n: int) -> tuple[float, float]:
    """(fine, coarse) ratio bounds for (alpha, beta)-deviations:

        fine   = 1 + (beta-alpha)/(1+alpha) * sum_i r_i eta_i
        coarse = 1 + (beta-alpha)/(1+alpha) * ceil((n-1)/2) * sum_i r_i
    """
    _check_alpha_beta(alpha, beta)
    if not all(map(math.isfinite, demands)):
        raise InvalidInstance(f"demands {demands} must be finite")
    factor = (beta - alpha) / (1.0 + alpha)
    r = sum(demands)
    fine = 1.0 + factor * sum(ri * eta for ri, eta in zip(demands, etas))
    coarse = 1.0 + factor * math.ceil((n - 1) / 2) * r
    return fine, coarse


def normalize_thresholds(alpha: float, beta: float) -> tuple[float, float]:
    """Equivalent one-sided thresholds: (alpha, beta) -> (0, beta')."""
    _check_alpha_beta(alpha, beta)
    return 0.0, (beta - alpha) / (1.0 + alpha)
