"""Brute-force deviation search on small instances.

Deviations of the form delta_a = lambda_a * theta^max_a are sufficient to
realize the worst case when theta^min = 0, so the search enumerates a
lambda grid per arc and solves the deviated equilibrium for every
combination. Exact up to grid resolution and solver tolerance.

Also hosts the seeded random-instance samplers shared by the CLI sweeps
and the property tests.
"""
from __future__ import annotations

import itertools
import random

from .core import (Curve, Deviation, Flow, Instance, Arc, Commodity,
                   ThresholdPair, enumerate_paths, social_cost)
from .equilibrium import SolverConfig, wardrop, worst_equilibrium_cost
from .errors import InvalidConfig, InvalidInstance, TooLarge

_DEFAULT_COMBO_BUDGET = 65536


def _curve_is_zero(curve: Curve) -> bool:
    if curve.kind == "poly":
        return not any(curve.data)
    return not any(y for _, y in curve.data)


def _lambda_deviations(instance: Instance, lambda_grid: int,
                       budget: int):
    """Yield (lambda vector, Deviation) over the grid, in lexicographic
    order of the lambda vector; the grid needs theta^min = 0 on every
    arc."""
    if lambda_grid < 1:
        raise InvalidConfig(f"lambda_grid must be >= 1, got {lambda_grid}")
    if not all(_curve_is_zero(lo) for lo, _ in instance.theta.values()):
        raise InvalidInstance(
            "lambda-grid search needs theta^min = 0 on every arc")
    scalable = [(arc_id, hi) for arc_id, (_, hi) in instance.theta.items()
                if not _curve_is_zero(hi)]
    levels = [i / (lambda_grid - 1) for i in range(lambda_grid)] \
        if lambda_grid > 1 else [1.0]
    if len(levels) ** len(scalable) > budget:
        raise TooLarge(
            f"{len(levels) ** len(scalable)} grid combinations exceed {budget}")
    for combo in itertools.product(levels, repeat=len(scalable)):
        yield combo, Deviation({arc_id: hi.scale(lam) for (arc_id, hi), lam
                                in zip(scalable, combo) if lam > 0.0})


def worst_deviation(instance: Instance, lambda_grid: int = 4,
                    config: SolverConfig = SolverConfig(),
                    budget: int = _DEFAULT_COMBO_BUDGET,
                    seed: int = 0) -> tuple[Deviation, float]:
    """Grid argmax of the worst equilibrium cost; the first of tied grid
    points wins. ``seed`` is unused."""
    return max(((deviation,
                 worst_equilibrium_cost(instance, deviation, config, seed))
                for _, deviation
                in _lambda_deviations(instance, lambda_grid, budget)),
               key=lambda pair: pair[1])


def best_deviation(instance: Instance, lambda_grid: int = 4,
                   config: SolverConfig = SolverConfig(),
                   budget: int = _DEFAULT_COMBO_BUDGET,
                   seed: int = 0) -> tuple[Deviation, float]:
    """Grid argmin of the equilibrium cost (restricted-toll flavour); the
    first of tied grid points wins."""
    return min(((deviation, social_cost(
                    instance, wardrop(instance, deviation, config).flow))
                for _, deviation
                in _lambda_deviations(instance, lambda_grid, budget)),
               key=lambda pair: pair[1])


def deviation_grid_costs(instance: Instance, lambda_grid: int = 4,
                         config: SolverConfig = SolverConfig(),
                         budget: int = _DEFAULT_COMBO_BUDGET,
                         seed: int = 0) -> list[tuple[tuple, float]]:
    """(lambda vector, worst equilibrium cost) for every grid point.
    ``seed`` is unused."""
    return [(combo, worst_equilibrium_cost(instance, deviation, config, seed))
            for combo, deviation
            in _lambda_deviations(instance, lambda_grid, budget)]


def empirical_dr(instance: Instance, lambda_grid: int = 4,
                 config: SolverConfig = SolverConfig(),
                 budget: int = _DEFAULT_COMBO_BUDGET,
                 seed: int = 0) -> float:
    """Lower bound on the deviation ratio from the lambda grid. ``seed`` is
    unused."""
    _, worst = worst_deviation(instance, lambda_grid, config, budget, seed)
    base = social_cost(instance, wardrop(instance, None, config).flow)
    return worst / base


# ---------------------------------------------------------------------------
# Seeded random instances for property sweeps
# ---------------------------------------------------------------------------
def random_common_source_instance(rng: random.Random, max_nodes: int = 8,
                                  alpha: float = 0.0, beta: float = 1.0,
                                  max_commodities: int = 2) -> Instance:
    """Layered DAG with a single source, strictly increasing affine
    latencies and (alpha, beta) thresholds. The chain v0 -> v1 -> ... is
    always present, so every node is reachable from the source."""
    n = rng.randint(3, max_nodes)
    nodes = [f"v{i}" for i in range(n)]
    arcs = []
    arc_no = 0
    for i in range(n):
        for j in range(i + 1, n):
            if j != i + 1 and rng.random() > 0.4:
                continue
            c0 = round(rng.uniform(0.0, 1.0), 3)
            c1 = round(rng.uniform(0.1, 1.0), 3)
            arcs.append(Arc(f"a{arc_no:02d}", nodes[i], nodes[j],
                            Curve.poly([c0, c1])))
            arc_no += 1
    k = rng.randint(1, min(max_commodities, n - 1))
    sinks = rng.sample(nodes[1:], k)
    commodities = [Commodity(nodes[0], sink, round(rng.uniform(1.0, 2.0), 3))
                   for sink in sinks]
    return Instance(nodes, arcs, commodities,
                    ThresholdPair.alpha_beta(alpha, beta))


def random_feasible_deviation(rng: random.Random,
                              instance: Instance) -> Deviation:
    """delta_a = lambda_a * l_a with lambda_a uniform in [alpha, beta]."""
    thresholds = instance.thresholds
    if thresholds.kind != "alpha_beta":
        raise InvalidInstance("random_feasible_deviation needs alpha_beta "
                              f"thresholds, got {thresholds.kind}")
    curves = {}
    for arc in instance.arcs:
        lam = rng.uniform(thresholds.alpha, thresholds.beta)
        if abs(lam) > 1e-12:
            curves[arc.id] = arc.latency.scale(lam)
    return Deviation(curves)


def random_flow(rng: random.Random, instance: Instance) -> Flow:
    """Random path decomposition of each commodity's demand."""
    maps = []
    for commodity in instance.commodities:
        paths = enumerate_paths(instance, commodity, 1000)
        chosen = rng.sample(paths, rng.randint(1, len(paths)))
        weights = [rng.uniform(0.1, 1.0) for _ in chosen]
        total = sum(weights)
        maps.append({p: commodity.demand * w / total
                     for p, w in zip(chosen, weights)})
    return Flow(instance, maps)
