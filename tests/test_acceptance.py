"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
so the suite output doubles as a checklist. Tolerances are part of the
contract; do not loosen them here.
"""
import contextlib
import random
import time

import pytest

from devratio.alternating import bound_alpha_beta, build_alt_path_tree
from devratio.bounds import SmoothnessQuery, mu_hat, stability_bound
from devratio.core import Arc, Curve, Instance, social_cost
from devratio.equilibrium import (SolverConfig, verify_nash, wardrop,
                                  worst_equilibrium_cost)
from devratio.errors import NotCommonSource
from devratio.generators import (braess, braess_even, braess_odd, fibonacci,
                                 hamiltonian_reduction,
                                 remark_b1_counterexample,
                                 smoothness_tight_best)
from devratio.inducibility import (build_aux_graph, is_inducible,
                                   oracle_inducible, recover_deviation)
from devratio.search import (random_common_source_instance,
                             random_feasible_deviation, random_flow,
                             worst_deviation)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {title}")
        raise
    print(f"criterion {number} PASS: {title}")


def test_criterion_1_braess_tightness():
    with criterion(1, "Braess family is tight and solver-reproducible"):
        start = time.monotonic()
        for m in (2, 3, 4, 5, 6):
            for beta in (0.5, 1.0, 2.0):
                case = braess(m, beta)
                assert verify_nash(case.instance, case.z, None,
                                   eps=1e-9) == []
                assert verify_nash(case.instance, case.x, case.deviation,
                                   eps=1e-9) == []
                ratio = (social_cost(case.instance, case.x)
                         / social_cost(case.instance, case.z))
                expected = 1.0 + beta * m
                assert abs(ratio - expected) <= 1e-9 * expected
                observed = worst_equilibrium_cost(
                    case.instance, case.deviation, seed=0)
                base = social_cost(case.instance,
                                   wardrop(case.instance).flow)
                assert abs(observed / base - expected) <= 1e-4 * expected
                _, coarse = bound_alpha_beta(
                    0.0, beta, [0], [1.0], case.instance.n_nodes)
                assert coarse == pytest.approx(expected, rel=1e-12)
        assert time.monotonic() - start < 30.0


def test_criterion_2_upper_bound_dominance():
    with criterion(2, "fine/coarse bounds dominate 500 random deviations"):
        start = time.monotonic()
        rng = random.Random(42)
        config = SolverConfig()
        violations = 0
        for _ in range(500):
            alpha = rng.choice([0.0, -0.25])
            beta = rng.choice([0.5, 1.0])
            inst = random_common_source_instance(rng, max_nodes=8,
                                                 alpha=alpha, beta=beta)
            dev = random_feasible_deviation(rng, inst)
            z = wardrop(inst, None, config).flow
            x = wardrop(inst, dev, config).flow
            ratio = social_cost(inst, x) / social_cost(inst, z)
            tree = build_alt_path_tree(inst, x, z)
            fine, coarse = bound_alpha_beta(
                alpha, beta, list(tree.etas),
                [c.demand for c in inst.commodities], inst.n_nodes)
            if not (ratio <= fine + 1e-6 and fine <= coarse + 1e-6):
                violations += 1
        assert violations == 0
        assert time.monotonic() - start < 300.0


def test_criterion_3_inducibility_equivalence():
    with criterion(3, "cycle test vs margin LP on 200 flow pairs"):
        start = time.monotonic()
        rng = random.Random(7)
        agree = flagged = inducible_count = 0
        for _ in range(200):
            inst = random_common_source_instance(rng, max_nodes=4)
            while len(inst.arcs) > 6:
                inst = random_common_source_instance(rng, max_nodes=4)
            flow = random_flow(rng, inst)
            exact = is_inducible(inst, flow).inducible
            verdict = oracle_inducible(inst, flow)
            if verdict.inducible == exact:
                agree += 1
            else:
                # disagreement only tolerated at the grid resolution limit
                assert 0.0 < verdict.margin < 2.0 * verdict.step
                flagged += 1
            if exact:
                inducible_count += 1
                dev = recover_deviation(inst, flow)
                assert verify_nash(inst, flow, dev, eps=1e-7) == []
        print(f"  oracle agreement {agree}/200, "
              f"{flagged} margin-flagged disagreements, "
              f"{inducible_count} inducible round-trips")
        assert agree >= 190  # >= 95%
        assert inducible_count > 0
        assert time.monotonic() - start < 120.0


def test_criterion_4_fibonacci_lower_bound():
    with criterion(4, "ladder ratios beat 1 + F_{p+1}"):
        start = time.monotonic()
        floors = {3: 4.0, 5: 9.0, 7: 22.0}
        for p, floor in floors.items():
            case = fibonacci(p, 1.0)
            ratio = (social_cost(case.instance, case.x)
                     / social_cost(case.instance, case.z))
            assert ratio >= floor - 1e-4
        assert time.monotonic() - start < 60.0


def test_criterion_5_two_commodity_bounds():
    with criterion(5, "odd/even two-commodity family values"):
        odd = braess_odd(3, 1.0, 2.0)
        ratio = (social_cost(odd.instance, odd.x)
                 / social_cost(odd.instance, odd.z))
        assert abs(ratio - 7.0) <= 1e-9 * 7.0
        even = braess_even(3, 1.0, 2.0)
        ratio = (social_cost(even.instance, even.x)
                 / social_cost(even.instance, even.z))
        assert abs(ratio - 6.0) <= 1e-9 * 6.0


def test_criterion_6_smoothness():
    with criterion(6, "numeric smoothness constant and tight pair"):
        start = time.monotonic()
        rng = random.Random(6)
        for _ in range(20):
            c = rng.uniform(0.5, 3.0)
            d = rng.uniform(0.0, 2.0)
            for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
                q = SmoothnessQuery(Curve.poly([d, c]), beta,
                                    domain_max=4000.0)
                target = 1.0 / (4.0 * (1.0 + beta))
                assert abs(mu_hat(q).value - target) <= 1e-3
        affine = Curve.poly([0.0, 1.0])
        for beta in (0.0, 1.0, 2.0):
            best, _ = smoothness_tight_best(affine, beta, 1.0)
            target = (1.0 + beta) ** 2 / (0.75 + beta)
            assert abs(best - target) <= 0.02 * target
        assert time.monotonic() - start < 60.0


def test_criterion_7_hardness_gadget():
    with criterion(7, "worst deviation separates path from star"):
        start = time.monotonic()
        nodes = ["a", "b", "c", "d"]
        path = hamiltonian_reduction(
            nodes, [("a", "b"), ("b", "c"), ("c", "d")], "a", "d")
        _, worst = worst_deviation(path, lambda_grid=2)
        assert abs(worst - 3.0) <= 1e-6
        star = hamiltonian_reduction(
            nodes, [("a", "b"), ("a", "c"), ("a", "d")], "a", "d")
        _, worst = worst_deviation(star, lambda_grid=2)
        assert worst < 2.9
        assert time.monotonic() - start < 60.0


def test_criterion_8_stability():
    with criterion(8, "perturbation stability on 50 random instances"):
        rng = random.Random(8)
        config = SolverConfig()
        violations = 0
        for _ in range(50):
            inst = random_common_source_instance(rng, max_nodes=8)
            base_cost = social_cost(inst, wardrop(inst, None, config).flow)
            for eps in (0.01, 0.05):
                factors = {a.id: rng.uniform(1.0 - eps, 1.0 + eps)
                           for a in inst.arcs}
                perturbed = Instance(
                    inst.nodes,
                    [Arc(a.id, a.tail, a.head,
                         a.latency.scale(factors[a.id]))
                     for a in inst.arcs],
                    inst.commodities, inst.thresholds)
                new_cost = social_cost(
                    perturbed, wardrop(perturbed, None, config).flow)
                error = abs(new_cost - base_cost) / base_cost
                bound = stability_bound(eps, inst.n_nodes,
                                        inst.total_demand)
                if error > bound + 1e-6:
                    violations += 1
        assert violations == 0


def test_criterion_9_multi_source_counterexample():
    with criterion(9, "multi-source counterexample behaves as documented"):
        inst, flow = remark_b1_counterexample()
        assert oracle_inducible(inst, flow).inducible
        graph = build_aux_graph(inst, flow)
        by_key = {(a.arc_id, a.is_reversed): a.cost for a in graph.arcs}
        cycle_cost = (by_key[("1>4", False)] + by_key[("3>4", True)]
                      + by_key[("3>2", False)] + by_key[("1>2", True)])
        assert cycle_cost == pytest.approx(-1.0)
        assert cycle_cost < -1e-10
        with pytest.raises(NotCommonSource):
            is_inducible(inst, flow)
