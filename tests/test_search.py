import random

import pytest
from hypothesis import given, settings, strategies as st

from devratio.core import (Arc, Commodity, Curve, Instance, ThresholdPair,
                           social_cost, validate_deviation)
from devratio.equilibrium import wardrop
from devratio.errors import InvalidConfig, InvalidInstance, TooLarge
from devratio.generators import braess
from devratio.search import (best_deviation, deviation_grid_costs,
                             empirical_dr, random_common_source_instance,
                             random_feasible_deviation, random_flow,
                             worst_deviation)


def pigou() -> Instance:
    return Instance(
        ["s", "t"],
        [Arc("a1", "s", "t", Curve.poly([0.0, 1.0])),
         Arc("a2", "s", "t", Curve.constant(1.0))],
        [Commodity("s", "t", 1.0)],
        ThresholdPair.per_arc(upper={"a1": Curve.poly([0.0, 1.0])}))


class TestWorstDeviation:
    def test_braess_grid_recovers_known_ratio(self):
        case = braess(2, 1.0)
        dev, worst = worst_deviation(case.instance, lambda_grid=2)
        assert worst == pytest.approx(case.expected_ratio, rel=1e-6)

    def test_zero_headroom_returns_base_cost(self):
        inst = Instance(
            ["s", "t"],
            [Arc("a1", "s", "t", Curve.poly([0.0, 1.0])),
             Arc("a2", "s", "t", Curve.constant(1.0))],
            [Commodity("s", "t", 1.0)],
            ThresholdPair.zero())
        dev, worst = worst_deviation(inst, lambda_grid=3)
        assert dev.curves == {}
        assert worst == pytest.approx(1.0, abs=1e-6)

    def test_returned_deviation_is_feasible(self):
        case = braess(2, 1.0)
        dev, _ = worst_deviation(case.instance, lambda_grid=3)
        assert validate_deviation(case.instance, dev) == []

    def test_nonzero_theta_min_rejected(self):
        case = braess(2, 1.0)
        inst = Instance(case.instance.nodes, case.instance.arcs,
                        case.instance.commodities,
                        ThresholdPair.alpha_beta(-0.5, 1.0))
        with pytest.raises(InvalidInstance):
            worst_deviation(inst)

    def test_budget_enforced(self):
        case = braess(4, 1.0)
        with pytest.raises(TooLarge):
            worst_deviation(case.instance, lambda_grid=10, budget=100)


class TestBestDeviation:
    def test_pigou_reaches_social_optimum(self):
        # marginal-toll headroom: best deviation yields cost 3/4
        _, best = best_deviation(pigou(), lambda_grid=4)
        assert best == pytest.approx(0.75, abs=1e-6)

    def test_never_above_zero_deviation_cost(self):
        inst = pigou()
        base = social_cost(inst, wardrop(inst).flow)
        _, best = best_deviation(inst, lambda_grid=3)
        assert best <= base + 1e-9


class TestGridCosts:
    def test_row_count_and_extremes(self):
        inst = pigou()
        rows = deviation_grid_costs(inst, lambda_grid=3)
        assert len(rows) == 3  # one scalable arc, three levels
        costs = [c for _, c in rows]
        _, worst = worst_deviation(inst, lambda_grid=3)
        _, best = best_deviation(inst, lambda_grid=3)
        assert max(costs) == pytest.approx(worst, abs=1e-9)
        assert min(costs) == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("search", [deviation_grid_costs,
                                        worst_deviation, best_deviation])
    @pytest.mark.parametrize("grid", [0, -2])
    def test_grid_below_one_is_typed_error(self, search, grid):
        # not a silent one-point grid at lambda = 1
        with pytest.raises(InvalidConfig, match="lambda_grid"):
            search(braess(2, 1.0).instance, grid)

    def test_lambda_vectors_are_lexicographic(self):
        case = braess(2, 1.0)
        rows = deviation_grid_costs(case.instance, lambda_grid=2)
        combos = [combo for combo, _ in rows]
        assert combos == sorted(combos)


class TestEmpiricalDr:
    def test_braess_value(self):
        case = braess(2, 1.0)
        value = empirical_dr(case.instance, lambda_grid=2)
        assert value == pytest.approx(case.expected_ratio, rel=1e-6)

    def test_at_least_one(self):
        assert empirical_dr(pigou(), lambda_grid=3) >= 1.0 - 1e-9

    def test_finer_grid_never_hurts(self):
        inst = pigou()
        coarse = empirical_dr(inst, lambda_grid=2)
        fine = empirical_dr(inst, lambda_grid=5)
        # the levels of grid 2 ({0,1}) are a subset of grid 5's
        assert fine >= coarse - 1e-9


class TestRandomSamplers:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_instances_are_valid_and_common_source(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=7)
        assert inst.common_source
        assert 3 <= inst.n_nodes <= 7
        inst.check_threshold_assumption()

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_deviations_are_feasible(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, alpha=-0.25, beta=1.0)
        dev = random_feasible_deviation(rng, inst)
        assert validate_deviation(inst, dev) == []

    def test_deviation_needs_alpha_beta_thresholds(self):
        inst = random_common_source_instance(random.Random(0))
        inst = Instance(inst.nodes, inst.arcs, inst.commodities)
        with pytest.raises(InvalidInstance, match="alpha_beta"):
            random_feasible_deviation(random.Random(0), inst)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_flows_meet_demand(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng)
        flow = random_flow(rng, inst)
        for commodity, paths in zip(inst.commodities, flow.commodity_paths):
            assert sum(paths.values()) == pytest.approx(commodity.demand)

    def test_seeded_determinism(self):
        a = random_common_source_instance(random.Random(5))
        b = random_common_source_instance(random.Random(5))
        assert a.to_json() == b.to_json()

    def test_commodities_clamped_to_sinks(self):
        for seed in range(50):
            inst = random_common_source_instance(
                random.Random(seed), max_nodes=3, max_commodities=5)
            sinks = [c.sink for c in inst.commodities]
            assert 1 <= len(sinks) <= inst.n_nodes - 1
            assert len(set(sinks)) == len(sinks)
