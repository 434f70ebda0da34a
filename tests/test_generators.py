import pytest

from devratio.core import Curve, social_cost, validate_deviation
from devratio.equilibrium import verify_nash, worst_equilibrium_cost
from devratio.errors import InvalidInstance, NoValidSplit
from devratio.generators import (braess, braess_even, braess_odd, fibonacci,
                                 hamiltonian_reduction,
                                 remark_b1_counterexample, smoothness_tight,
                                 smoothness_tight_best)
from devratio.inducibility import is_inducible


class TestBraess:
    @pytest.mark.parametrize("m,beta", [(2, 1.0), (3, 0.5), (5, 2.0)])
    def test_ratio_formula(self, m, beta):
        case = braess(m, beta)
        assert case.expected_ratio == pytest.approx(1.0 + beta * m)
        achieved = (social_cost(case.instance, case.x)
                    / social_cost(case.instance, case.z))
        assert achieved == pytest.approx(case.expected_ratio, rel=1e-12)

    def test_node_and_arc_counts(self):
        case = braess(5, 1.0)
        assert case.instance.n_nodes == 2 * 5
        # 3 arcs per ladder level, m-2 inner shortcuts, 2 outer shortcuts
        assert len(case.instance.arcs) == 3 * 4 + 3 + 2

    def test_flows_are_certified(self):
        case = braess(4, 1.0)
        assert verify_nash(case.instance, case.z) == []
        assert verify_nash(case.instance, case.x, case.deviation) == []
        assert validate_deviation(case.instance, case.deviation) == []

    def test_deviated_flow_is_inducible(self):
        case = braess(4, 1.0)
        assert is_inducible(case.instance, case.x)

    def test_solver_reproduces_ratio(self):
        case = braess(3, 1.0)
        worst = worst_equilibrium_cost(case.instance, case.deviation, seed=0)
        assert worst == pytest.approx(case.expected_ratio, rel=1e-6)

    def test_beta_zero_degenerates(self):
        case = braess(3, 0.0)
        assert case.expected_ratio == 1.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidInstance):
            braess(1, 1.0)
        with pytest.raises(InvalidInstance):
            braess(3, -0.5)


class TestBraessOdd:
    def test_ratio_formula(self):
        case = braess_odd(3, 1.0, 2.0)
        assert case.expected_ratio == pytest.approx(7.0)
        assert case.instance.n_nodes == 2 * 3 + 1

    def test_r_one_single_commodity(self):
        case = braess_odd(3, 1.0, 1.0)
        assert len(case.instance.commodities) == 1
        assert case.expected_ratio == pytest.approx(4.0)

    def test_two_commodities_for_r_above_one(self):
        case = braess_odd(4, 0.5, 1.5)
        assert len(case.instance.commodities) == 2
        assert case.instance.commodities[1].demand == pytest.approx(0.5)
        assert case.expected_ratio == pytest.approx(1.0 + 0.5 * 1.5 * 4)

    def test_common_source(self):
        case = braess_odd(3, 1.0, 2.0)
        assert case.instance.common_source


class TestBraessEven:
    def test_ratio_formula(self):
        case = braess_even(3, 1.0, 2.0)
        assert case.expected_ratio == pytest.approx((1.0 + 2.0 * 3) - 1.0)
        assert case.expected_ratio == pytest.approx(6.0)
        assert case.instance.n_nodes == 2 * 3

    def test_r_one_matches_base_family(self):
        even = braess_even(4, 1.0, 1.0)
        base = braess(4, 1.0)
        assert even.expected_ratio == pytest.approx(base.expected_ratio)

    def test_below_odd_variant(self):
        # the even construction pays beta*(r-1) for the missing node
        odd = braess_odd(3, 1.0, 2.0)
        even = braess_even(3, 1.0, 2.0)
        assert even.expected_ratio == pytest.approx(
            odd.expected_ratio - 1.0 * (2.0 - 1.0))


class TestFibonacci:
    @pytest.mark.parametrize("p", [3, 5])
    def test_ratio_beats_fibonacci_floor(self, p):
        fib = [0, 1, 1]
        while len(fib) <= p + 1:
            fib.append(fib[-1] + fib[-2])
        case = fibonacci(p, 1.0)
        assert case.expected_ratio >= 1.0 + fib[p + 1] - 1e-9

    def test_known_values(self):
        assert fibonacci(3, 1.0).expected_ratio == pytest.approx(
            4.510001, abs=1e-5)
        assert fibonacci(5, 1.0).expected_ratio == pytest.approx(
            9.520002, abs=1e-5)

    def test_original_cost_is_one(self):
        case = fibonacci(3, 1.0)
        assert social_cost(case.instance, case.z) == pytest.approx(1.0)

    def test_deviation_only_on_entry_arc(self):
        case = fibonacci(5, 1.0)
        assert set(case.deviation.curves) == {"s1>e"}

    def test_parameter_validation(self):
        for bad in (2, 4, 1):
            with pytest.raises(InvalidInstance):
                fibonacci(bad, 1.0)
        with pytest.raises(InvalidInstance):
            fibonacci(3, 1.0, ramp_delta=0.0)

    def test_unsaturable_rungs_raise_no_valid_split(self):
        # at p = 3 the three rungs' loads sum to at most 4, short of the
        # 3 * (1 + 0.5) they need, so the split LP is infeasible
        with pytest.raises(NoValidSplit, match="no split saturates"):
            fibonacci(3, 1.0, ramp_delta=0.5)

    def test_exponential_growth(self):
        r3 = fibonacci(3, 1.0).expected_ratio
        r5 = fibonacci(5, 1.0).expected_ratio
        r7 = fibonacci(7, 1.0).expected_ratio
        assert r5 > 2 * r3 - 1
        assert r7 > 2 * r5 - 1


class TestSmoothnessTight:
    def test_equilibrium_cost(self):
        case = smoothness_tight(Curve.poly([0.0, 1.0]), 1.0, 1.0, 0.25)
        assert social_cost(case.instance, case.x) == pytest.approx(2.0)
        assert verify_nash(case.instance, case.x, case.deviation,
                           eps=1e-9) == []

    def test_affine_best_ratio(self):
        best, eps = smoothness_tight_best(Curve.poly([0.0, 1.0]), 1.0, 1.0)
        # (1+beta)^2 / (3/4 + beta) at beta = 1 is 16/7, at eps = 1/4
        assert best == pytest.approx(16.0 / 7.0, rel=1e-9)
        assert eps == pytest.approx(0.25, abs=1e-9)

    def test_beta_zero_classic(self):
        best, _ = smoothness_tight_best(Curve.poly([0.0, 1.0]), 0.0, 1.0)
        assert best == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_epsilon_validation(self):
        with pytest.raises(InvalidInstance):
            smoothness_tight(Curve.poly([0.0, 1.0]), 1.0, 1.0, 0.0)
        with pytest.raises(InvalidInstance):
            smoothness_tight(Curve.poly([0.0, 1.0]), 1.0, 1.0, 1.0)

    def test_latency_positive_at_demand(self):
        with pytest.raises(InvalidInstance):
            smoothness_tight(Curve.constant(0.0), 1.0, 1.0, 0.5)


class TestHamiltonianReduction:
    def test_path_graph_reaches_n_minus_one(self):
        nodes = ["a", "b", "c", "d"]
        inst = hamiltonian_reduction(
            nodes, [("a", "b"), ("b", "c"), ("c", "d")], "a", "d")
        from devratio.search import worst_deviation
        _, worst = worst_deviation(inst, lambda_grid=2)
        assert worst == pytest.approx(3.0, abs=1e-6)

    def test_star_graph_stays_low(self):
        nodes = ["a", "b", "c", "d"]
        inst = hamiltonian_reduction(
            nodes, [("a", "b"), ("a", "c"), ("a", "d")], "a", "d")
        from devratio.search import worst_deviation
        _, worst = worst_deviation(inst, lambda_grid=2)
        assert worst < 2.9

    def test_same_endpoints_rejected(self):
        with pytest.raises(InvalidInstance):
            hamiltonian_reduction(["a"], [], "a", "a")


class TestRemarkB1:
    def test_flow_is_a_plain_equilibrium(self):
        inst, flow = remark_b1_counterexample()
        assert verify_nash(inst, flow) == []

    def test_aux_graph_has_the_advertised_cycle(self):
        from devratio.inducibility import build_aux_graph
        inst, flow = remark_b1_counterexample()
        graph = build_aux_graph(inst, flow)
        by_key = {(a.arc_id, a.is_reversed): a.cost for a in graph.arcs}
        cycle_cost = (by_key[("1>4", False)] + by_key[("3>4", True)]
                      + by_key[("3>2", False)] + by_key[("1>2", True)])
        assert cycle_cost == pytest.approx(-1.0)

    def test_not_common_source(self):
        inst, _ = remark_b1_counterexample()
        assert not inst.common_source
