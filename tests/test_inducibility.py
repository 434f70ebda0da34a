import random

import pytest
from hypothesis import given, settings, strategies as st

from devratio.core import (Arc, Commodity, Curve, Flow, Instance,
                           ThresholdPair, validate_deviation)
from devratio.equilibrium import verify_nash, wardrop
from devratio.errors import NotCommonSource, NotInducible
from devratio.inducibility import (_aux_search, build_aux_graph,
                                   check_path_inequalities, is_inducible,
                                   oracle_inducible, recover_deviation)
from devratio.generators import braess, remark_b1_counterexample
from devratio.search import random_common_source_instance, random_flow


def retighten(instance: Instance, alpha: float, beta: float) -> Instance:
    return Instance(instance.nodes, instance.arcs, instance.commodities,
                    ThresholdPair.alpha_beta(alpha, beta))


def pigou(beta: float = 1.0, demand: float = 1.0) -> Instance:
    return Instance(
        ["s", "t"],
        [Arc("a1", "s", "t", Curve.poly([0.0, 1.0])),
         Arc("a2", "s", "t", Curve.constant(1.0))],
        [Commodity("s", "t", demand)],
        ThresholdPair.alpha_beta(0.0, beta),
    )


class TestAuxGraph:
    def test_zero_flow_has_no_reversed_arcs(self):
        inst = pigou()
        flow = Flow(inst, [{("a2",): 1.0}])
        graph = build_aux_graph(inst, flow)
        reversed_ids = {a.arc_id for a in graph.arcs if a.is_reversed}
        assert reversed_ids == {"a2"}

    def test_costs_at_flow_point(self):
        inst = pigou(beta=0.5)
        flow = Flow(inst, [{("a1",): 1.0}])
        graph = build_aux_graph(inst, flow)
        by_key = {(a.arc_id, a.is_reversed): a.cost for a in graph.arcs}
        assert by_key[("a1", False)] == pytest.approx(1.5)  # l + beta*l at 1
        assert by_key[("a1", True)] == pytest.approx(-1.0)  # -(l + 0)
        assert by_key[("a2", False)] == pytest.approx(1.5)
        assert ("a2", True) not in by_key

    def test_reversed_costs_non_positive(self):
        case = braess(4, 1.0)
        graph = build_aux_graph(case.instance, case.x)
        assert all(a.cost <= 1e-12 for a in graph.arcs if a.is_reversed)

    def test_dot_output(self):
        inst = pigou()
        flow = Flow(inst, [{("a1",): 1.0}])
        dot = build_aux_graph(inst, flow).to_dot()
        assert "dashed" in dot and "a1" in dot


class TestIsInducible:
    def test_plain_equilibrium_is_inducible(self):
        inst = pigou()
        eq = wardrop(inst).flow
        assert is_inducible(inst, eq)

    def test_braess_deviated_flow(self):
        case = braess(3, 1.0)
        assert is_inducible(case.instance, case.x)
        assert is_inducible(case.instance, case.z)

    def test_tightened_thresholds_lose_inducibility(self):
        case = braess(3, 1.0)
        tight = retighten(case.instance, 0.0, 0.5)
        result = is_inducible(tight, case.x)
        assert not result
        assert result.witness is not None
        cost = sum(a.cost for a in result.witness)
        assert cost < -1e-10

    def test_witness_is_a_cycle(self):
        case = braess(3, 1.0)
        result = is_inducible(retighten(case.instance, 0.0, 0.5), case.x)
        cyc = result.witness
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert a.head == b.tail

    def test_social_optimum_needs_enough_headroom(self):
        # splitting 50/50 on (x, 1) is inducible iff 2*delta_1 >= 1 possible
        flow = Flow(pigou(), [{("a1",): 0.5, ("a2",): 0.5}])
        assert is_inducible(pigou(beta=1.0), flow)
        assert not is_inducible(pigou(beta=0.5), flow)

    def test_multi_source_raises(self):
        inst, flow = remark_b1_counterexample()
        with pytest.raises(NotCommonSource):
            is_inducible(inst, flow)


class TestRecoverDeviation:
    def test_braess_round_trip(self):
        case = braess(3, 1.0)
        dev = recover_deviation(case.instance, case.x)
        assert validate_deviation(case.instance, dev) == []
        assert verify_nash(case.instance, case.x, dev, eps=1e-7) == []

    def test_non_inducible_raises(self):
        case = braess(3, 1.0)
        with pytest.raises(NotInducible):
            recover_deviation(retighten(case.instance, 0.0, 0.5), case.x)

    def test_pigou_social_optimum(self):
        inst = pigou(beta=1.0)
        flow = Flow(inst, [{("a1",): 0.5, ("a2",): 0.5}])
        dev = recover_deviation(inst, flow)
        assert validate_deviation(inst, dev) == []
        assert verify_nash(inst, flow, dev, eps=1e-7) == []

    def test_plain_equilibrium_stays_one(self):
        # recovery may pick any feasible inducing deviation, not the zero
        # one, but the flow must stay an equilibrium under it
        inst = pigou()
        eq = wardrop(inst, config=config_or_default()).flow
        dev = recover_deviation(inst, eq)
        assert validate_deviation(inst, dev) == []
        assert verify_nash(inst, eq, dev, eps=1e-7) == []

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=5)
        flow = random_flow(rng, inst)
        result = is_inducible(inst, flow)
        if result.inducible:
            dev = recover_deviation(inst, flow)
            assert validate_deviation(inst, dev) == []
            assert verify_nash(inst, flow, dev, eps=1e-7) == []
        else:
            assert sum(a.cost for a in result.witness) < -1e-10


def potentials(instance: Instance, flow: Flow) -> dict[str, float]:
    """The auxiliary shortest-path distances from the common source that
    is_inducible and recover_deviation decide and recover from."""
    pi, cycle, _ = _aux_search(instance, flow)
    assert cycle is None and is_inducible(instance, flow)
    return pi


class TestPotentials:
    def test_source_is_zero(self):
        case = braess(3, 1.0)
        pi = potentials(case.instance, case.x)
        assert pi["s"] == 0.0

    def test_distances_respect_arcs(self):
        case = braess(3, 1.0)
        pi = potentials(case.instance, case.x)
        graph = build_aux_graph(case.instance, case.x)
        for arc in graph.arcs:
            assert pi[arc.head] <= pi[arc.tail] + arc.cost + 1e-9
        deviation = recover_deviation(case.instance, case.x)
        assert verify_nash(case.instance, case.x, deviation, eps=1e-7) == []


class TestOracle:
    def test_agrees_on_braess(self):
        case = braess(3, 1.0)
        assert oracle_inducible(case.instance, case.x).inducible
        tight = retighten(case.instance, 0.0, 0.5)
        verdict = oracle_inducible(tight, case.x)
        assert not verdict.inducible
        assert verdict.margin > verdict.step  # clear-cut, not borderline

    def test_multi_source_supported(self):
        inst, flow = remark_b1_counterexample()
        assert oracle_inducible(inst, flow).inducible

    def test_pigou_margin(self):
        inst = pigou(beta=0.5)
        flow = Flow(inst, [{("a1",): 0.5, ("a2",): 0.5}])
        verdict = oracle_inducible(inst, flow)
        # best deviation: delta_1 = 0.25 at flow 0.5 -> perceived 0.75 vs 1
        assert not verdict.inducible
        assert verdict.margin == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_braess_with_many_arcs(self, m):
        case = braess(m, 1.0)
        tight = retighten(case.instance, 0.0, 0.5)
        assert oracle_inducible(case.instance, case.x).inducible
        assert is_inducible(case.instance, case.x).inducible
        assert not oracle_inducible(tight, case.x).inducible
        assert not is_inducible(tight, case.x).inducible

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_matches_cycle_test_on_tiny_instances(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=4)
        if len(inst.arcs) > 6:
            return
        flow = random_flow(rng, inst)
        result = is_inducible(inst, flow)
        exact = result.inducible
        if not exact:
            assert result.witness
        verdict = oracle_inducible(inst, flow)
        if verdict.inducible != exact:
            # disagreement only allowed at grid resolution
            assert 0.0 < verdict.margin < 2.0 * verdict.step


class TestPathInequalities:
    def _aux_path(self, instance, flow, arc_ids, reversed_flags):
        graph = build_aux_graph(instance, flow)
        by_key = {(a.arc_id, a.is_reversed): a for a in graph.arcs}
        return [by_key[(a, r)] for a, r in zip(arc_ids, reversed_flags)]

    def test_forward_path_holds_for_inducible(self):
        case = braess(2, 1.0)
        path = self._aux_path(case.instance, case.x,
                              ["s>v1", "v1>w1", "w1>t"], [False] * 3)
        assert check_path_inequalities(case.instance, case.x,
                                       [(0, path)]) == []

    def test_reverse_path_holds_for_inducible(self):
        case = braess(2, 1.0)
        path = self._aux_path(case.instance, case.x,
                              ["w1>t", "v1>w1", "s>v1"], [True] * 3)
        assert check_path_inequalities(case.instance, case.x,
                                       [(0, path)]) == []

    def test_violation_detected_when_not_inducible(self):
        case = braess(2, 1.0)
        tight = retighten(case.instance, 0.0, 0.25)
        assert not is_inducible(tight, case.x)
        # the carried path costs 3 plain but the bypass tops out at 2.5
        path = self._aux_path(tight, case.x, ["s>w1", "w1>t"], [False, False])
        report = check_path_inequalities(tight, case.x, [(0, path)])
        assert len(report) == 1
        assert report[0]["kind"] == "source_to_sink"
        assert report[0]["lhs"] == pytest.approx(3.0)
        assert report[0]["rhs"] == pytest.approx(2.5)

    def test_bad_endpoints_reported(self):
        case = braess(2, 1.0)
        path = self._aux_path(case.instance, case.x, ["v1>w1"], [False])
        report = check_path_inequalities(case.instance, case.x, [(0, path)])
        assert report and report[0]["kind"] == "bad_endpoints"

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_no_violations_on_inducible_random_flows(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=5,
                                             max_commodities=1)
        flow = random_flow(rng, inst)
        if not is_inducible(inst, flow):
            return
        graph = build_aux_graph(inst, flow)
        sink = inst.commodities[0].sink
        # sample a few simple aux paths source -> sink via DFS
        paths = _aux_simple_paths(graph, inst.source, sink, limit=20)
        checks = [(0, p) for p in paths]
        assert check_path_inequalities(inst, flow, checks) == []


def _aux_simple_paths(graph, start, end, limit):
    out = {}
    for a in graph.arcs:
        out.setdefault(a.tail, []).append(a)
    found = []

    def dfs(node, visited, trail):
        if len(found) >= limit:
            return
        if node == end and trail:
            found.append(list(trail))
            return
        for arc in out.get(node, []):
            if arc.head in visited:
                continue
            visited.add(arc.head)
            trail.append(arc)
            dfs(arc.head, visited, trail)
            trail.pop()
            visited.remove(arc.head)

    dfs(start, {start}, [])
    return found


def config_or_default():
    from devratio.equilibrium import SolverConfig
    return SolverConfig(relative_gap_tol=1e-10)
