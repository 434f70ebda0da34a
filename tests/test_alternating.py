import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from devratio.alternating import (X_BACKWARD, Z_FORWARD, bound_alpha_beta,
                                  bound_general, build_alt_path_tree,
                                  count_segments, normalize_thresholds,
                                  partition_xz)
from devratio.core import (Arc, Commodity, Curve, Flow, Instance,
                           ThresholdPair, social_cost)
from devratio.equilibrium import wardrop
from devratio.errors import (AlphaOutOfRange, ConstructionFailed,
                             InvalidInstance, NotCommonSource)
from devratio.generators import braess, braess_odd, remark_b1_counterexample
from devratio.search import (random_common_source_instance,
                             random_feasible_deviation, random_flow)


def pigou_pair():
    inst = Instance(
        ["s", "t"],
        [Arc("a1", "s", "t", Curve.poly([0.0, 1.0])),
         Arc("a2", "s", "t", Curve.constant(1.0))],
        [Commodity("s", "t", 1.0)],
        ThresholdPair.alpha_beta(0.0, 1.0))
    z = Flow(inst, [{("a1",): 1.0}])
    x = Flow(inst, [{("a1",): 0.5, ("a2",): 0.5}])
    return inst, x, z


class TestPartition:
    def test_pigou(self):
        inst, x, z = pigou_pair()
        part = partition_xz(x, z)
        assert part.Z == {"a1"}
        assert part.X == {"a2"}
        assert part.removable == frozenset()

    def test_identical_flows_all_z(self):
        case = braess(3, 1.0)
        part = partition_xz(case.z, case.z)
        carried = case.z.support()
        assert part.Z == carried
        assert part.removable == part.X  # everything else is idle

    def test_mismatched_instances_rejected(self):
        _, x, _ = pigou_pair()
        case = braess(2, 1.0)
        with pytest.raises(InvalidInstance):
            partition_xz(x, case.z)


class TestCountSegments:
    def test_empty(self):
        assert count_segments(()) == 0

    def test_alternation(self):
        path = (("a", Z_FORWARD), ("b", X_BACKWARD), ("c", Z_FORWARD),
                ("d", Z_FORWARD), ("e", X_BACKWARD))
        assert count_segments(path) == 2

    def test_all_forward(self):
        assert count_segments((("a", Z_FORWARD),) * 4) == 1


class TestAltPathTree:
    def test_pigou_direct_path(self):
        inst, x, z = pigou_pair()
        tree = build_alt_path_tree(inst, x, z)
        assert tree.paths == ((("a1", Z_FORWARD),),)
        assert tree.etas == (1,)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_braess_eta_hits_ceiling(self, m):
        case = braess(m, 1.0)
        tree = build_alt_path_tree(case.instance, case.x, case.z)
        n = case.instance.n_nodes
        assert tree.etas == (math.ceil((n - 1) / 2),)
        assert tree.etas == (m,)

    def test_braess_odd_two_commodities(self):
        case = braess_odd(5, 1.0, 2.0)
        tree = build_alt_path_tree(case.instance, case.x, case.z)
        assert tree.etas == (5, 5)

    def test_multi_source_rejected(self):
        inst, flow = remark_b1_counterexample()
        with pytest.raises(NotCommonSource):
            build_alt_path_tree(inst, flow, flow)

    def test_dot_output(self):
        case = braess(2, 1.0)
        tree = build_alt_path_tree(case.instance, case.x, case.z)
        dot = tree.to_dot(case.instance)
        assert "solid" in dot

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_pairs_satisfy_ceiling(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=7)
        x = random_flow(rng, inst)
        z = random_flow(rng, inst)
        tree = build_alt_path_tree(inst, x, z)
        cap = math.ceil((inst.n_nodes - 1) / 2)
        assert all(1 <= eta <= cap for eta in tree.etas)
        # each tree path must start at the source and end at the sink
        for commodity, path in zip(inst.commodities, tree.paths):
            node = commodity.sink
            for arc_id, orientation in reversed(path):
                arc = inst.arcs_by_id[arc_id]
                assert (arc.head if orientation == Z_FORWARD
                        else arc.tail) == node
                node = arc.tail if orientation == Z_FORWARD else arc.head
            assert node == inst.source

    def test_sink_of_idle_commodity_must_be_spanned(self):
        # t2's only arc carries 1e-12 in both flows, so it is removable
        # and nothing else reaches t2.
        inst = Instance(
            ["s", "t1", "t2"],
            [Arc("a", "s", "t1", Curve.poly([0.0, 1.0])),
             Arc("b", "s", "t2", Curve.poly([0.0, 1.0]))],
            [Commodity("s", "t1", 1.0), Commodity("s", "t2", 1e-12)],
            ThresholdPair.alpha_beta(0.0, 1.0))
        flow = Flow(inst, [{("a",): 1.0}, {("b",): 1e-12}])
        for build in (build_alt_path_tree, rescan_tree):
            with pytest.raises(ConstructionFailed, match="does not span"):
                build(inst, flow, flow)

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_rescan_with_super_sink(self, seed, equilibria):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=9,
                                             max_commodities=3)
        # shuffle the arc ids so that id order is not topological order
        ids = rng.sample([f"e{k:02d}" for k in range(len(inst.arcs))],
                         len(inst.arcs))
        inst = Instance(inst.nodes, [dataclasses.replace(a, id=i) for a, i
                                     in zip(inst.arcs, ids)],
                        inst.commodities, inst.thresholds)
        if equilibria:
            z = wardrop(inst).flow
            x = wardrop(inst, random_feasible_deviation(rng, inst)).flow
        else:
            x, z = random_flow(rng, inst), random_flow(rng, inst)
        try:
            expected = rescan_tree(inst, x, z)
        except ConstructionFailed as exc:
            with pytest.raises(ConstructionFailed, match=re.escape(str(exc))):
                build_alt_path_tree(inst, x, z)
            return
        tree = build_alt_path_tree(inst, x, z)
        assert (tree.parent, tree.paths, tree.etas) == expected


def rescan_tree(instance, x, z):
    """(parent, paths, etas) from the original construction: rescan all
    arcs from the first after every node added, with a super sink joined
    to every commodity sink by a helper Z-arc."""
    part = partition_xz(x, z)
    super_sink = object()
    arcs = [((0, a.id), a.id, a.tail, a.head, a.id in part.Z)
            for a in instance.arcs if a.id not in part.removable]
    arcs += [((1, i), f"__sink_{i}", c.sink, super_sink, True)
             for i, c in enumerate(instance.commodities)]
    arcs.sort(key=lambda e: e[0])
    source = instance.source
    in_tree, parent = {source}, {}
    grown = True
    while grown:
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
    retained = {source} | {v for e in arcs for v in e[2:4]}
    if retained - in_tree:
        raise ConstructionFailed(
            "alternating tree does not span all flow-carrying nodes; "
            "check flow feasibility")
    parent = {v: e for v, e in parent.items() if v is not super_sink}
    paths = []
    for commodity in instance.commodities:
        path, node = [], commodity.sink
        while node != source:
            arc_id, orientation = parent[node]
            path.append((arc_id, orientation))
            arc = instance.arcs_by_id[arc_id]
            node = arc.tail if orientation == Z_FORWARD else arc.head
        paths.append(tuple(reversed(path)))
    etas = tuple(count_segments(p) for p in paths)
    if any(eta > math.ceil((instance.n_nodes - 1) / 2) for eta in etas):
        raise ConstructionFailed("segment count exceeds ceil((n-1)/2)")
    return parent, tuple(paths), etas


class TestBoundGeneral:
    def test_zero_thresholds_reduce_to_base_cost(self):
        inst, x, z = pigou_pair()
        plain = Instance(inst.nodes, inst.arcs, inst.commodities,
                         ThresholdPair.zero())
        tree = build_alt_path_tree(plain, z, z)
        bound = bound_general(plain, z, z, tree)
        assert bound.value == pytest.approx(social_cost(plain, z))

    def test_braess_tight(self):
        case = braess(5, 1.0)
        tree = build_alt_path_tree(case.instance, case.x, case.z)
        bound = bound_general(case.instance, case.x, case.z, tree)
        achieved = social_cost(case.instance, case.x)
        assert bound.value == pytest.approx(achieved, rel=1e-9)
        assert bound.warnings == ()

    def test_warns_on_bogus_inputs(self):
        inst, x, z = pigou_pair()
        not_eq = Flow(inst, [{("a2",): 1.0}])  # a1 at cost 0 is better
        tree = build_alt_path_tree(inst, x, not_eq)
        bound = bound_general(inst, x, not_eq, tree)
        assert any("not an equilibrium" in w for w in bound.warnings)

    def test_heavy_path_is_max_latency(self):
        case = braess(3, 1.0)
        tree = build_alt_path_tree(case.instance, case.x, case.z)
        bound = bound_general(case.instance, case.x, case.z, tree)
        (heavy,) = bound.heavy_paths
        lat = lambda p: sum(
            case.instance.arcs_by_id[a].latency.eval(case.x.arc_flow(a))
            for a in p)
        for p in case.x.commodity_paths[0]:
            assert lat(heavy) >= lat(p) - 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_dominates_worst_deviated_cost(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=6)
        z = wardrop(inst).flow
        dev = random_feasible_deviation(rng, inst)
        x = wardrop(inst, dev).flow
        tree = build_alt_path_tree(inst, x, z)
        bound = bound_general(inst, x, z, tree)
        assert social_cost(inst, x) <= bound.value + 1e-6


class TestAlphaBetaBounds:
    def test_braess_fine_equals_ratio(self):
        case = braess(4, 1.0)
        tree = build_alt_path_tree(case.instance, case.x, case.z)
        fine, coarse = bound_alpha_beta(
            0.0, 1.0, list(tree.etas),
            [c.demand for c in case.instance.commodities],
            case.instance.n_nodes)
        assert fine == pytest.approx(case.expected_ratio, rel=1e-12)
        assert coarse == pytest.approx(case.expected_ratio, rel=1e-12)

    def test_formulas(self):
        fine, coarse = bound_alpha_beta(-0.5, 1.0, [2], [1.5], 6)
        factor = (1.0 + 0.5) / 0.5  # = 3
        assert fine == pytest.approx(1.0 + factor * 1.5 * 2)
        assert coarse == pytest.approx(1.0 + factor * 3 * 1.5)

    def test_fine_never_exceeds_coarse(self):
        for etas, n in (([1, 2], 5), ([3], 7), ([2, 2], 8)):
            fine, coarse = bound_alpha_beta(-0.2, 0.7, etas, [1.0] * len(etas), n)
            assert fine <= coarse + 1e-12

    def test_alpha_range_enforced(self):
        with pytest.raises(AlphaOutOfRange):
            bound_alpha_beta(-1.0, 1.0, [1], [1.0], 4)
        with pytest.raises(AlphaOutOfRange):
            bound_alpha_beta(0.5, 1.0, [1], [1.0], 4)
        with pytest.raises(InvalidInstance):
            bound_alpha_beta(0.0, -0.1, [1], [1.0], 4)


class TestNormalizeThresholds:
    def test_one_sided_fixed_point(self):
        assert normalize_thresholds(0.0, 2.0) == (0.0, 2.0)

    def test_two_sided(self):
        alpha, beta = normalize_thresholds(-0.5, 1.0)
        assert alpha == 0.0
        assert beta == pytest.approx(3.0)

    def test_bound_invariant_under_normalization(self):
        for alpha, beta in ((-0.25, 0.5), (-0.8, 2.0), (0.0, 1.0)):
            _, beta2 = normalize_thresholds(alpha, beta)
            a = bound_alpha_beta(alpha, beta, [2, 1], [1.0, 0.5], 6)
            b = bound_alpha_beta(0.0, beta2, [2, 1], [1.0, 0.5], 6)
            assert a == pytest.approx(b)

    def test_blowup_near_minus_one(self):
        _, beta1 = normalize_thresholds(-0.9, 0.0)
        _, beta2 = normalize_thresholds(-0.99, 0.0)
        assert beta2 > beta1 > 0.0
