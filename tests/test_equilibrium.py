import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from devratio import equilibrium
from devratio.core import (Arc, Commodity, Curve, Deviation, Flow, Instance,
                           ThresholdPair, enumerate_paths, social_cost)
from devratio.equilibrium import (SolverConfig, _gap, _shortest_paths,
                                  beckmann_potential,
                                  check_monotone_perceived, relative_gap,
                                  verify_nash, wardrop,
                                  worst_equilibrium_cost)
from devratio.errors import (InvalidConfig, InvalidInstance, NonLinearFace,
                             NonMonotonePerceived, NotConverged)
from devratio.generators import braess, fibonacci
from devratio.search import (random_common_source_instance,
                             random_feasible_deviation)


def pigou(l1: Curve, l2: Curve, demand: float = 1.0) -> Instance:
    return Instance(
        ["s", "t"],
        [Arc("a1", "s", "t", l1), Arc("a2", "s", "t", l2)],
        [Commodity("s", "t", demand)],
    )


def grid(rng: random.Random, side: int, k: int) -> tuple[Instance, Deviation]:
    """side x side grid of right and down arcs with quadratic latencies;
    commodity i runs from column i of the top row to column side-k+i of the
    bottom row. Returns the instance and a deviation lambda_a * l_a."""
    def node(r, c):
        return f"g{r}_{c}"
    arcs = [Arc(f"{node(r, c)}>{node(r2, c2)}", node(r, c), node(r2, c2),
                Curve.poly([rng.uniform(1.0, 2.0), rng.uniform(0.1, 1.0),
                            rng.uniform(0.0, 0.5)]))
            for r in range(side) for c in range(side)
            for r2, c2 in ((r, c + 1), (r + 1, c)) if r2 < side and c2 < side]
    instance = Instance([node(r, c) for r in range(side) for c in range(side)],
                        arcs, [Commodity(node(0, i), node(side - 1, side - k + i),
                                         rng.uniform(1.0, 2.0))
                               for i in range(k)],
                        ThresholdPair.alpha_beta(0.0, 1.0))
    return instance, Deviation({a.id: a.latency.scale(rng.uniform(0.0, 1.0))
                                for a in instance.arcs})


def pair_solver(instance: Instance, deviation: Deviation | None,
                tol: float = 1e-12) -> Flow:
    """The reference: the pairwise equilibration that the projected Newton
    steps replaced. Each round adds every commodity's shortest path, then
    moves flow from its costliest carrying path to its cheapest path, with
    an exact root search on the potential's derivative, at most 200 times
    per commodity."""
    curves = {} if deviation is None else deviation.curves

    def q(a, x):
        value = instance.arcs_by_id[a].latency.eval(x)
        return value + curves[a].eval(x) if a in curves else value

    def price(arc_flows):
        return {a: q(a, x) for a, x in arc_flows.items()}

    zero = price(dict.fromkeys(instance.arcs_by_id, 0.0))
    columns = [{path: c.demand} for c, (path, _) in zip(
        instance.commodities, _shortest_paths(instance, zero))]
    for _ in range(2000):
        flow = Flow(instance, columns, check=False)
        arc_flows, costs = dict(flow.arc_flows), price(flow.arc_flows)
        shortest = _shortest_paths(instance, costs)
        if _gap(instance, flow.commodity_paths, costs, shortest) <= tol:
            return Flow(instance, columns)
        for paths, (new, _) in zip(columns, shortest):
            paths.setdefault(new, 0.0)
            for _ in range(200):
                cost = {p: sum(costs[a] for a in p) for p in paths}
                top = max((p for p in paths if paths[p] > 1e-15),
                          key=lambda p: (cost[p], p))
                to = min(cost, key=lambda p: (cost[p], p))
                if cost[top] - cost[to] <= 1e-3 * tol * max(abs(cost[to]), 1):
                    break
                up = [a for a in to if a not in top]
                down = [a for a in top if a not in to]

                def deriv(d):
                    return (sum(q(a, arc_flows[a] + d) for a in up)
                            - sum(q(a, arc_flows[a] - d) for a in down))

                d = paths[top] if deriv(paths[top]) <= 0.0 else brentq(
                    deriv, 0.0, paths[top], xtol=1e-15)
                for a in up + down:
                    arc_flows[a] += d if a in up else -d
                    costs[a] = q(a, arc_flows[a])
                paths[top] -= d
                paths[to] += d
                for p in [p for p, v in paths.items() if v <= 1e-15]:
                    del paths[p]
    raise AssertionError("the reference solver did not converge")


class TestSolverConfig:
    @pytest.mark.parametrize("fields", [{"relative_gap_tol": 0.0},
                                        {"relative_gap_tol": -1e-8},
                                        {"max_iterations": 0}])
    def test_out_of_range_is_typed_error(self, fields):
        with pytest.raises(InvalidConfig):
            SolverConfig(**fields)


def shortest_path(instance: Instance, costs: dict[str, float], source: str,
                  sink: str):
    """(path, length) from source to sink as wardrop and verify_nash find
    it, on a one-commodity copy of the instance; None when the sink is
    unreachable."""
    alone = Instance(instance.nodes, instance.arcs,
                     [Commodity(source, sink, 1.0)])
    try:
        return _shortest_paths(alone, costs)[0]
    except InvalidInstance as exc:
        if "unreachable" not in str(exc):
            raise
        return None


class TestShortestPath:
    def test_simple_chain(self):
        case = braess(2, 1.0)
        costs = {a.id: 1.0 for a in case.instance.arcs}
        path, dist = shortest_path(case.instance, costs, "s", "t")
        assert dist == 2.0 and len(path) == 2

    def test_unreachable_returns_none(self):
        inst = Instance(["s", "t", "u"],
                        [Arc("a", "s", "t", Curve.constant(1.0)),
                         Arc("b", "s", "u", Curve.constant(1.0))],
                        [Commodity("s", "t", 1.0)])
        assert shortest_path(inst, {"a": 1.0, "b": 1.0}, "u", "t") is None

    def test_negative_arc_costs_allowed(self):
        inst = Instance(["s", "m", "t"],
                        [Arc("a", "s", "m", Curve.constant(1.0)),
                         Arc("b", "m", "t", Curve.constant(1.0)),
                         Arc("c", "s", "t", Curve.constant(1.0))],
                        [Commodity("s", "t", 1.0)])
        path, dist = shortest_path(inst, {"a": 2.0, "b": -1.5, "c": 1.0},
                                   "s", "t")
        assert path == ("a", "b") and dist == pytest.approx(0.5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_path_enumeration_on_dags(self, seed):
        # random DAG on v0..v(n-1) with arc costs of either sign; the
        # reference is the least cost over all enumerated paths
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        nodes = [f"v{i}" for i in range(n)]
        arcs = [Arc(f"a{i}{j}", nodes[i], nodes[j], Curve.constant(1.0))
                for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.5]
        costs = {a.id: rng.choice([-1.0, 1.0]) * rng.randint(0, 5) / 2
                 for a in arcs}
        commodity = Commodity("v0", rng.choice(nodes[1:]), 1.0)
        inst = Instance(nodes, arcs, [commodity])
        lengths = [sum(costs[a] for a in p)
                   for p in enumerate_paths(inst, commodity)]
        found = shortest_path(inst, costs, commodity.source, commodity.sink)
        if not lengths:
            assert found is None
            return
        path, length = found
        assert path in enumerate_paths(inst, commodity)
        assert length == pytest.approx(min(lengths), abs=1e-12)
        assert sum(costs[a] for a in path) == pytest.approx(length,
                                                            abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 10, 19])
    def test_one_search_per_source_matches_each_commodity(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=8,
                                             max_commodities=4)
        assert len(inst.commodities) > 1
        costs = {a.id: rng.uniform(0.0, 2.0) for a in inst.arcs}
        assert _shortest_paths(inst, costs) == [
            shortest_path(inst, costs, c.source, c.sink)
            for c in inst.commodities]

    def test_negative_cycle_is_typed_error(self):
        inst = Instance(["s", "u", "w", "t"],
                        [Arc("a", "s", "u", Curve.constant(1.0)),
                         Arc("b", "u", "w", Curve.constant(1.0)),
                         Arc("c", "w", "u", Curve.constant(1.0)),
                         Arc("d", "u", "t", Curve.constant(1.0))],
                        [Commodity("s", "t", 1.0)])
        with pytest.raises(InvalidInstance, match="negative-cost cycle"):
            shortest_path(inst, {"a": 1.0, "b": -2.0, "c": 1.0, "d": 1.0},
                          "s", "t")


class TestMonotoneCheck:
    def test_plain_latencies_pass(self):
        check_monotone_perceived(braess(3, 1.0).instance, None)

    def test_negative_perceived_rejected(self):
        inst = pigou(Curve.constant(1.0), Curve.constant(1.0))
        dev = Deviation.constants({"a1": -2.0})
        with pytest.raises(NonMonotonePerceived):
            check_monotone_perceived(inst, dev)

    def test_decreasing_perceived_rejected(self):
        inst = pigou(Curve.constant(1.0), Curve.constant(1.0))
        dev = Deviation({"a1": Curve.pwl([(0.0, 0.5), (1.0, -0.5)])})
        with pytest.raises(NonMonotonePerceived):
            check_monotone_perceived(inst, dev)

    def test_narrow_cubic_dip_rejected(self):
        # 1 + (x-c)^3 - 3h^2 (x-c) decreases on [c-h, c+h], 1e-3 wide,
        # between the sample points 32/64 and 33/64
        c, h = 0.5 + 1.0 / 128, 5e-4
        dev = Deviation({"a1": Curve.poly(
            [3 * h * h * c - c ** 3, 3 * c * c - 3 * h * h, -3 * c, 1.0])})
        inst = pigou(Curve.constant(1.0), Curve.constant(1.0))
        with pytest.raises(NonMonotonePerceived, match="decreasing"):
            check_monotone_perceived(inst, dev)

    def test_badly_scaled_cubic_dip_rejected(self):
        # 1 - x + x^2/2 dips to 1/2 at x = 1; the cubic term, 1e-16 times
        # smaller, made the eigenvalue root of q' land at 2 instead
        dev = Deviation({"a1": Curve.poly([0.0, -1.0, 0.5, 1e-16 / 3])})
        inst = pigou(Curve.constant(1.0), Curve.constant(1.0), demand=3.0)
        with pytest.raises(NonMonotonePerceived, match="decreasing"):
            check_monotone_perceived(inst, dev)


class TestWardrop:
    def test_pigou_linear(self):
        # l = (x, 1): all flow takes the variable arc
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.constant(1.0))
        result = wardrop(inst)
        assert result.flow.arc_flow("a1") == pytest.approx(1.0, abs=1e-7)
        assert social_cost(inst, result.flow) == pytest.approx(1.0, abs=1e-7)
        assert result.relative_gap <= 1e-8

    def test_interior_split(self):
        # l = (x, 0.5 + x): split solves x1 = x2 + 0.5 -> (0.75, 0.25)
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.poly([0.5, 1.0]))
        result = wardrop(inst)
        assert result.flow.arc_flow("a1") == pytest.approx(0.75, abs=1e-7)
        assert social_cost(inst, result.flow) == pytest.approx(0.75, abs=1e-7)

    def test_quadratic_split(self):
        # l = (x^2, 1), demand 2: x1 = 1, common latency 1, cost 2
        inst = pigou(Curve.poly([0.0, 0.0, 1.0]), Curve.constant(1.0), 2.0)
        result = wardrop(inst)
        assert result.flow.arc_flow("a1") == pytest.approx(1.0, abs=1e-6)
        assert social_cost(inst, result.flow) == pytest.approx(2.0, abs=1e-6)

    def test_deviation_shifts_split(self):
        # marginal toll x on the variable arc recovers the social optimum
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.constant(1.0))
        dev = Deviation({"a1": Curve.poly([0.0, 1.0])})
        result = wardrop(inst, dev)
        assert result.flow.arc_flow("a1") == pytest.approx(0.5, abs=1e-6)
        assert social_cost(inst, result.flow) == pytest.approx(0.75, abs=1e-6)

    def test_braess_base_equilibrium(self):
        case = braess(3, 1.0)
        result = wardrop(case.instance)
        assert social_cost(case.instance, result.flow) == pytest.approx(
            1.0, abs=1e-6)

    def test_braess_deviated_equilibrium(self):
        case = braess(3, 1.0)
        cost = worst_equilibrium_cost(case.instance, case.deviation, seed=0)
        assert cost == pytest.approx(case.expected_ratio, rel=1e-6)

    @pytest.mark.parametrize("m, beta, deviated", [
        (4, 0.5, True), (13, 1.0, False)],
        ids=["deviated-braess4", "undeviated-braess13"])
    def test_gap_certificate_recomputes(self, m, beta, deviated):
        case = braess(m, beta)
        deviation = case.deviation if deviated else None
        result = wardrop(case.instance, deviation)
        assert relative_gap(case.instance, result.flow,
                            deviation) == result.relative_gap
        assert result.relative_gap <= SolverConfig().relative_gap_tol

    def test_no_search_repeats_the_costs_before_it(self, monkeypatch):
        # the gap's search also supplies the next round's columns
        calls = []
        search = equilibrium._search

        def recording(instance, costs, source):
            calls.append(dict(costs))
            return search(instance, costs, source)

        monkeypatch.setattr(equilibrium, "_search", recording)
        wardrop(braess(8, 1.0).instance)
        assert len(calls) > 2
        assert all(a != b for a, b in zip(calls, calls[1:]))

    def test_one_flow_per_round_and_one_check(self, monkeypatch):
        # the converged round's flow is the result, checked once
        rounds, built, checked = [], [], []
        priced, init = equilibrium._shortest_paths, Flow.__init__
        check = Flow._check_feasibility

        def counting_rounds(*args, **kwargs):
            rounds.append(1)
            return priced(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_check(self):
            checked.append(1)
            check(self)

        monkeypatch.setattr(equilibrium, "_shortest_paths", counting_rounds)
        monkeypatch.setattr(Flow, "__init__", counting_init)
        monkeypatch.setattr(Flow, "_check_feasibility", counting_check)
        result = wardrop(pigou(Curve.poly([0.0, 1.0]), Curve.poly([0.5, 1.0])))
        assert len(rounds) == len(built) == 3
        assert len(checked) == 1
        assert result.flow.arc_flow("a1") == pytest.approx(0.75, abs=1e-7)

    @pytest.mark.parametrize("deviated", [False, True])
    def test_start_at_equilibrium_runs_one_round(self, deviated):
        # the one round counts a step and moves no flow
        case = braess(3, 1.0)
        start, deviation = (case.x, case.deviation) if deviated else (
            case.z, None)
        result = wardrop(case.instance, deviation, initial_paths=[
            dict(p) for p in start.commodity_paths])
        assert result.iterations == len(case.instance.commodities)
        assert result.flow.commodity_paths == start.commodity_paths

    def test_iteration_budget_raises_not_converged(self):
        with pytest.raises(NotConverged) as info:
            wardrop(braess(13, 1.0).instance,
                    config=SolverConfig(max_iterations=5))
        assert info.value.gap > info.value.tol
        assert info.value.iterations >= 5

    @pytest.mark.parametrize("deviated", [False, True])
    def test_braess_32_converges(self, deviated):
        case = braess(32, 1.0)
        deviation = case.deviation if deviated else None
        result = wardrop(case.instance, deviation)
        assert result.relative_gap <= SolverConfig().relative_gap_tol
        assert social_cost(case.instance, result.flow) == pytest.approx(
            case.expected_ratio if deviated else 1.0, rel=1e-9)

    def test_deviated_braess_64_costs_one_plus_m(self):
        case = braess(64, 1.0)
        result = wardrop(case.instance, case.deviation)
        assert social_cost(case.instance, result.flow) == pytest.approx(
            1.0 + 64, abs=1e-9)

    @pytest.mark.parametrize("m, deviated, most", [(64, True, 70),
                                                   (32, False, 207)])
    def test_newton_steps_on_braess(self, m, deviated, most):
        # deviated Braess takes about one Newton step per round
        case = braess(m, 1.0)
        result = wardrop(case.instance, case.deviation if deviated else None)
        assert result.iterations <= most

    @pytest.mark.parametrize("deviated", [False, True])
    def test_grid_with_four_commodities_is_nash(self, deviated):
        instance, deviation = grid(random.Random(8), 8, 4)
        deviation = deviation if deviated else None
        result = wardrop(instance, deviation)
        assert result.relative_gap <= 1e-8
        assert relative_gap(instance, result.flow,
                            deviation) == result.relative_gap
        assert verify_nash(instance, result.flow, deviation, eps=1e-7) == []

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_costs_match_the_pair_solver(self, seed, on_grid):
        rng = random.Random(seed)
        if on_grid:
            instance, deviation = grid(rng, rng.randint(2, 4),
                                       rng.randint(1, 2))
        else:
            instance = random_common_source_instance(rng, max_nodes=7,
                                                     max_commodities=3)
            deviation = random_feasible_deviation(rng, instance)
        for dev in (None, deviation):
            result = wardrop(instance, dev)
            assert result.iterations >= 1
            assert social_cost(instance, result.flow) == pytest.approx(
                social_cost(instance, pair_solver(instance, dev)), rel=1e-7)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("deviated", [False, True])
    def test_fibonacci_ladder_matches_the_pair_solver(self, p, deviated):
        # the flat rungs make the equilibria non-unique (p = 5 deviated
        # costs 9.877 here and 9.944 from the pair solver), so the
        # potentials are compared, not the costs
        case = fibonacci(p, 1.0)
        deviation = case.deviation if deviated else None
        result = wardrop(case.instance, deviation,
                         SolverConfig(max_iterations=2000))
        assert result.relative_gap <= 1e-8
        assert verify_nash(case.instance, result.flow, deviation,
                           eps=1e-7) == []
        reference = pair_solver(case.instance, deviation)
        assert result.potential_value == pytest.approx(
            beckmann_potential(case.instance, reference, deviation),
            rel=1e-9)

    def test_tighter_tolerance_respected(self):
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.poly([0.5, 1.0]))
        config = SolverConfig(relative_gap_tol=1e-12)
        result = wardrop(inst, config=config)
        assert result.relative_gap <= 1e-12

    def test_warm_start_from_given_paths(self):
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.poly([0.5, 1.0]))
        result = wardrop(inst, initial_paths=[{("a2",): 1.0}])
        assert result.flow.arc_flow("a1") == pytest.approx(0.75, abs=1e-7)

    def test_multicommodity(self):
        inst = Instance(
            ["s", "t", "u"],
            [Arc("a", "s", "t", Curve.poly([0.0, 1.0])),
             Arc("b", "s", "t", Curve.constant(2.0)),
             Arc("c", "t", "u", Curve.poly([1.0, 1.0]))],
            [Commodity("s", "t", 3.0), Commodity("s", "u", 1.0)])
        result = wardrop(inst)
        # arc a carries min(total, 2) before arc b becomes competitive
        assert result.flow.arc_flow("a") + result.flow.arc_flow("b") \
            == pytest.approx(4.0, abs=1e-9)
        assert result.flow.arc_flow("c") == pytest.approx(1.0, abs=1e-9)
        assert result.flow.arc_flow("a") == pytest.approx(2.0, abs=1e-6)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_reach_equilibrium(self, seed):
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=6)
        dev = random_feasible_deviation(rng, inst)
        result = wardrop(inst, dev)
        assert result.relative_gap <= 1e-8
        assert relative_gap(inst, result.flow, dev) == result.relative_gap
        assert verify_nash(inst, result.flow, dev, eps=1e-6) == []

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_restarts_agree_on_potential(self, seed):
        # the potential minimum is unique even when the flow is not
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=5)
        base = wardrop(inst)
        for trial in range(2):
            rng2 = random.Random(seed + trial + 1)
            from devratio.search import random_flow
            start = random_flow(rng2, inst)
            again = wardrop(inst, initial_paths=[dict(p) for p in
                                                 start.commodity_paths])
            assert again.potential_value == pytest.approx(
                base.potential_value, rel=1e-7, abs=1e-7)


def _curves(draw):
    """A non-decreasing curve on [0, inf): a polynomial of degree <= 3 with
    non-negative coefficients or a pwl curve with up to four breakpoints."""
    grid = st.integers(0, 12).map(lambda k: k / 4)
    if draw(st.booleans()):
        return Curve.poly(draw(st.lists(grid, min_size=1, max_size=4)))
    xs = sorted(draw(st.sets(grid, min_size=1, max_size=4)))
    rises = draw(st.lists(grid, min_size=len(xs), max_size=len(xs)))
    return Curve.pwl(zip(xs, itertools.accumulate(rises)))


@st.composite
def _moving_arcs(draw):
    """(moving, t_max) for equilibrium._line_search: arcs whose flows f + t d
    stay non-negative for t in [0, t_max]."""
    moving = []
    for k in range(draw(st.integers(1, 4))):
        lat = _curves(draw)
        dev = _curves(draw) if draw(st.booleans()) else Curve.constant(0.0)
        # half of the flows sit on a breakpoint, where the slope jumps
        kinks = [x for c in (lat, dev) if c.kind == "pwl" for x, _ in c.data]
        f = draw(st.sampled_from(kinks) if kinks and draw(st.booleans())
                 else st.integers(0, 24).map(lambda j: j / 8))
        d = draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.integers(1, 8).map(lambda j: j / 4))
        moving.append((f"a{k}", lat, dev, f, d))
    t_max = min([draw(st.integers(1, 16).map(lambda j: j / 4))]
                + [f / -d for *_, f, d in moving if d < 0.0])
    assume(t_max > 0.0)
    return moving, t_max


class TestLineSearch:
    @given(_moving_arcs())
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_on_direct_sums(self, case):
        moving, t_max = case

        def g(t):
            return sum((lat.eval(f + t * d) + dev.eval(f + t * d)) * d
                       for _, lat, dev, f, d in moving)
        assume(abs(g(0.0)) > 1e-9)
        t = equilibrium._line_search(moving, t_max)
        if g(0.0) > 0.0:
            assert t is None
            return
        lo, hi = 0.0, t_max  # the least t with g(t) >= 0, or t_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if g(mid) > 0.0 else (mid, hi)
        assert 0.0 < t <= t_max
        assert t == pytest.approx(hi, abs=1e-9 * t_max)


class TestVerifyNash:
    def test_equilibrium_passes(self):
        case = braess(3, 1.0)
        assert verify_nash(case.instance, case.z) == []
        assert verify_nash(case.instance, case.x, case.deviation) == []

    def test_non_equilibrium_reported(self):
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.constant(1.0))
        bad = Flow(inst, [{("a1",): 0.2, ("a2",): 0.8}])
        report = verify_nash(inst, bad)
        assert len(report) == 1
        assert report[0]["path"] == ("a2",)
        assert report[0]["latency"] == pytest.approx(1.0)
        assert report[0]["shortest"] == pytest.approx(0.2)

    def test_deviation_changes_verdict(self):
        case = braess(2, 1.0)
        # x is an equilibrium only under its deviation
        assert verify_nash(case.instance, case.x, case.deviation) == []
        assert verify_nash(case.instance, case.x) != []


class TestPotential:
    def test_matches_integrals(self):
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.constant(1.0))
        flow = Flow(inst, [{("a1",): 0.5, ("a2",): 0.5}])
        assert beckmann_potential(inst, flow, None) == pytest.approx(
            0.5 ** 2 / 2 + 0.5)
        dev = Deviation.constants({"a2": 0.25})
        assert beckmann_potential(inst, flow, dev) == pytest.approx(
            0.5 ** 2 / 2 + 0.5 + 0.25 * 0.5)

    def test_equilibrium_minimizes_potential(self):
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.poly([0.5, 1.0]))
        eq = wardrop(inst)
        for split in (0.0, 0.25, 0.5, 0.9, 1.0):
            flow = Flow(inst, [{("a1",): split, ("a2",): 1.0 - split}])
            assert beckmann_potential(inst, flow, None) >= \
                eq.potential_value - 1e-9


class TestWorstEquilibriumCost:
    def test_face_reuses_the_solve_searches(self, monkeypatch):
        # the face LP takes its reduced costs from the last round's searches
        case = braess(4, 1.0)
        calls = []
        search = equilibrium._search

        def counting(instance, costs, source):
            calls.append(source)
            return search(instance, costs, source)

        monkeypatch.setattr(equilibrium, "_search", counting)
        wardrop(case.instance, case.deviation)
        alone = len(calls)
        calls.clear()
        worst_equilibrium_cost(case.instance, case.deviation)
        assert len(calls) == alone > 0

    def test_seeded_and_deterministic(self):
        case = braess(2, 1.0)
        a = worst_equilibrium_cost(case.instance, case.deviation, seed=3)
        b = worst_equilibrium_cost(case.instance, case.deviation, seed=3)
        assert a == b

    def test_at_least_single_solve(self):
        case = braess(2, 1.0)
        single = social_cost(
            case.instance, wardrop(case.instance, case.deviation).flow)
        worst = worst_equilibrium_cost(case.instance, case.deviation, seed=0)
        assert worst >= single - 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tied_arcs_take_the_costliest_equilibrium(self, seed):
        # both arcs are perceived at 1, so every split is an equilibrium;
        # routing everything over b costs 1.0, over a only 0.5
        inst = pigou(Curve.constant(0.5), Curve.constant(1.0))
        dev = Deviation.constants({"a1": 0.5})
        worst = worst_equilibrium_cost(inst, dev, seed=seed)
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_large_braess_is_exact(self):
        case = braess(10, 1.0)
        worst = worst_equilibrium_cost(case.instance, case.deviation)
        assert worst == pytest.approx(case.expected_ratio, rel=1e-9)

    def test_latency_varying_on_face_is_typed_error(self):
        # q = l + delta = 1 on a1 at every flow, but l = x is not
        inst = pigou(Curve.poly([0.0, 1.0]), Curve.constant(1.0))
        dev = Deviation({"a1": Curve.poly([1.0, -1.0])})
        with pytest.raises(NonLinearFace, match="'a1'"):
            worst_equilibrium_cost(inst, dev)

    def test_zero_cost_cycle_is_typed_error(self):
        zero, one = Curve.constant(0.0), Curve.constant(1.0)
        inst = Instance(["s", "u", "w", "t"],
                        [Arc("a", "s", "u", one), Arc("b", "u", "t", one),
                         Arc("c", "u", "w", zero), Arc("d", "w", "u", zero)],
                        [Commodity("s", "t", 1.0)])
        with pytest.raises(NonLinearFace, match="cycle") as info:
            worst_equilibrium_cost(inst)
        assert "arc 'c'" in str(info.value) or "arc 'd'" in str(info.value)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_path_enumeration_on_constant_latencies(self, seed):
        # with constant l and delta, the equilibria are the splits of each
        # demand over the paths of least l + delta, so the worst cost is
        # sum_i r_i * max l(P) over those paths
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        nodes = [f"v{i}" for i in range(n)]
        arcs, deltas = [], {}
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or rng.random() < 0.5:
                    arc_id = f"a{i}{j}"
                    arcs.append(Arc(arc_id, nodes[i], nodes[j],
                                    Curve.constant(rng.randint(1, 3))))
                    deltas[arc_id] = rng.randint(0, 2)
        sinks = rng.sample(nodes[1:], rng.randint(1, min(2, n - 1)))
        inst = Instance(nodes, arcs, [Commodity("v0", t, rng.randint(1, 3))
                                      for t in sinks])
        expected = 0.0
        for commodity in inst.commodities:
            paths = enumerate_paths(inst, commodity)
            length = {p: sum(inst.arcs_by_id[a].latency.eval(0.0)
                             for a in p) for p in paths}
            perceived = {p: length[p] + sum(deltas[a] for a in p)
                         for p in paths}
            least = min(perceived.values())
            expected += commodity.demand * max(
                length[p] for p in paths if perceived[p] == least)
        worst = worst_equilibrium_cost(inst, Deviation.constants(deltas))
        assert worst == pytest.approx(expected, rel=1e-9)
