import json

import pytest
from hypothesis import given, settings, strategies as st

from devratio import core
from devratio.core import (Arc, Commodity, Curve, Deviation, Flow, Instance,
                           ThresholdPair, critical_points, enumerate_paths,
                           path_latency, social_cost, validate_deviation)
from devratio.equilibrium import check_monotone_perceived
from devratio.errors import InvalidInstance, NonMonotonePerceived, PathExplosion
from devratio.generators import braess

#: midway between the sample points 32/64 and 33/64 of [0, 1]: a dip here
#: narrower than 1/64 escapes a check that samples 64 points per unit
DIP_AT = 0.5 + 1.0 / 128


def two_parallel(l1: Curve, l2: Curve, demand: float = 1.0) -> Instance:
    return Instance(
        ["s", "t"],
        [Arc("a1", "s", "t", l1), Arc("a2", "s", "t", l2)],
        [Commodity("s", "t", demand)],
    )


class TestCurve:
    def test_poly_eval(self):
        c = Curve.poly([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
        assert c.eval(0.0) == 1.0
        assert c.eval(2.0) == 1.0 + 4.0 + 12.0

    def test_poly_integral(self):
        c = Curve.poly([0.0, 1.0])
        assert c.integral(2.0) == pytest.approx(2.0, abs=1e-12)
        c = Curve.poly([1.0, 0.0, 3.0])  # integral = x + x^3
        assert c.integral(2.0) == pytest.approx(10.0, abs=1e-12)

    def test_pwl_eval_and_extrapolation(self):
        c = Curve.pwl([(1.0, 0.0), (2.0, 4.0)])
        assert c.eval(0.5) == 0.0  # constant before the first breakpoint
        assert c.eval(1.5) == pytest.approx(2.0)
        assert c.eval(3.0) == pytest.approx(8.0)  # last slope continues

    def test_pwl_flat_tail(self):
        c = Curve.pwl([(1.0, 0.0), (1.5, 3.0), (2.5, 3.0)])
        assert c.eval(10.0) == pytest.approx(3.0)

    def test_pwl_integral(self):
        c = Curve.pwl([(1.0, 0.0), (2.0, 4.0)])
        # 0 on [0,1], triangle 0->4 on [1,2]
        assert c.integral(2.0) == pytest.approx(2.0, abs=1e-12)
        assert c.integral(0.5) == 0.0
        # beyond the last breakpoint the slope-4 line continues
        assert c.integral(3.0) == pytest.approx(2.0 + (4.0 + 8.0) / 2)

    @pytest.mark.parametrize("build", [
        lambda: Curve.poly([0.0, float("nan")]),
        lambda: Curve.poly([float("inf"), 1.0]),
        lambda: Curve.pwl([(0.0, 0.0), (1.0, float("nan"))]),
        lambda: Curve.pwl([(0.0, 0.0), (float("inf"), 1.0)]),
        lambda: Curve.from_json({"poly": [float("nan")]}),
        lambda: Curve.from_json({"pwl": [[0.0, 0.0], [1.0, float("-inf")]]}),
        lambda: Curve.poly([0.0, 1.0]).scale(float("inf")),
        lambda: Curve.pwl([(0.0, 1.0), (1.0, 2.0)]).scale(float("nan"))],
        ids=["poly-nan", "poly-inf", "pwl-nan", "pwl-inf", "json-poly",
             "json-pwl", "scale-poly", "scale-pwl"])
    def test_non_finite_numbers_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_scale(self):
        assert Curve.poly([1.0, 2.0]).scale(3.0).eval(1.0) == 9.0
        assert Curve.pwl([(0.0, 0.0), (1.0, 2.0)]).scale(0.5).eval(1.0) == 1.0

    def test_json_round_trip(self):
        for c in (Curve.poly([1.0, 2.0]), Curve.pwl([(0.0, 1.0), (2.0, 3.0)])):
            again = Curve.from_json(c.to_json())
            assert again == c

    def test_pwl_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Curve.pwl([(1.0, 0.0), (1.0, 2.0)])

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
           st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_poly_monotone(self, coeffs, x1, x2):
        c = Curve.poly(coeffs)
        lo, hi = sorted((x1, x2))
        assert c.eval(lo) <= c.eval(hi) + 1e-12

    @given(st.lists(st.integers(0, 40), min_size=2, max_size=5,
                    unique=True),
           st.floats(0.1, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_pwl_integral_matches_riemann(self, xs, upper):
        pts = [(x / 8.0, float(i)) for i, x in enumerate(sorted(xs))]
        c = Curve.pwl(pts)
        n = 4000
        approx = sum(c.eval((k + 0.5) * upper / n) * upper / n
                     for k in range(n))
        assert c.integral(upper) == pytest.approx(approx, rel=1e-3, abs=1e-3)


def _reference_integral(c: Curve, upper: float) -> float:
    """The trapezoid rule over critical_points: Curve.integral's pwl branch
    before it walked the breakpoints itself."""
    if upper <= 0.0:
        return 0.0
    xs = critical_points([(1.0, c)], upper)
    return sum(0.5 * (c.eval(a) + c.eval(b)) * (b - a)
               for a, b in zip(xs, xs[1:]))


def _reference_slope(c: Curve, x: float) -> float:
    """Curve.slope's pwl branch before it read the cached piece table."""
    pts = c.data
    if len(pts) == 1 or x < pts[0][0]:
        return 0.0
    k = min(sum(px <= x for px, _ in pts), len(pts) - 1)
    return (pts[k][1] - pts[k - 1][1]) / (pts[k][0] - pts[k - 1][0])


@st.composite
def _pwl_and_points(draw):
    """A pwl curve of 1-5 breakpoints, some at x <= 0, and points on each
    breakpoint, between and around them, at 0 and past the last one."""
    number = st.floats(-3.0, 5.0, allow_nan=False)
    xs = sorted(draw(st.sets(number, min_size=1, max_size=5)))
    c = Curve.pwl([(x, draw(number)) for x in xs])
    points = [0.0, *xs, *((a + b) / 2 for a, b in zip(xs, xs[1:])),
              xs[0] - 1.0, xs[-1] + draw(st.floats(1e-9, 4.0)),
              draw(number)]
    return c, points


class TestPwlKernels:
    @given(_pwl_and_points())
    @settings(max_examples=300, deadline=None)
    def test_integral_matches_the_critical_point_trapezoid(self, case):
        c, points = case
        for upper in points:
            assert c.integral(upper) == _reference_integral(c, upper)

    @given(_pwl_and_points())
    @settings(max_examples=300, deadline=None)
    def test_slope_matches_the_breakpoint_count(self, case):
        c, points = case
        for x in points:
            assert c.slope(x) == _reference_slope(c, x)

    def test_piece_table_is_built_once(self):
        c = Curve.pwl([(0.0, 1.0), (1.0, 3.0), (3.0, 4.0)])
        assert c.pieces == ((0.0, 1.0, 3.0), (0.0, 2.0, 0.5))
        assert c.pieces is c.pieces
        assert c == Curve.pwl(c.data) and hash(c) == hash(Curve.pwl(c.data))


class TestLatencyValidation:
    def test_negative_poly_coefficient_rejected(self):
        with pytest.raises(InvalidInstance):
            two_parallel(Curve.poly([1.0, -1.0]), Curve.constant(1.0))

    def test_decreasing_pwl_rejected(self):
        with pytest.raises(InvalidInstance):
            two_parallel(Curve.pwl([(0.0, 2.0), (1.0, 1.0)]),
                         Curve.constant(1.0))


class TestInstance:
    def test_duplicate_arc_id_rejected(self):
        with pytest.raises(InvalidInstance):
            Instance(["s", "t"],
                     [Arc("a", "s", "t", Curve.constant(1.0)),
                      Arc("a", "s", "t", Curve.constant(1.0))],
                     [Commodity("s", "t", 1.0)])

    def test_duplicate_sinks_rejected(self):
        with pytest.raises(InvalidInstance):
            Instance(["s", "t", "u"],
                     [Arc("a", "s", "t", Curve.constant(1.0)),
                      Arc("b", "u", "t", Curve.constant(1.0))],
                     [Commodity("s", "t", 1.0), Commodity("u", "t", 1.0)])

    def test_zero_demand_rejected(self):
        with pytest.raises(InvalidInstance):
            Commodity("s", "t", 0.0)

    def test_common_source_flag(self):
        case = braess(3, 1.0)
        assert case.instance.common_source
        assert case.instance.source == "s"

    def test_json_round_trip(self):
        case = braess(3, 0.5)
        blob = json.dumps(case.instance.to_json())
        again = Instance.from_json(json.loads(blob))
        assert again.to_json() == case.instance.to_json()
        assert [a.id for a in again.arcs] == [a.id for a in case.instance.arcs]

    def test_dot_export_mentions_every_arc(self):
        case = braess(2, 1.0)
        dot = case.instance.to_dot()
        for arc in case.instance.arcs:
            assert arc.id in dot

    def test_threshold_assumption_check(self):
        inst = two_parallel(Curve.poly([0.0, 1.0]), Curve.constant(1.0))
        ok = Instance(inst.nodes, inst.arcs, inst.commodities,
                      ThresholdPair.alpha_beta(-0.5, 1.0))
        ok.check_threshold_assumption()  # l + alpha*l = l/2 >= 0

    def test_threshold_dip_between_samples_rejected(self):
        # l + theta_min = (x - DIP_AT)^2 - 1e-6
        inst = Instance(
            ["s", "t"],
            [Arc("a", "s", "t", Curve.poly([DIP_AT ** 2, 0.0, 1.0]))],
            [Commodity("s", "t", 1.0)],
            ThresholdPair.per_arc({"a": Curve.poly([1e-6, 2.0 * DIP_AT])}))
        with pytest.raises(InvalidInstance, match="theta_min negative"):
            inst.check_threshold_assumption()

    def test_unknown_threshold_kind_rejected(self):
        spec = braess(2, 1.0).instance.to_json()
        spec["thresholds"]["kind"] = "alphabeta"
        with pytest.raises(ValueError, match="'alphabeta'"):
            Instance.from_json(spec)


class TestEnumeratePaths:
    def test_two_parallel_arcs(self):
        inst = two_parallel(Curve.constant(1.0), Curve.constant(2.0))
        paths = enumerate_paths(inst, inst.commodities[0], cap=10)
        assert paths == [("a1",), ("a2",)]

    def test_single_arc(self):
        inst = Instance(["s", "t"], [Arc("a", "s", "t", Curve.constant(1.0))],
                        [Commodity("s", "t", 1.0)])
        assert enumerate_paths(inst, inst.commodities[0]) == [("a",)]

    def test_braess_m2_has_three_paths(self):
        case = braess(2, 1.0)
        paths = enumerate_paths(case.instance, case.instance.commodities[0])
        assert len(paths) == 3

    def test_cap_enforced(self):
        case = braess(4, 1.0)
        with pytest.raises(PathExplosion):
            enumerate_paths(case.instance, case.instance.commodities[0], cap=2)

    def test_order_is_deterministic(self):
        case = braess(4, 1.0)
        paths = enumerate_paths(case.instance, case.instance.commodities[0])
        assert paths == sorted(paths)


class TestFlow:
    def test_demand_mismatch_rejected(self):
        inst = two_parallel(Curve.constant(1.0), Curve.constant(1.0))
        with pytest.raises(InvalidInstance):
            Flow(inst, [{("a1",): 0.5}])

    def test_disconnected_path_rejected(self):
        case = braess(2, 1.0)
        with pytest.raises(InvalidInstance):
            Flow(case.instance, [{("s>v1", "w1>t"): 1.0}])

    def test_arc_view(self):
        inst = two_parallel(Curve.constant(1.0), Curve.constant(1.0))
        flow = Flow(inst, [{("a1",): 0.25, ("a2",): 0.75}])
        assert flow.arc_flow("a1") == 0.25
        assert flow.support() == {"a1", "a2"}

    def test_flow_json_round_trip(self):
        case = braess(3, 1.0)
        again = Flow.from_json(case.instance, case.z.to_json())
        assert again.arc_flows == pytest.approx(case.z.arc_flows)


class TestSocialCost:
    def test_single_arc_identity(self):
        inst = Instance(["s", "t"],
                        [Arc("a", "s", "t", Curve.poly([0.0, 1.0]))],
                        [Commodity("s", "t", 1.0)])
        flow = Flow(inst, [{("a",): 1.0}])
        assert social_cost(inst, flow) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_braess_original_cost_is_one(self, m):
        case = braess(m, 1.0)
        assert social_cost(case.instance, case.z) == pytest.approx(
            1.0, abs=1e-12)

    def test_braess_deviated_cost(self):
        case = braess(3, 1.0)
        assert social_cost(case.instance, case.x) == pytest.approx(
            4.0, rel=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_path_sum_equals_arc_sum(self, seed):
        import random
        from devratio.search import (random_common_source_instance,
                                     random_flow)
        rng = random.Random(seed)
        inst = random_common_source_instance(rng, max_nodes=6)
        flow = random_flow(rng, inst)
        arc_sum = social_cost(inst, flow)
        path_sum = sum(
            v * path_latency(inst, flow, p)
            for paths in flow.commodity_paths for p, v in paths.items())
        assert path_sum == pytest.approx(arc_sum, rel=1e-9)

    def test_invariant_under_redecomposition(self):
        # same arc flows through different path splits
        inst = Instance(
            ["s", "m", "t"],
            [Arc("a", "s", "m", Curve.poly([0.0, 1.0])),
             Arc("b", "s", "m", Curve.poly([0.0, 1.0])),
             Arc("c", "m", "t", Curve.constant(1.0))],
            [Commodity("s", "t", 2.0)])
        f1 = Flow(inst, [{("a", "c"): 1.0, ("b", "c"): 1.0}])
        f2 = Flow(inst, [{("a", "c"): 0.5, ("b", "c"): 1.5}])
        f2b = Flow(inst, [{("a", "c"): 1.0, ("b", "c"): 1.0}])
        assert social_cost(inst, f1) == pytest.approx(social_cost(inst, f2b))
        assert f1.arc_flows != pytest.approx(f2.arc_flows)


class TestPathLatency:
    def test_zero_deviation_matches_plain(self):
        case = braess(3, 1.0)
        path = ("s>v1", "v1>w1", "w1>t")
        plain = path_latency(case.instance, case.x, path)
        with_dev = path_latency(case.instance, case.x, path, Deviation.zero())
        assert plain == with_dev

    def test_additive_over_arcs(self):
        inst = Instance(
            ["s", "m", "t"],
            [Arc("a", "s", "m", Curve.poly([1.0, 2.0])),
             Arc("b", "m", "t", Curve.constant(3.0))],
            [Commodity("s", "t", 1.5)])
        flow = Flow(inst, [{("a", "b"): 1.5}])
        dev = Deviation.constants({"a": 0.5})
        assert path_latency(inst, flow, ("a", "b")) == pytest.approx(
            (1.0 + 3.0) + 3.0)
        assert path_latency(inst, flow, ("a", "b"), dev) == pytest.approx(
            (1.0 + 3.0) + 3.0 + 0.5)

    def test_carrying_paths_equalized_at_deviated_equilibrium(self):
        m, beta = 3, 1.0
        case = braess(m, beta)
        lats = {path_latency(case.instance, case.x, p, case.deviation)
                for p in case.x.commodity_paths[0]}
        assert max(lats) - min(lats) < 1e-9
        assert lats.pop() == pytest.approx(1.0 + beta * m, rel=1e-9)


class TestValidateDeviation:
    def test_zero_deviation_feasible(self):
        case = braess(3, 1.0)
        assert validate_deviation(case.instance, Deviation.zero()) == []

    def test_boundary_deviation_feasible(self):
        case = braess(3, 1.0)
        dev = Deviation({a.id: a.latency.scale(1.0)
                         for a in case.instance.arcs})
        assert validate_deviation(case.instance, dev) == []

    def test_oversized_deviation_reported(self):
        case = braess(3, 1.0)
        dev = Deviation({"v1>w1": Curve.constant(2.0)})  # theta_max = 1*l = 1
        report = validate_deviation(case.instance, dev)
        assert report and all(entry["arc"] == "v1>w1" for entry in report)
        assert all(entry["delta"] > entry["theta_max"] for entry in report)

    def test_dip_between_samples_reported(self):
        inst = Instance(["s", "t"], [Arc("a", "s", "t", Curve.constant(1.0))],
                        [Commodity("s", "t", 1.0)],
                        ThresholdPair.per_arc(upper={"a": Curve.constant(1.0)}))
        # delta = (x - DIP_AT)^2 - 1e-6 dips below theta_min = 0
        dev = Deviation({"a": Curve.poly([DIP_AT ** 2 - 1e-6, -2.0 * DIP_AT,
                                          1.0])})
        report = validate_deviation(inst, dev)
        assert [entry["x"] for entry in report] == [pytest.approx(DIP_AT)]
        assert report[0]["delta"] == pytest.approx(-1e-6)

    def test_thresholds_are_scaled_once_per_instance(self, monkeypatch):
        case = braess(3, 1.0)
        validate_deviation(case.instance, case.deviation)
        scaled, scale = [], Curve.scale

        def counted(curve, factor):
            scaled.append(factor)
            return scale(curve, factor)
        monkeypatch.setattr(Curve, "scale", counted)
        assert validate_deviation(case.instance, case.deviation) == []
        assert scaled == []


class TestCriticalPoints:
    def test_affine_and_pwl_give_piece_ends_without_numpy(self, monkeypatch):
        def fail(_):
            raise AssertionError("polyroots called")
        monkeypatch.setattr(core, "polyroots", fail)
        terms = [(1.0, Curve.poly([1.0, 2.0])),
                 (-0.5, Curve.pwl([(-1.0, 0.0), (0.5, 1.0), (3.0, 2.0)]))]
        assert critical_points(terms, 2.0) == [0.0, 0.5, 2.0]

    def test_roots_of_the_derivative_on_each_piece(self):
        # g = x^3 - 3x/4 + a pwl ramp of slope 3/4 from x = 1 on:
        # g' = 3x^2 - 3/4 has its root 1/2 on [0, 1], g' = 3x^2 none later
        terms = [(1.0, Curve.poly([0.0, -0.75, 0.0, 1.0])),
                 (1.0, Curve.pwl([(1.0, 0.0), (2.0, 0.75)]))]
        assert critical_points(terms, 3.0) == pytest.approx(
            [0.0, 0.5, 1.0, 2.0, 3.0])

    def test_cancelling_polynomials_add_no_roots(self):
        quadratic = Curve.poly([1.0, 0.0, 1.0])
        assert critical_points([(1.0, quadratic), (-1.0, quadratic)],
                               1.0) == [0.0, 1.0]

    def test_negligible_leading_coefficients(self):
        # g' = -1 + x + 1e-16 x^2 has its root at 1, not at 2 where the
        # eigenvalue root lands; a subnormal coefficient made it raise
        dip = Curve.poly([0.0, -1.0, 0.5, 1e-16 / 3])
        assert critical_points([(1.0, dip)], 3.0) == pytest.approx(
            [0.0, 1.0, 3.0])
        assert critical_points([(1.0, Curve.poly([0.0, 0.5, 0.0, 1e-320]))],
                               3.0) == [0.0, 3.0]


def _values(lo: int, hi: int, scale: float = 1.0):
    """Strategy: multiples of scale / 1000 in [lo, hi] * scale / 1000, so
    that no coefficient is vanishingly small beside another."""
    return st.integers(lo, hi).map(lambda k: k * scale / 1000.0)


def _pwl(values):
    return st.lists(st.tuples(st.integers(0, 40), values), min_size=1,
                    max_size=4, unique_by=lambda p: p[0]).map(sorted)


def _signed_curve(scale: float):
    """Strategy: a polynomial of degree <= 3 or a pwl curve with values
    in [-scale, scale]."""
    value = _values(-1000, 1000, scale)
    return st.one_of(
        st.lists(value, min_size=1, max_size=4).map(Curve.poly),
        _pwl(value).map(lambda pts: Curve.pwl(
            [(x / 16.0, y) for x, y in pts])))


#: non-negative, non-decreasing curves: latencies and threshold magnitudes
_latency = st.one_of(
    st.lists(_values(0, 2000), min_size=1, max_size=4).map(Curve.poly),
    _pwl(_values(0, 1000)).map(lambda pts: Curve.pwl([
        (x / 16.0, sum(y for _, y in pts[:k + 1]))
        for k, (x, _) in enumerate(pts)])))

_thresholds = st.one_of(
    st.builds(ThresholdPair.alpha_beta, _values(-990, 0), _values(0, 2000)),
    st.builds(lambda lower, upper: ThresholdPair.per_arc(
        {"a": lower}, {"a": upper}), _latency, _latency))


_random_case = st.tuples(
    _latency, _thresholds,
    st.sampled_from([1.0, 1e-3, 1e-6]).flatmap(_signed_curve),
    _values(250, 2000))


@st.composite
def _dip_case(draw):
    """A case built to dip narrowly inside [0, max(demand, 1)], around c:
    l + theta_min, or delta against one of its bounds, is
    k (x - c)^2 - depth; or l + delta is
    1 + amp ((x - c)^3 - 3 h^2 (x - c)), which decreases on [c - h, c + h]
    when amp > 0."""
    demand = draw(_values(250, 2000))
    c = draw(_values(0, 1000)) * max(demand, 1.0)
    k = draw(_values(100, 2000))  # dips at most 2 sqrt(depth / k) wide
    depth = draw(st.sampled_from([-1e-6, 1e-6]))
    dip = [k * c * c - depth, -2.0 * k * c, k]
    which = draw(st.sampled_from(["threshold", "lower", "upper", "monotone"]))
    if which == "threshold":
        latency = Curve.poly([k * c * c + max(-depth, 0.0), 0.0, k])
        thresholds = ThresholdPair.per_arc(
            {"a": Curve.poly([max(depth, 0.0), 2.0 * k * c])},
            {"a": draw(_latency)})
        return latency, thresholds, draw(_signed_curve(1.0)), demand
    latency = Curve.poly(draw(st.lists(_values(0, 2000), min_size=1,
                                       max_size=2 if which == "monotone"
                                       else 4)))
    thresholds = ThresholdPair.alpha_beta(draw(_values(-990, 0)),
                                          draw(_values(0, 2000)))
    if which == "monotone":
        h = draw(st.sampled_from([1e-3, 1e-2]))
        amp = draw(_values(-1000, 1000))
        slope = latency.data[1] if len(latency.data) > 1 else 0.0
        delta = [1.0 - latency.data[0] + amp * (3 * h * h * c - c ** 3),
                 amp * (3 * c * c - 3 * h * h) - slope, -3.0 * amp * c, amp]
        return latency, thresholds, Curve.poly(delta), demand
    bound = latency.scale(thresholds.alpha if which == "lower"
                          else thresholds.beta)
    sign = 1.0 if which == "lower" else -1.0
    delta = [0.0] * max(len(bound.data), 3)
    for i, coef in enumerate(bound.data):
        delta[i] += coef
    for i, coef in enumerate(dip):
        delta[i] += sign * coef
    return latency, thresholds, Curve.poly(delta), demand


def _reference_bounds(thresholds: ThresholdPair, latency: Curve,
                      x: float) -> tuple[float, float]:
    """theta_min and theta_max of the one arc "a" at x, straight from the
    pair's fields."""
    if thresholds.kind == "alpha_beta":
        return thresholds.alpha * latency.eval(x), \
            thresholds.beta * latency.eval(x)
    return -thresholds.lower["a"].eval(x), thresholds.upper["a"].eval(x)


def _dense_points(x_max: float, curves) -> list[float]:
    """Reference sampler: 4096 points per unit of [0, x_max] plus the pwl
    breakpoints in it."""
    n = int(x_max * 4096) + 1
    pts = {i * x_max / (n - 1) for i in range(n)}
    pts.update(x for c in curves if c.kind == "pwl" for x, _ in c.data
               if 0.0 <= x <= x_max)
    return sorted(pts)


class TestExactChecksMatchDenseSampling:
    """Whatever a dense sampler flags, the exact checks flag too."""

    @given(st.one_of(_random_case, _dip_case()))
    @settings(max_examples=100, deadline=None)
    def test_exact_flags_what_dense_sampling_flags(self, case):
        latency, thresholds, delta, demand = case
        inst = Instance(["s", "t"], [Arc("a", "s", "t", latency)],
                        [Commodity("s", "t", demand)], thresholds)
        dev = Deviation({"a": delta})
        x_max = max(demand, 1.0)
        curves = [latency, delta, *thresholds.lower.values(),
                  *thresholds.upper.values()]
        below_zero = out_of_bounds = decreasing = False
        prev = None
        for x in _dense_points(x_max, curves):
            lo, hi = _reference_bounds(thresholds, latency, x)
            below_zero |= latency.eval(x) + lo < -1e-12
            out_of_bounds |= not lo - 1e-9 <= delta.eval(x) <= hi + 1e-9
            q = latency.eval(x) + delta.eval(x)
            decreasing |= q < -1e-12 or (prev is not None and q < prev - 1e-12)
            prev = q

        if below_zero:
            with pytest.raises(InvalidInstance):
                inst.check_threshold_assumption()
        report = validate_deviation(inst, dev)
        if out_of_bounds:
            assert report
        for entry in report:
            x = entry["x"]
            assert 0.0 <= x <= x_max
            lo, hi = _reference_bounds(thresholds, latency, x)
            assert not lo - 1e-9 <= delta.eval(x) <= hi + 1e-9
        if decreasing:
            with pytest.raises(NonMonotonePerceived):
                check_monotone_perceived(inst, dev)
