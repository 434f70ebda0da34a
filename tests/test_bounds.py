import pytest
from hypothesis import given, settings, strategies as st

from devratio.bounds import (SmoothnessQuery, bpoa_bound,
                             bpoa_dr_gap, heterogeneous_bound, mu_hat,
                             path_deviation_bound, pra_bound, pra_lower_even,
                             stability_bound)
from devratio.core import Curve
from devratio.errors import (DemandNotNormalized, EpsilonOutOfRange,
                             GammaOutOfRange, MuTooLarge, ParameterOutOfRange)


class TestPraBound:
    def test_neutral_players_get_one(self):
        assert pra_bound(0.0, 2.0, 6, 1.0) == 1.0

    def test_positive_gamma(self):
        # 1 + gk * ceil((n-1)/2) * r
        assert pra_bound(0.5, 2.0, 6, 1.5) == pytest.approx(
            1.0 + 1.0 * 3 * 1.5)

    def test_negative_gamma(self):
        gk = -0.25 * 2.0
        expected = 1.0 - gk / (1.0 + gk) * 2 * 1.0
        assert pra_bound(-0.25, 2.0, 4, 1.0) == pytest.approx(expected)
        assert expected > 1.0

    def test_gamma_floor(self):
        with pytest.raises(GammaOutOfRange):
            pra_bound(-0.5, 2.0, 4, 1.0)

    def test_odd_even_ceiling(self):
        # ceil((n-1)/2) is the same for n = 6 and n = 7
        assert pra_bound(1.0, 1.0, 6, 1.0) == pra_bound(1.0, 1.0, 7, 1.0)
        assert pra_bound(1.0, 1.0, 8, 1.0) > pra_bound(1.0, 1.0, 7, 1.0)


class TestPraLowerEven:
    def test_unit_demand_closes_gap(self):
        for gamma in (0.5, 1.0, -0.3):
            assert pra_lower_even(gamma, 1.0, 6, 1.0) == pytest.approx(
                pra_bound(gamma, 1.0, 6, 1.0))

    def test_below_upper_for_large_demand(self):
        for r in (1.5, 2.0, 4.0):
            lower = pra_lower_even(1.0, 1.0, 6, r)
            upper = pra_bound(1.0, 1.0, 6, r)
            assert lower <= upper + 1e-12
            assert lower == pytest.approx(upper - 1.0 * (r - 1.0))

    def test_odd_n_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            pra_lower_even(1.0, 1.0, 5, 1.0)


class TestStabilityBound:
    def test_formula(self):
        assert stability_bound(0.1, 6, 2.0) == pytest.approx(
            0.2 / 0.9 * 3 * 2.0)

    def test_vanishes_with_epsilon(self):
        assert stability_bound(1e-9, 4, 1.0) == pytest.approx(4e-9, rel=1e-6)

    def test_epsilon_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(EpsilonOutOfRange):
                stability_bound(bad, 4, 1.0)

    @given(st.floats(0.001, 0.9), st.integers(2, 30), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_everything(self, eps, n, r):
        base = stability_bound(eps, n, r)
        assert stability_bound(min(eps * 1.5, 0.95), n, r) >= base
        assert stability_bound(eps, n + 2, r) >= base
        assert stability_bound(eps, n, r * 2) >= base


class TestMuHat:
    def test_affine_anchor(self):
        # for l = c*x + d the supremum is 1/(4(1+beta)), approached as the
        # constant part becomes negligible at large flows
        for beta in (0.0, 1.0, 2.0):
            q = SmoothnessQuery(Curve.poly([1.0, 2.0]), beta,
                                domain_max=4000.0)
            result = mu_hat(q)
            assert result.value == pytest.approx(1.0 / (4.0 * (1.0 + beta)),
                                                 abs=5e-4)

    def test_boundary_flag_on_growing_objective(self):
        # with a large constant part the objective still grows at the edge
        result = mu_hat(SmoothnessQuery(Curve.poly([1.0, 1.0]), 0.0,
                                        domain_max=10.0))
        assert result.boundary
        assert result.value < 0.25  # below the asymptotic affine constant

    def test_pure_linear_exact(self):
        # l = x: ratio = z(x - (1+b)z)/x^2, max at z = x/(2(1+b))
        result = mu_hat(SmoothnessQuery(Curve.poly([0.0, 1.0]), 1.0,
                                        domain_max=10.0))
        assert result.value == pytest.approx(1.0 / 8.0, abs=1e-6)
        assert result.arg_z == pytest.approx(result.arg_x / 4.0, rel=1e-2)

    def test_constant_latency_zero(self):
        result = mu_hat(SmoothnessQuery(Curve.constant(2.0), 0.5,
                                        domain_max=10.0))
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert not result.boundary or result.value == 0.0

    def test_zero_latency_unbounded_is_not_raised(self):
        # l == 0 gives numerator 0 everywhere: mu = 0, not Unbounded
        result = mu_hat(SmoothnessQuery(Curve.constant(0.0), 0.0,
                                        domain_max=5.0))
        assert result.value == 0.0

    def test_ramp_latency_near_one(self):
        # l = 0 until x=2 then linear: ratio tends to z/x as x -> 2+, so
        # the supremum approaches 1 (taken at z = 2, x just above 2)
        curve = Curve.pwl([(2.0, 0.0), (3.0, 1.0)])
        result = mu_hat(SmoothnessQuery(curve, 0.0, domain_max=5.0))
        assert 0.9 <= result.value < 1.0 + 1e-9

    def test_float_conversion(self):
        result = mu_hat(SmoothnessQuery(Curve.poly([0.0, 1.0]), 0.0,
                                        domain_max=10.0))
        assert float(result) == result.value

    @given(st.floats(0.0, 4.0), st.floats(0.1, 3.0), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_decreasing_in_beta(self, beta, c, d):
        q0 = SmoothnessQuery(Curve.poly([d, c]), beta, domain_max=50.0)
        q1 = SmoothnessQuery(Curve.poly([d, c]), beta + 0.5, domain_max=50.0)
        assert mu_hat(q1).value <= mu_hat(q0).value + 1e-9


class TestBpoaBound:
    def test_classic_affine_value(self):
        # beta = 0, mu = 1/4 -> 4/3
        assert bpoa_bound(0.25, 0.0) == pytest.approx(4.0 / 3.0)

    def test_with_deviation(self):
        # beta = 1, mu = 1/8 -> 16/7
        assert bpoa_bound(0.125, 1.0) == pytest.approx(16.0 / 7.0)

    def test_mu_cap(self):
        with pytest.raises(MuTooLarge):
            bpoa_bound(1.0, 0.0)


class TestPathDeviationBound:
    def test_affine_beta_one(self):
        # mu0 = 1/4, beta = 1: 2 / (1 - 1/2) = 4
        assert path_deviation_bound(0.25, 1.0) == pytest.approx(4.0)

    def test_beta_zero_matches_bpoa(self):
        assert path_deviation_bound(0.25, 0.0) == pytest.approx(
            bpoa_bound(0.25, 0.0))

    def test_cap_depends_on_beta(self):
        path_deviation_bound(0.25, 1.0)  # fine: 1/4 < 1/2
        with pytest.raises(MuTooLarge):
            path_deviation_bound(0.25, 3.1)  # 1/4 >= 1/4.1


class TestBpoaDrGap:
    def test_affine_value(self):
        # beta = 0, mu = 1/4 -> 1/3
        assert bpoa_dr_gap(0.25, 0.0) == pytest.approx(1.0 / 3.0)

    def test_consistency_with_bpoa(self):
        for mu, beta in ((0.25, 0.0), (0.125, 1.0), (0.1, 2.0)):
            assert bpoa_bound(mu, beta) - bpoa_dr_gap(mu, beta) \
                == pytest.approx(1.0 + beta)

    def test_mu_cap(self):
        with pytest.raises(MuTooLarge):
            bpoa_dr_gap(1.2, 0.0)


class TestHeterogeneousBound:
    def test_uniform_players(self):
        assert heterogeneous_bound([1.0], [1.0], 2.0) == pytest.approx(3.0)

    def test_mixed_population(self):
        value = heterogeneous_bound([1.0, 0.0], [0.25, 0.75], 2.0)
        assert value == pytest.approx(1.0 + 2.0 * 0.25)

    def test_neutral_population(self):
        assert heterogeneous_bound([0.0, 0.0], [0.5, 0.5], 5.0) == 1.0

    def test_normalization_enforced(self):
        with pytest.raises(DemandNotNormalized):
            heterogeneous_bound([1.0], [2.0], 1.0)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_between_one_and_full_risk(self, taus, beta):
        demands = [1.0 / len(taus)] * len(taus)
        value = heterogeneous_bound(taus, demands, beta)
        assert 1.0 - 1e-12 <= value <= 1.0 + beta + 1e-12
