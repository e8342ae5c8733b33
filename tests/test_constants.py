import math
from fractions import Fraction

import pytest

from aesq import constants
from aesq.constants import Region, SieveParams
from aesq.errors import DomainError, InfeasibleParametersError


class TestSieveParams:
    def test_default_sigma(self):
        p = SieveParams.for_theta(Fraction(9, 10))
        assert p.sigma == Fraction(2 * Fraction(9, 10) - 1, 7)

    def test_exponent_identity(self):
        # V = U * z at the exponent level
        for theta in (Fraction(8, 9), Fraction(9, 10), Fraction(95, 100), Fraction(1)):
            p = SieveParams.for_theta(theta)
            assert p.e_V == p.e_U + p.e_z

    def test_exponent_ordering(self):
        p = SieveParams.for_theta(Fraction(9, 10))
        assert 0 < p.e_z < p.e_U < p.e_V < Fraction(1, 2)


class TestClosedFormCrossCheck:
    @pytest.mark.parametrize("theta", [Fraction(8, 9), Fraction(95, 100), Fraction(1)])
    def test_density_integral_matches_log_form(self, theta):
        p = SieveParams.for_theta(theta)
        region = Region.gamma4(p)
        # the integrand over [e_V, 1/2] carries w((1-u)/u) = 1 on that range
        val = constants.sieve_integral(region, "upper_bound", tol=1e-9)
        assert val == pytest.approx(constants.ell4(theta), abs=1e-6)

    def test_d11_degenerate_at_one(self):
        p = SieveParams.for_theta(Fraction(1))
        region = Region.d11(p)
        assert region.is_empty()
        assert constants.sieve_integral(region, "upper_bound") == 0.0

    def test_d11_nonempty_below_one(self):
        p = SieveParams.for_theta(Fraction(95, 100))
        assert not Region.d11(p).is_empty()


class TestCOfTheta:
    def test_endpoint_values(self):
        r1 = constants.c_of_theta(Fraction(1), tol=1e-6)
        assert r1.C_value == pytest.approx(0.476, abs=0.003)
        r2 = constants.c_of_theta(Fraction(8, 9), tol=1e-6)
        assert r2.C_value == pytest.approx(0.178, abs=0.003)

    def test_upper_bound_mode_is_conservative(self):
        # replacing the solved delay function by its upper bound can only
        # lower the final constant
        up = constants.c_of_theta(Fraction(95, 100), mode="upper_bound_omega", tol=1e-6)
        solved = constants.c_of_theta(Fraction(95, 100), mode="solved_omega", tol=1e-6)
        assert up.C_value <= solved.C_value + 1e-6

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            constants.c_of_theta(Fraction(7, 8))


class TestThresholds:
    def test_theta_s_values(self):
        assert constants.theta_s(6) == Fraction(17, 20)
        assert constants.theta_s(16) == Fraction(31 * 16 - 84, 40 * 13)
        assert constants.theta_s(17) == Fraction(19, 24)
        assert constants.theta_s(100) == Fraction(19, 24)

    def test_theta_s_decreasing(self):
        vals = [constants.theta_s(s) for s in range(6, 20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_theta_s_domain(self):
        with pytest.raises(DomainError):
            constants.theta_s(5)


class TestSigmaContexts:
    def test_basic_sieve_choice(self):
        assert constants.sigma_admissible("thm2", Fraction(9, 10)) == Fraction(
            2 * Fraction(9, 10) - 1, 7
        )

    def test_min_rule(self):
        t = Fraction(9, 10)
        expected = min(t - Fraction(31, 40), (2 * t - 1) / 8)
        assert constants.sigma_admissible("thm3", t) == expected
        assert constants.sigma_admissible("thm4_first", t) == expected

    def test_feasibility_accept(self):
        sig = constants.sigma_admissible("thm5", Fraction(9, 10), s=6)
        assert (6 - 4) * sig > 1 - Fraction(9, 10)

    def test_feasibility_reject(self):
        with pytest.raises(InfeasibleParametersError):
            constants.sigma_admissible("thm5", Fraction(78, 100), s=6)

    def test_unknown_context(self):
        with pytest.raises(DomainError):
            constants.sigma_admissible("thm9", Fraction(9, 10))


class TestEll4:
    def test_value(self):
        assert constants.ell4(1.0) == pytest.approx(math.log(4 / 3))

    def test_range_check(self):
        with pytest.raises(DomainError):
            constants.ell4(0.5)
