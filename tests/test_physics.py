"""Unit tests for the annual heating-energy model.

Covers the constants, the checks and JSON form of an envelope state (a
12-vector), every loss term with hand-checked arithmetic, the heat gain
usage factor including its removable singularity at gains/losses = 1,
the full consumption chain, the batch evaluator against the scalar
oracle synth.reference_energy, and the analytic gradient against central
finite differences.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from epc_pinn.config import from_json
from epc_pinn.errors import ConfigError, DimensionError, DomainError
from epc_pinn.physics import (
    AIR_EXCHANGE_INDEX,
    COMPONENTS,
    HEAT_GAINS_INDEX,
    STATE_DIM,
    U_SLICE,
    PhysicsConstants,
    _usage_factor_and_slopes,
    check_states,
    energy_consumption,
    energy_consumption_batch,
    state_dict,
    u_value,
)
from epc_pinn.synth import reference_energy


def single_component_state(area=100.0, u=0.5, air=0.0, gains=20.0):
    """One basement/slab panel, everything else zero."""
    state = np.zeros(STATE_DIM)
    state[[0, U_SLICE.start, AIR_EXCHANGE_INDEX, HEAT_GAINS_INDEX]] = area, u, air, gains
    return state


def zero_state(gains=0.0):
    """No envelope and no ventilation, only the given specific heat gains."""
    return single_component_state(area=0.0, u=0.0, gains=gains)


def random_state(rng):
    """A plausible random building, all entries well inside the domain:
    five areas, five U-values, the air exchange rate, the heat gains."""
    return np.concatenate([rng.uniform(50.0, 200.0, size=5), rng.uniform(0.2, 2.5, size=5),
                           [rng.uniform(0.3, 1.5), rng.uniform(5.0, 25.0)]])


def balance(state, useful_area, building_type, constants):
    """The checked energy_consumption of one building, each term of its
    one row (the envelope loss by component an array of five)."""
    batch = energy_consumption(state[None], [useful_area], [building_type], constants)
    return SimpleNamespace(**{k: v[0] for k, v in vars(batch).items() if v is not None})


def gradient(state, useful_area, building_type, constants):
    """The analytic gradient of one building's consumption."""
    tau = constants.time_constant_for(building_type)
    return energy_consumption_batch(state[None], [useful_area], [tau], constants,
                                    with_gradient=True).gradient[0]


def usage_factor(gains, losses, tau, eps=1e-6):
    """The heat gain usage factor at gains/losses."""
    f, _, _ = _usage_factor_and_slopes(np.array([gains / losses]), np.array([float(tau)]),
                                       eps, slopes=False)
    return float(f[0])


class TestPhysicsConstants:
    def test_degree_hour_factor(self, constants):
        """192 days * 24 h / 1000 = 4.608 kWh per W of steady loss."""
        assert constants.degree_hour_factor == pytest.approx(4.608, abs=1e-12)

    def test_default_time_constants(self, constants):
        """Heavy construction utilizes gains with tau 3, light with tau 1."""
        assert constants.time_constant_for("heavy") == 3.0
        assert constants.time_constant_for("light") == 1.0

    def test_unknown_building_type_is_config_error(self, constants):
        with pytest.raises(ConfigError, match="heavy"):
            constants.time_constant_for("medium")

    def test_time_constants_of_every_building(self, constants):
        taus = constants.time_constants_of(["light", "heavy", "light", "heavy"])
        assert taus.dtype == np.float64
        assert taus.tolist() == [1.0, 3.0, 1.0, 3.0]
        empty = constants.time_constants_of([])
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_time_constants_of_names_the_sorted_first_unknown_type(self, constants):
        with pytest.raises(ConfigError) as caught:
            constants.time_constants_of(["wood", "heavy", "medium", "wood"])
        assert str(caught.value) == "unknown building type 'medium'; known types: heavy, light"

    def test_time_constants_of_names_a_numpy_string_plainly(self):
        constants = PhysicsConstants(time_constants={"heavy": 3.0})
        with pytest.raises(ConfigError) as caught:
            constants.time_constants_of([np.str_("heavy"), np.str_("light")])
        assert str(caught.value) == "unknown building type 'light'; known types: heavy"

    def test_nonpositive_delta_t_rejected(self):
        with pytest.raises(ConfigError):
            PhysicsConstants(delta_t=0.0)

    def test_bridge_fraction_range_enforced(self):
        with pytest.raises(ConfigError):
            PhysicsConstants(bridge_fraction=1.0)

    def test_dict_roundtrip(self, constants):
        restored = from_json(PhysicsConstants, constants.to_dict())
        assert restored.to_dict() == constants.to_dict()


class TestEnvelopeState:
    def test_wrong_vector_length_is_dimension_error(self, constants):
        with pytest.raises(DimensionError):
            energy_consumption(np.zeros((1, 11)), [100.0], ["light"], constants)

    def test_validate_rejects_negative_entries(self):
        """check_states names the most negative entry of the first bad row."""
        states = np.stack([single_component_state()] * 3)
        states[1, 7] = -0.1
        states[2, 0] = -5.0
        with pytest.raises(DomainError, match=r"^envelope state entry 7 is negative \(-0\.1\); "):
            check_states(states)
        states[0, 3] = np.nan
        with pytest.raises(DomainError, match="^envelope state contains non-finite values$"):
            check_states(states)
        check_states(np.abs(states[1:]))

    def test_to_dict_uses_component_names(self):
        payload = state_dict(single_component_state(air=0.7))
        assert set(payload["areas"]) == set(payload["u_values"]) == set(COMPONENTS)
        assert payload["areas"]["Basement/Slab"] == 100.0
        assert payload["u_values"]["Basement/Slab"] == 0.5
        assert payload["air_exchange_rate"] == 0.7 and payload["specific_heat_gains"] == 20.0
        assert all(type(v) is float for part in ("areas", "u_values")
                   for v in payload[part].values())


class TestUValue:
    def test_coefficient_over_area(self):
        """U = 500 W/K over 250 m2 = 2 W/(m2 K)."""
        assert u_value(500.0, 250.0) == pytest.approx(2.0)

    def test_zero_area_is_domain_error(self):
        with pytest.raises(DomainError):
            u_value(100.0, 0.0)

    def test_negative_coefficient_is_domain_error(self):
        with pytest.raises(DomainError):
            u_value(-1.0, 10.0)


def breakdown(state, useful_area, constants):
    """The energy_consumption breakdown of a light building."""
    return balance(state, useful_area, "light", constants)


class TestEnvelopeHeatLoss:
    def test_single_component(self, constants):
        """100 m2 at U 0.5: 100 * 0.5 * 18.9 K * 4.608 = 4354.56 kWh/yr."""
        result = breakdown(single_component_state(), 100.0, constants)
        assert result.envelope_total == pytest.approx(4354.56, abs=1e-9)
        assert result.envelope_by_component[0] == pytest.approx(4354.56, abs=1e-9)
        assert np.all(result.envelope_by_component[1:] == 0.0)

    def test_two_components_add(self, constants):
        """Adding 20 m2 of U 0.5 roof contributes 20 * 0.5 * 18.9 * 4.608
        = 870.912, for a total of 5225.472."""
        state = single_component_state()
        state[1] = 20.0
        state[U_SLICE.start + 1] = 0.5
        result = breakdown(state, 100.0, constants)
        assert result.envelope_by_component[1] == pytest.approx(870.912, abs=1e-9)
        assert result.envelope_total == pytest.approx(4354.56 + 870.912, abs=1e-9)

    def test_all_zero_state(self, constants):
        state = zero_state()
        result = breakdown(state, 100.0, constants)
        assert result.envelope_total == 0.0
        assert np.all(result.envelope_by_component == 0.0)


class TestThermalBridgeLoss:
    def test_three_percent_of_envelope(self, constants):
        """0.03 * 4354.56 = 130.6368 kWh/yr."""
        result = breakdown(single_component_state(), 100.0, constants)
        assert result.thermal_bridges == pytest.approx(130.6368, abs=1e-9)

    def test_zero_envelope_gives_zero(self, constants):
        state = zero_state()
        assert breakdown(state, 100.0, constants).thermal_bridges == 0.0


class TestVentilationHeatLoss:
    def test_hand_value(self, constants):
        """1000 m2 at 0.5 1/h: 1000 * 0.5 * 0.34 * 18.9 * 4.608
        = 14805.504 kWh/yr."""
        result = breakdown(single_component_state(air=0.5), 1000.0, constants)
        assert result.ventilation == pytest.approx(14805.504, abs=1e-9)

    def test_unit_building(self, constants):
        """1 m2 at 1 1/h: 0.34 * 18.9 * 4.608 = 29.611008 kWh/yr."""
        result = breakdown(single_component_state(air=1.0), 1.0, constants)
        assert result.ventilation == pytest.approx(29.611008, abs=1e-12)

    def test_zero_rate_gives_zero(self, constants):
        result = breakdown(single_component_state(air=0.0), 1000.0, constants)
        assert result.ventilation == 0.0


class TestTotalHeatGains:
    def test_gains_scale_with_area(self, constants):
        """20 kWh/(m2 yr) over 100 m2 = 2000 kWh/yr."""
        result = breakdown(single_component_state(gains=20.0), 100.0, constants)
        assert result.heat_gains_total == pytest.approx(2000.0)

    def test_zero_gains(self, constants):
        result = breakdown(single_component_state(gains=0.0), 500.0, constants)
        assert result.heat_gains_total == 0.0


class TestHeatGainUsageFactor:
    def test_zero_gains_gives_exactly_one(self):
        """r = 0 makes (1 - 0) / (1 - 0) = 1 for any tau."""
        for tau in (0.5, 1.0, 2.0, 3.0):
            assert usage_factor(0.0, 1000.0, tau) == 1.0

    def test_hand_value_at_half(self):
        """r = 0.5, tau = 1: (1 - 0.5) / (1 - 0.25) = 2/3."""
        assert usage_factor(500.0, 1000.0, 1.0) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_limit_at_one(self):
        """Inside the band around r = 1 the factor is tau / (tau + 1):
        0.5 for tau 1, 0.75 for tau 3."""
        assert usage_factor(1000.0, 1000.0, 1.0) == pytest.approx(0.5)
        assert usage_factor(1000.0, 1000.0, 3.0) == pytest.approx(0.75)

    def test_continuity_across_the_band(self):
        """Approaching r = 1 from either side, the direct formula stays
        within 1e-6 of the limit tau / (tau + 1)."""
        for tau in (0.5, 1.0, 2.0, 3.0):
            limit = tau / (tau + 1.0)
            for r in (1.0 - 5e-7, 1.0 + 5e-7):
                value = usage_factor(r * 1000.0, 1000.0, tau, eps=1e-9)
                assert abs(value - limit) <= 1e-6

    def test_strictly_decreasing_in_r(self):
        """More surplus gains are utilized less: f must fall strictly on
        the grid r = 0, 0.01, ..., 10 for every default tau."""
        grid = np.arange(0.0, 10.0 + 1e-9, 0.01)
        for tau in (0.5, 1.0, 2.0, 3.0):
            values = [usage_factor(r * 1000.0, 1000.0, tau) for r in grid]
            diffs = np.diff(values)
            assert np.all(diffs < 0.0)

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            r = rng.uniform(0.0, 20.0)
            tau = rng.uniform(0.3, 5.0)
            f = usage_factor(r * 500.0, 500.0, tau)
            assert 0.0 < f <= 1.0


class TestEnergyConsumption:
    def test_worked_example(self, constants):
        """100 m2 of U 0.5 envelope, no ventilation, gains 20 over 100 m2,
        light construction (tau 1):

            envelope    = 100 * 0.5 * 18.9 * 4.608 = 4354.56
            bridges     = 0.03 * 4354.56           = 130.6368
            ventilation = 0
            losses      = 4485.1968
            gains       = 20 * 100                 = 2000
            r           = 2000 / 4485.1968         = 0.445922...
            hguf        = (1 - r) / (1 - r^2) = 1 / (1 + r)
            consumption = 4485.1968 - 2000 / (1 + r) = 3101.986100...
        """
        breakdown = balance(single_component_state(), 100.0, "light", constants)
        assert breakdown.envelope_total == pytest.approx(4354.56, abs=1e-9)
        assert breakdown.thermal_bridges == pytest.approx(130.6368, abs=1e-9)
        assert breakdown.ventilation == 0.0
        assert breakdown.heat_loss_total == pytest.approx(4485.1968, abs=1e-9)
        assert breakdown.heat_gains_total == pytest.approx(2000.0, abs=1e-9)
        r = 2000.0 / 4485.1968
        assert breakdown.hguf == pytest.approx(1.0 / (1.0 + r), abs=1e-12)
        expected = 4485.1968 - 2000.0 / (1.0 + r)
        assert breakdown.energy_consumption == pytest.approx(expected, abs=1e-9)
        assert breakdown.energy_consumption == pytest.approx(
            3101.9861008273856, abs=1e-3
        )

    def test_zero_state_is_degenerate(self, constants):
        """No envelope, no ventilation, no gains: losses 0, usage factor
        pinned at 1, consumption 0."""
        state = zero_state()
        breakdown = balance(state, 100.0, "heavy", constants)
        assert breakdown.heat_loss_total == 0.0
        assert breakdown.hguf == 1.0
        assert breakdown.energy_consumption == 0.0

    def test_surplus_gains_self_limit(self, constants):
        """Gains far above losses: with tau 1 the usage factor is
        1 / (1 + r), so consumption = L - G L / (L + G) = L^2 / (L + G),
        a tiny positive residual rather than a negative value."""
        state = single_component_state(area=1.0, u=0.1, gains=500.0)
        breakdown = balance(state, 1000.0, "light", constants)
        losses = breakdown.heat_loss_total
        gains = breakdown.heat_gains_total
        assert gains > losses
        expected = losses**2 / (losses + gains)
        assert breakdown.energy_consumption == pytest.approx(expected, rel=1e-9)
        assert 0.0 < breakdown.energy_consumption < 0.01

    def test_zero_losses_with_gains_floors_at_zero(self, constants):
        """A building with no loss paths but positive gains hits the zero
        floor: raw consumption would be -gains."""
        state = zero_state(gains=5.0)
        breakdown = balance(state, 100.0, "heavy", constants)
        assert breakdown.heat_loss_total == 0.0
        assert breakdown.heat_gains_total == 500.0
        assert breakdown.energy_consumption == 0.0

    def test_consumption_never_negative(self, constants):
        rng = np.random.default_rng(11)
        for _ in range(300):
            state = random_state(rng)
            area = rng.uniform(100.0, 3000.0)
            btype = "heavy" if rng.uniform() < 0.5 else "light"
            breakdown = balance(state, area, btype, constants)
            assert breakdown.energy_consumption >= 0.0

    def test_breakdown_terms_are_consistent(self, constants):
        """envelope + bridges + ventilation = total losses, and the
        consumption equals losses - gains * hguf whenever positive."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            state = random_state(rng)
            area = rng.uniform(200.0, 2000.0)
            b = balance(state, area, "heavy", constants)
            assert b.heat_loss_total == pytest.approx(
                b.envelope_total + b.thermal_bridges + b.ventilation, rel=1e-12
            )
            raw = b.heat_loss_total - b.heat_gains_total * b.hguf
            assert b.energy_consumption == pytest.approx(max(raw, 0.0), abs=1e-9)

    def test_more_insulation_never_increases_consumption(self, constants):
        """Lowering any single U-value can only lower (or keep) the
        consumption; gains utilization cannot overcompensate."""
        rng = np.random.default_rng(13)
        for _ in range(100):
            state = random_state(rng)
            area = rng.uniform(200.0, 2000.0)
            before = balance(state, area, "light", constants).energy_consumption
            j = int(rng.integers(5))
            state[U_SLICE.start + j] *= 0.8
            after = balance(state, area, "light", constants).energy_consumption
            assert after <= before + 1e-9

    def test_unknown_building_type_is_config_error(self, constants):
        with pytest.raises(ConfigError):
            balance(single_component_state(), 100.0, "granite", constants)

    def test_negative_useful_area_is_domain_error(self, constants):
        with pytest.raises(DomainError):
            balance(single_component_state(), -1.0, "light", constants)

    def test_invalid_state_is_domain_error(self, constants):
        state = single_component_state()
        state[0] = -1.0
        with pytest.raises(DomainError):
            balance(state, 100.0, "light", constants)


class TestEnergyConsumptionBatch:
    def test_matches_scalar_evaluation(self, constants):
        """Each row of a 50-building batch equals its one-building call."""
        rng = np.random.default_rng(21)
        states = [random_state(rng) for _ in range(50)]
        areas = rng.uniform(200.0, 2000.0, size=50)
        types = ["heavy" if rng.uniform() < 0.5 else "light" for _ in range(50)]
        batch = energy_consumption_batch(
            np.stack(states),
            areas,
            np.array([constants.time_constant_for(t) for t in types]),
            constants,
        )
        for i, state in enumerate(states):
            scalar = balance(state, areas[i], types[i], constants)
            assert batch.energy_consumption[i] == pytest.approx(
                scalar.energy_consumption, rel=1e-12, abs=1e-9
            )
            assert batch.hguf[i] == pytest.approx(scalar.hguf, rel=1e-12)

    def test_wrong_state_width_is_dimension_error(self, constants):
        with pytest.raises(DimensionError):
            energy_consumption_batch(
                np.zeros((3, 11)), np.ones(3), np.ones(3), constants
            )

    def test_values_without_gradient_are_bitwise_the_same(self, constants):
        """Without the gradient the slope terms are skipped; every value
        stays bitwise as with it, for gains/losses ratios below, inside and
        above the near-one band and at zero gains."""
        rng = np.random.default_rng(23)
        n = 400
        states = np.stack([random_state(rng) for _ in range(n)])
        areas = rng.uniform(200.0, 2000.0, size=n)
        taus = rng.choice([1.0, 3.0], size=n)
        losses = energy_consumption_batch(states, areas, taus, constants).heat_loss_total
        ratios = rng.uniform(0.0, 3.0, size=n)
        ratios[:40] = 1.0 + rng.uniform(-2e-6, 2e-6, size=40)
        ratios[40:50] = 0.0
        states[:, 11] = ratios * losses / areas
        plain = energy_consumption_batch(states, areas, taus, constants)
        full = energy_consumption_batch(states, areas, taus, constants, with_gradient=True)
        assert plain.gradient is None and full.gradient is not None
        for name in ("envelope_by_component", "envelope_total", "thermal_bridges",
                     "ventilation", "heat_loss_total", "heat_gains_total", "hguf",
                     "energy_consumption"):
            assert getattr(plain, name).tobytes() == getattr(full, name).tobytes(), name

    def test_gradient_rows_zero_where_floored(self, constants):
        """A zero-loss building with gains sits on the zero floor; its
        gradient row must be all zero while a live row is not."""
        live = single_component_state()
        floored = zero_state(gains=5.0)
        batch = energy_consumption_batch(
            np.stack([live, floored]),
            np.array([100.0, 1000.0]),
            np.array([1.0, 1.0]),
            constants,
            with_gradient=True,
        )
        assert batch.energy_consumption[1] == 0.0
        assert np.all(batch.gradient[1] == 0.0)
        assert np.any(batch.gradient[0] != 0.0)


def test_batch_matches_the_scalar_oracle_in_every_regime_of_the_ratio():
    """energy_consumption_batch against synth.reference_energy over random
    areas, U-values, air exchange rates, useful areas and tau, with the
    heat gains set so that r = gains / losses is far below 1, just outside
    or just inside either edge of the |r - 1| = eps band, or far above 1.
    Far above 1 the consumption is the difference of two terms the size of
    the losses, which cancel to a few ulps of them, hence the absolute
    tolerance of 1e-12 of the losses there."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    consts = PhysicsConstants()
    eps = consts.near_one_epsilon
    edges = [1.0 + side * eps * (1.0 + shift) for side in (-1, 1) for shift in (-1e-3, 1e-3)]
    ratios = st.one_of(st.floats(0.0, 0.1), st.sampled_from(edges), st.floats(10.0, 1e4))
    five = st.lists(st.floats(0.0, 5e3), min_size=5, max_size=5)
    u_values = st.lists(st.floats(0.0, 5.0), min_size=5, max_size=5)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(five, u_values, st.floats(0.0, 3.0), st.floats(1.0, 2e4),
                      st.floats(0.2, 6.0), ratios)
    def check(areas, u_values, air, useful_area, tau, ratio):
        states = np.array([areas + u_values + [air, 0.0]])
        losses = energy_consumption_batch(states, [useful_area], [tau], consts).heat_loss_total[0]
        states[0, HEAT_GAINS_INDEX] = gains = ratio * losses / useful_area
        energy = energy_consumption_batch(states, [useful_area], [tau], consts)
        components = {name: (a, a * u) for name, a, u in zip(COMPONENTS, areas, u_values)}
        expected = reference_energy(components, air, gains, useful_area, tau)
        assert energy.energy_consumption[0] == pytest.approx(
            expected, rel=1e-9, abs=1e-12 * losses)

    check()


def finite_difference_gradient(vec, useful_area, btype, constants, rel_step=1e-6):
    """Central differences of the consumption over the 12-vector."""
    grad = np.zeros(STATE_DIM)
    for j in range(STATE_DIM):
        h = rel_step * max(1.0, abs(vec[j]))
        plus = vec.copy()
        plus[j] += h
        minus = vec.copy()
        minus[j] -= h
        e_plus = balance(plus, useful_area, btype, constants).energy_consumption
        e_minus = balance(minus, useful_area, btype, constants).energy_consumption
        grad[j] = (e_plus - e_minus) / (2.0 * h)
    return grad


class TestEnergyConsumptionGradient:
    def test_no_gains_case_by_hand(self, constants):
        """With zero gains the consumption is the plain loss sum, so
        d(consumption)/d(area 0) = 1.03 * U0 * 18.9 * 4.608
        = 1.03 * 0.5 * 87.0912 = 44.851968."""
        state = single_component_state(gains=0.0)
        grad = gradient(state, 100.0, "light", constants)
        assert grad[0] == pytest.approx(44.851968, abs=1e-9)

    def test_floored_state_has_zero_gradient(self, constants):
        """No loss paths, positive gains: consumption is pinned at the
        zero floor and the subgradient convention returns all zeros."""
        state = zero_state(gains=5.0)
        grad = gradient(state, 1000.0, "light", constants)
        assert np.all(grad == 0.0)

    def test_matches_finite_differences(self, constants):
        """100 random buildings away from the kinks (ratio not near 1,
        consumption well above the floor): every partial within 1e-5
        relative of central differences."""
        rng = np.random.default_rng(31)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 400:
            attempts += 1
            state = random_state(rng)
            area = rng.uniform(200.0, 2000.0)
            btype = "heavy" if rng.uniform() < 0.5 else "light"
            b = balance(state, area, btype, constants)
            ratio = b.heat_gains_total / b.heat_loss_total
            if abs(ratio - 1.0) < 1e-3 or b.energy_consumption < 1.0:
                continue
            analytic = gradient(state, area, btype, constants)
            fd = finite_difference_gradient(state, area, btype, constants)
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
            assert np.all(np.abs(analytic - fd) / scale <= 1e-5)
            checked += 1
        assert checked == 100

    def test_gains_partial_is_negative_when_live(self, constants):
        """More internal gains can only reduce a positive consumption."""
        rng = np.random.default_rng(32)
        for _ in range(50):
            state = random_state(rng)
            area = rng.uniform(200.0, 2000.0)
            b = balance(state, area, "heavy", constants)
            if b.energy_consumption <= 0.0:
                continue
            grad = gradient(state, area, "heavy", constants)
            assert grad[11] <= 1e-12
