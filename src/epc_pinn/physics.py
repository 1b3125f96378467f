"""Closed-form annual heating-energy model for residential buildings.

The building envelope is decomposed into five components (basement/slab,
roof/attic, walls, doors, windows). Annual energy consumption is
reconstructed from component areas and U-values, the air exchange rate and
the specific internal heat gains:

    envelope loss   = sum_i A_i * U_i * dT * kappa          [kWh/yr]
    thermal bridges = bridge_fraction * envelope loss
    ventilation     = V * h * 0.34 * dT * kappa
    total loss      = envelope + bridges + ventilation
    total gains     = Q * V
    usage factor    = (1 - (G/L)^tau) / (1 - (G/L)^(tau+1))
    consumption     = total loss - total gains * usage factor, floored at 0

where kappa is the heating-season degree-hour factor (days * 24 / 1000,
converting W to kWh over the season), V the useful area, h the air
exchange rate, Q the specific heat gains in kWh/(m2*yr) and tau a
building-type-dependent exponent.

Every envelope state is a row of an (n, 12) array, laid out as below.
energy_consumption_batch evaluates the balance of n buildings, with exact
analytic gradients of the consumption with respect to all twelve
parameters for the training loss; energy_consumption is the same balance
over checked inputs, for scoring. PhysicsConstants.time_constants_of is
the one lookup of the time constants of n building types, and
time_constant_for its scalar rule. Every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, DimensionError, DomainError

# Envelope components in their fixed order. Every 12-vector in the package
# flattens as [5 areas, 5 U-values, air exchange rate, specific heat gains]
# with areas and U-values in this component order.
COMPONENTS: tuple[str, ...] = (
    "Basement/Slab",
    "Roof/Attic",
    "Walls",
    "Doors",
    "Windows",
)
N_COMPONENTS = len(COMPONENTS)
STATE_DIM = 2 * N_COMPONENTS + 2

# Indices into the flattened 12-vector.
AREA_SLICE = slice(0, 5)
U_SLICE = slice(5, 10)
AIR_EXCHANGE_INDEX = 10
HEAT_GAINS_INDEX = 11


@dataclass
class PhysicsConstants(JsonConfig):
    """Fixed environmental and model constants.

    delta_t: indoor/outdoor temperature difference over the heating
        season [K].
    heating_days, hours_per_day, w_to_kw: together define the
        degree-hour factor heating_days * hours_per_day / w_to_kw that
        converts W of steady loss into kWh per season.
    bridge_fraction: thermal bridges as a fraction of envelope losses.
    vent_coefficient: ventilation loss coefficient multiplying
        useful_area * air_exchange_rate [Wh/(m3*K) style constant].
    time_constants: building type -> dimensionless gain-utilization
        exponent tau. Defaults are uncalibrated placeholders; heavier
        construction utilizes gains better, hence heavy > light.
    near_one_epsilon: half-width of the band around gains/losses = 1
        inside which the usage factor switches to its analytic limit.
    """

    delta_t: float = 18.9
    heating_days: float = 192.0
    hours_per_day: float = 24.0
    w_to_kw: float = 1000.0
    bridge_fraction: float = 0.03
    vent_coefficient: float = 0.34
    time_constants: dict[str, float] = field(
        default_factory=lambda: {"heavy": 3.0, "light": 1.0}
    )
    near_one_epsilon: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("delta_t", "heating_days", "hours_per_day", "w_to_kw", "near_one_epsilon"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vent_coefficient < 0:
            raise ConfigError(f"vent_coefficient must be >= 0, got {self.vent_coefficient}")
        if not 0 <= self.bridge_fraction < 1:
            raise ConfigError(
                f"bridge_fraction must lie in [0, 1), got {self.bridge_fraction}"
            )
        for name, tau in self.time_constants.items():
            if tau <= 0:
                raise ConfigError(f"time constant for {name!r} must be positive, got {tau}")

    @property
    def degree_hour_factor(self) -> float:
        """Season conversion factor, 4.608 with defaults."""
        return self.heating_days * self.hours_per_day / self.w_to_kw

    def time_constant_for(self, building_type: str) -> float:
        try:
            return self.time_constants[building_type]
        except KeyError:
            known = ", ".join(sorted(self.time_constants))
            raise ConfigError(
                f"unknown building type {str(building_type)!r}; known types: {known}"
            ) from None

    def time_constants_of(self, building_types) -> np.ndarray:
        """Each building's time constant, float64 (n,); time_constant_for's
        ConfigError names the first building type, in sorted order, that
        has none."""
        known = {t: self.time_constant_for(t) for t in sorted(set(building_types))}
        return np.array([known[t] for t in building_types], dtype=float)


def _by_component(values: np.ndarray) -> dict[str, float]:
    return {name: float(v) for name, v in zip(COMPONENTS, values)}


def check_states(states: np.ndarray) -> None:
    """Raise the DomainError of the first row of the (n, 12) states that has
    a non-finite or negative entry."""
    states = np.asarray(states, dtype=float)
    bad = ~(np.isfinite(states) & (states >= 0)).all(axis=1)
    if not bad.any():
        return
    vec = states[int(np.argmax(bad))]
    if not np.all(np.isfinite(vec)):
        raise DomainError("envelope state contains non-finite values")
    k = int(np.argmin(vec))
    raise DomainError(
        f"envelope state entry {k} is negative ({vec[k]}); "
        "all areas, U-values, air exchange rate and heat gains must be >= 0"
    )


def state_dict(state: np.ndarray) -> dict:
    """One 12-vector as a JSON object keyed by quantity and component."""
    return {
        "areas": _by_component(state[AREA_SLICE]),
        "u_values": _by_component(state[U_SLICE]),
        "air_exchange_rate": float(state[AIR_EXCHANGE_INDEX]),
        "specific_heat_gains": float(state[HEAT_GAINS_INDEX]),
    }


def u_value(structure_heat_loss_coefficient: float, area: float) -> float:
    """Thermal transmittance from a component's heat loss coefficient [W/K]
    and its area [m2]."""
    if area <= 0:
        raise DomainError(f"area must be positive to derive a U-value, got {area}")
    if structure_heat_loss_coefficient < 0:
        raise DomainError(
            f"structure heat loss coefficient must be >= 0, "
            f"got {structure_heat_loss_coefficient}"
        )
    return structure_heat_loss_coefficient / area


def _usage_factor_and_slopes(
    r: np.ndarray, tau: np.ndarray, eps: float, slopes: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Usage factor f(r) plus, if slopes, the combinations r^2*f'(r) and
    r*f'(r) (None otherwise).

    The combinations are what the consumption gradient needs; computing
    them directly keeps every exponent positive, so r = 0 and large r are
    both safe. For r > 1 the factor is rewritten in terms of u = 1/r to
    avoid overflowing powers. Inside the |r - 1| <= eps band the factor is
    the limit tau/(tau + 1) and both slope combinations are zero (the
    factor is treated as locally constant there).
    """
    a = tau
    b = tau + 1.0
    f = np.empty_like(r)
    r2fp = np.zeros_like(r) if slopes else None
    rfp = np.zeros_like(r) if slopes else None

    band = np.abs(r - 1.0) <= eps
    lo = (r < 1.0) & ~band
    hi = (r > 1.0) & ~band

    if band.any():
        f[band] = a[band] / b[band]
    if lo.any():
        rl, al, bl = r[lo], a[lo], b[lo]
        pa = rl**al
        pb = rl**bl
        den = 1.0 - pb
        f[lo] = (1.0 - pa) / den
        if slopes:
            # r^2 f' and r f' share the structure (-a r^(a+k) den + b r^(b+k) (1-r^a)) / den^2
            r2fp[lo] = (-al * rl * pa * den + bl * rl * pb * (1.0 - pa)) / den**2
            rfp[lo] = (-al * pa * den + bl * pb * (1.0 - pa)) / den**2
    if hi.any():
        u = 1.0 / r[hi]
        bh = b[hi]
        ub1 = u ** (bh - 1.0)  # u^tau
        ub = ub1 * u  # u^(tau+1)
        den = ub - 1.0
        f[hi] = (ub - u) / den
        if slopes:
            # f(r) = g(u) with u = 1/r, so r^2 f' = -g'(u) and r f' = -u g'(u).
            gp = ((bh * ub1 - 1.0) * den - (ub - u) * bh * ub1) / den**2
            r2fp[hi] = -gp
            rfp[hi] = -u * gp
    return f, r2fp, rfp


@dataclass(eq=False)
class BatchEnergy:
    """Vectorized breakdown over n buildings; every field is an array of
    length n except envelope_by_component (n x 5) and gradient (n x 12,
    present only when requested)."""

    envelope_by_component: np.ndarray
    envelope_total: np.ndarray
    thermal_bridges: np.ndarray
    ventilation: np.ndarray
    heat_loss_total: np.ndarray
    heat_gains_total: np.ndarray
    hguf: np.ndarray
    energy_consumption: np.ndarray
    gradient: np.ndarray | None = None

    def row_dict(self, i: int) -> dict:
        """Building i's balance as a JSON object, the envelope loss keyed by
        component and every other term one float."""
        return {
            "envelope_by_component": _by_component(self.envelope_by_component[i]),
            **{f.name: float(getattr(self, f.name)[i]) for f in fields(self)[1:-1]},
        }


def energy_consumption_batch(
    states: np.ndarray,
    useful_area: np.ndarray,
    time_constants: np.ndarray,
    consts: PhysicsConstants,
    with_gradient: bool = False,
) -> BatchEnergy:
    """Evaluate the full consumption chain for n flattened states at once.

    states must be (n, 12) with nonnegative entries (callers on the
    training path clamp first), useful_area and time_constants length n.
    The gradient rows follow the flattening order and are zero wherever
    the zero floor on consumption is active (the all-zero state included)
    or losses vanish; inside the near-1 band of the gains/losses ratio the
    usage factor is treated as locally constant.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise DimensionError(f"expected states of shape (n, {STATE_DIM}), got {states.shape}")
    useful_area = np.asarray(useful_area, dtype=float)
    tau = np.asarray(time_constants, dtype=float)

    areas = states[:, AREA_SLICE]
    u_values = states[:, U_SLICE]
    h = states[:, AIR_EXCHANGE_INDEX]
    q = states[:, HEAT_GAINS_INDEX]

    c_env = consts.delta_t * consts.degree_hour_factor
    per_component = areas * u_values * c_env
    envelope = per_component.sum(axis=1)
    bridges = consts.bridge_fraction * envelope
    ventilation = useful_area * h * consts.vent_coefficient * c_env
    losses = envelope + bridges + ventilation
    gains = q * useful_area

    positive_losses = losses > 0
    r = np.divide(gains, losses, out=np.zeros_like(losses), where=positive_losses)
    f, r2fp, rfp = _usage_factor_and_slopes(r, tau, consts.near_one_epsilon, with_gradient)
    hguf = np.where(positive_losses, f, 1.0)
    raw = losses - gains * hguf
    energy = np.maximum(raw, 0.0)

    gradient = None
    if with_gradient:
        # Zero rows where the floor is active (raw <= 0) or losses vanish.
        live = positive_losses & (raw > 0)
        s_loss = np.where(live, 1.0 + r2fp, 0.0)
        s_gain = np.where(live, -(f + rfp), 0.0)
        bridge_factor = 1.0 + consts.bridge_fraction
        gradient = np.empty_like(states)
        gradient[:, AREA_SLICE] = s_loss[:, None] * bridge_factor * u_values * c_env
        gradient[:, U_SLICE] = s_loss[:, None] * bridge_factor * areas * c_env
        gradient[:, AIR_EXCHANGE_INDEX] = (
            s_loss * useful_area * consts.vent_coefficient * c_env
        )
        gradient[:, HEAT_GAINS_INDEX] = s_gain * useful_area

    return BatchEnergy(
        envelope_by_component=per_component,
        envelope_total=envelope,
        thermal_bridges=bridges,
        ventilation=ventilation,
        heat_loss_total=losses,
        heat_gains_total=gains,
        hguf=hguf,
        energy_consumption=energy,
        gradient=gradient,
    )


def energy_consumption(
    states: np.ndarray,
    useful_area: np.ndarray,
    building_types: list[str],
    consts: PhysicsConstants,
) -> BatchEnergy:
    """energy_consumption_batch of buildings that meet its invariants.

    The states must pass check_states and every useful area be >= 0 (a
    DomainError otherwise); consts.time_constants_of gives the building
    types' time constants (a ConfigError names an unknown type). A
    vanishing total heat loss is a degenerate building: the usage factor
    is 1 and the consumption 0. A balance that overflows the float range
    is a DomainError.
    """
    check_states(states)
    useful_area = np.asarray(useful_area, dtype=float)
    if (negative := useful_area < 0).any():
        first = float(useful_area[np.argmax(negative)])
        raise DomainError(f"useful_area must be >= 0, got {first}")
    taus = consts.time_constants_of(building_types)
    with np.errstate(all="ignore"):
        batch = energy_consumption_batch(states, useful_area, taus, consts)
    if not all(np.isfinite(v).all() for v in vars(batch).values() if v is not None):
        raise DomainError("the energy balance overflows the float range")
    return batch
