"""Distributed-sensing probe states and their closed-form sensitivity limits.

Two network layouts are supported.  With local phase references each of the d
sensors holds a mode pair (a_j, b_j) and the encoding generator is the
half-difference of the pair's particle numbers; modes are laid out
sensor-major as (a_1, b_1, a_2, b_2, ...).  With a global phase reference the
network has d + 1 modes, mode 0 being the shared reference, and the generator
of the j-th phase is the particle number of mode j.

Probe families (local reference unless noted):

  MSPS              product over sensors of N independent single-particle
                    superpositions; reaches the shot-noise limit 1/(m N_T).
  MSPE              product of per-sensor NOON states; d/(m N_T^2) for the
                    average phase.
  MEPS              N_T independent particles, each spread uniformly over all
                    sensor modes; mode-entangled but still shot-noise limited.
  MEPE              all-or-nothing superposition across the whole network;
                    1/(m N_T^2) for the average phase (rank-one information).
  GENERALIZED_NOON  global-reference state with one branch per sensing mode;
                    sum of phase variances d (sqrt(d)+1)^2 / (4 N_T^2 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DENSE_DIMENSION_CAP,
    PROBE_SUPPORT_CAP,
    FockBasis,
    SparseMultimodeState,
    ValidationError,
    fock_sector,
)
from .bounds import FisherMatrix, pseudo_inverse, qfim_pure

FAMILIES = ("MSPS", "MSPE", "MEPS", "MEPE", "GENERALIZED_NOON")
LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True)
class SensorNetwork:
    """Layout of a d-sensor network: reference type and particle budget."""

    sensors: int
    reference: str
    particles: int  # per-sensor N for local reference, total N_T for global

    def __post_init__(self):
        if not 1 <= self.sensors <= DENSE_DIMENSION_CAP:  # the d x d QFIM is dense
            raise ValidationError(f"sensor count {self.sensors} not in [1, {DENSE_DIMENSION_CAP}]")
        if self.reference not in (LOCAL, GLOBAL):
            raise ValidationError(f"unknown reference type {self.reference!r}")
        if self.particles < 1:
            raise ValidationError("need at least one particle")

    @property
    def modes(self) -> int:
        return 2 * self.sensors if self.reference == LOCAL else self.sensors + 1

    @property
    def total_particles(self) -> int:
        return self.particles * self.sensors if self.reference == LOCAL else self.particles


def local_sensor_network(sensors: int, particles_per_sensor: int) -> SensorNetwork:
    return SensorNetwork(sensors, LOCAL, particles_per_sensor)


def local_network_from_total(sensors: int, total_particles: int) -> SensorNetwork:
    """Equal split N = N_T / d; non-integer splits are rejected, not rounded."""
    if total_particles % sensors != 0:
        raise ValidationError(
            f"total particle number {total_particles} does not split equally over "
            f"{sensors} sensors"
        )
    return SensorNetwork(sensors, LOCAL, total_particles // sensors)


def global_sensor_network(sensors: int, total_particles: int) -> SensorNetwork:
    return SensorNetwork(sensors, GLOBAL, total_particles)


@dataclass(frozen=True)
class ProbeSpec:
    """A probe family on a network; MEPE may carry a branch sign pattern."""

    family: str
    network: SensorNetwork
    signs: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown probe family {self.family!r}")
        needs_global = self.family == "GENERALIZED_NOON"
        if needs_global != (self.network.reference == GLOBAL):
            raise ValidationError(
                f"family {self.family} is incompatible with a "
                f"{self.network.reference}-reference network"
            )
        if self.signs is not None:
            if self.family != "MEPE":
                raise ValidationError("sign patterns apply to MEPE probes only")
            signs = tuple(int(s) for s in self.signs)
            if len(signs) != self.network.sensors or any(s not in (-1, 1) for s in signs):
                raise ValidationError("signs must be one entry of +-1 per sensor")
            object.__setattr__(self, "signs", signs)
        if self.support_size > PROBE_SUPPORT_CAP:
            raise ValidationError(
                f"{self.family} probe would hold {self.support_size} amplitudes, more than "
                f"the probe support cap ({PROBE_SUPPORT_CAP})"
            )
        net, n_t = self.network, self.network.total_particles  # MSPS, MEPS: sqrt(w) / modes^(N/2)
        n, modes = (net.particles, 2) if self.family == "MSPS" else (n_t, net.modes)
        if self.family in ("MSPS", "MEPS") and not _largest_weight_is_a_float(n, modes):
            raise ValidationError(f"{self.family} probe of {n} particles over {modes} modes: "
                                  "its largest multinomial weight exceeds the float range")

    @property
    def support_size(self) -> int:
        """Number of amplitudes `build_probe` creates, counted without building any."""
        net = self.network
        return {
            "MSPS": (net.particles + 1) ** net.sensors,
            "MSPE": 2**net.sensors,
            "MEPS": FockBasis(net.modes, net.total_particles).size,
            "MEPE": 2,
        }.get(self.family, net.sensors + 1)


def _largest_weight_is_a_float(n: int, modes: int) -> bool:
    """Whether n!/prod(k_i!), largest at the most even split over `modes`, converts to float."""
    q, r = divmod(n, modes)
    nats = math.lgamma(n + 1) - r * math.lgamma(q + 2) - (modes - r) * math.lgamma(q + 1)
    if abs(nats - 1024 * math.log(2)) > 1:  # lgamma is far better than that; exact near the edge
        return nats < 1024 * math.log(2)
    weight = math.factorial(n) // (math.factorial(q + 1) ** r * math.factorial(q) ** (modes - r))
    return weight < 2**1024 - 2**970  # the least integer that float() rounds up to 2**1024


def phase_generators(network: SensorNetwork) -> np.ndarray:
    """Coefficients C (modes x sensors) of the generators h_j = sum_m C[m, j] n_m, one per sensor.

    h_j is (n_2j - n_2j+1)/2 for a local reference and n_j+1 for a global one.
    """
    c = np.zeros((network.modes, network.sensors))
    j = np.arange(network.sensors)
    if network.reference == LOCAL:
        c[2 * j, j], c[2 * j + 1, j] = 0.5, -0.5
    else:
        c[j + 1, j] = 1.0
    return c


def nu_average(d: int) -> np.ndarray:
    """The average-phase direction (1, ..., 1)/d."""
    return np.full(d, 1.0 / d)


def _kronecker(rows: np.ndarray, amps: list[float], sensors: int):
    """Rows and amplitudes of a product of per-sensor factors; sensor 0 varies slowest."""
    k = len(rows)
    occ = np.empty((k**sensors, 2 * sensors), dtype=np.int32)
    product = np.ones(1)
    for j in range(sensors):  # one column block per sensor, written through a broadcast view
        occ.reshape(k**j, k, k ** (sensors - 1 - j), -1)[..., 2 * j:2 * j + 2] = rows[:, None, :]
        product = np.multiply.outer(product, amps).ravel()
    return occ, product


def _multinomial_amplitudes(occ: np.ndarray, n_t: int) -> np.ndarray:
    """sqrt(N_T!/prod k_i!)/modes^(N_T/2) per row, the exact weight taken once per partition."""
    parts = np.sort(occ, axis=1)  # the weight depends only on the sorted row
    order = np.lexsort(parts.T)
    parts = parts[order]
    first = np.r_[True, (parts[1:] != parts[:-1]).any(axis=1)]
    which = np.empty(len(occ), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    return np.array([
        math.sqrt(math.factorial(n_t) // math.prod(math.factorial(k) for k in part))
        / occ.shape[1] ** (n_t / 2.0)
        for part in parts[first].tolist()
    ])[which]


def build_probe(spec: ProbeSpec) -> SparseMultimodeState:
    """Construct the probe state of a family on its network, exactly normalised."""
    net = spec.network
    d, n, n_t = net.sensors, net.particles, net.total_particles

    if spec.family == "MSPS":  # N particles, each in (a + b)/sqrt(2): binomial amplitudes
        factor = [math.sqrt(math.comb(n, k)) / 2 ** (n / 2.0) for k in range(n + 1)]
        occ, amps = _kronecker(np.array([[k, n - k] for k in range(n + 1)]), factor, d)
    elif spec.family == "MSPE":  # a NOON state per sensor
        occ, amps = _kronecker(np.array([[0, n], [n, 0]]), [1.0 / math.sqrt(2.0)] * 2, d)
    elif spec.family == "MEPS":  # N_T particles, each uniform over all 2d modes
        occ = fock_sector(net.modes, n_t)
        amps = _multinomial_amplitudes(occ, n_t)
    elif spec.family == "MEPE":
        signs = np.array(spec.signs or (1,) * d)
        up = np.column_stack((signs > 0, signs < 0)).ravel() * n
        occ, amps = sorted((up.tolist(), (n - up).tolist())), [1.0 / math.sqrt(2.0)] * 2
    else:  # GENERALIZED_NOON: one branch per sensing mode, then the reference-mode head
        occ = n_t * np.eye(d + 1, dtype=np.int32)[::-1]
        amps = [1.0 / math.sqrt(d + math.sqrt(d))] * d + [1.0 / math.sqrt(1.0 + math.sqrt(d))]

    return SparseMultimodeState(FockBasis(net.modes, n_t), occ, amps)


def _matches(nu: np.ndarray, target: np.ndarray, atol: float = 1e-12) -> bool:
    return bool(np.abs(nu - target).max() <= atol or np.abs(nu + target).max() <= atol)


def closed_form_sensitivity(spec: ProbeSpec, nu, m: int = 1) -> float:
    """Best attainable variance of the requested combination for this family.

    Local-reference families support the average-phase direction (and, for
    MEPE, the sign pattern matching the probe's branches); the global
    generalized NOON branch returns the sum of single-phase variances and
    ignores nu.
    """
    if m < 1:
        raise ValidationError("repetition count m must be >= 1")
    net = spec.network
    d = net.sensors
    n_t = net.total_particles

    if spec.family == "GENERALIZED_NOON":
        return d * (math.sqrt(d) + 1.0) ** 2 / (4.0 * n_t**2 * m)

    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if len(nu) != d:
        raise ValidationError("direction length does not match the sensor count")

    if spec.family in ("MSPS", "MEPS"):
        if _matches(nu, nu_average(d)):
            return 1.0 / (m * n_t)
    elif spec.family == "MSPE":
        if _matches(nu, nu_average(d)):
            return d / (m * n_t**2)
    else:  # MEPE
        signs = np.array(spec.signs or (1,) * d, dtype=float)
        if _matches(nu, signs / d):
            return 1.0 / (m * n_t**2)
    raise ValidationError(
        f"no closed form for family {spec.family} with direction {nu.tolist()}"
    )


def probe_to_json(state: SparseMultimodeState) -> dict[str, list[float]]:
    """Serialise a probe as occupation string -> [re, im] amplitude pairs, in row order."""
    return {
        ",".join(map(str, occ)): [amp.real, amp.imag]
        for occ, amp in zip(state.occupations.tolist(), state.amplitudes.tolist())
    }


def gain(nu) -> float:
    """Entanglement gain of the all-or-nothing strategy over per-sensor NOON states.

    Equals (sum |nu_j|^(2/3))^3 / (sum |nu_j|)^2: one for a single-parameter
    direction, d for the average phase; invariant under rescaling of nu.
    """
    v = np.abs(np.atleast_1d(np.asarray(nu, dtype=float)))
    total = v.sum()
    if total == 0.0 or not np.isfinite(v).all():
        raise ValidationError("direction vector must be finite and nonzero")
    return float(np.power(v, 2.0 / 3.0).sum() ** 3 / total**2)


@dataclass(frozen=True)
class ProbeCheck:
    """Closed form vs first-principles QFIM evaluation of one probe."""

    closed_form: float | None
    qfim_value: float | None
    relative_deviation: float | None
    inestimable: bool
    qfim: FisherMatrix


def check_direction(spec: ProbeSpec, fisher: FisherMatrix, nu, m: int = 1) -> ProbeCheck:
    """Compare the closed form for direction nu with the probe's QFIM `fisher`.

    Directions outside the information support are reported as inestimable
    instead of producing a finite (meaningless) number.  Generalized NOON
    probes check the sum of phase variances and ignore nu.
    """
    if m < 1:
        raise ValidationError("repetition count m must be >= 1")
    fplus = pseudo_inverse(fisher).matrix

    if spec.family == "GENERALIZED_NOON":
        value = float(np.trace(fplus)) / m
        closed = closed_form_sensitivity(spec, None, m)
        return ProbeCheck(closed, value, abs(value - closed) / closed, False, fisher)

    v = np.atleast_1d(np.asarray(nu, dtype=float))
    if v.shape != (fisher.dim,):
        raise ValidationError(f"direction needs {fisher.dim} components, got shape {v.shape}")
    if not v.any() or not np.isfinite(v).all():
        raise ValidationError("direction vector must be finite and nonzero")
    leak = float(np.linalg.norm(v - fisher.support @ v)) / float(np.linalg.norm(v))
    if leak > 1e-8:
        return ProbeCheck(None, None, None, True, fisher)
    value = float(v @ fplus @ v) / m
    closed = closed_form_sensitivity(spec, v, m)
    return ProbeCheck(closed, value, abs(value - closed) / closed, False, fisher)


def verify_probe(spec: ProbeSpec, nu, m: int = 1) -> ProbeCheck:
    """Cross-validate a closed-form sensitivity against the probe's QFIM."""
    fisher = qfim_pure(build_probe(spec), phase_generators(spec.network))
    return check_direction(spec, fisher, nu, m)
