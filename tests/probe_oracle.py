"""Independent probe oracles for the distributed-sensing tests.

`tuple_sector` lists a Fock sector one tuple at a time, `dict_probe` builds a
probe one amplitude at a time as an occupation-tuple -> amplitude map, and
`dict_qfim` takes its QFIM with one Python call of a generator per amplitude:
the per-amplitude construction the array builders replaced, kept here to
check them bit for bit.  `dense_model` puts an
array-backed probe and its generators on the dense density-matrix route.
"""

import itertools
import math

import numpy as np

from qsense.core import HermitianOperator, density_from_pure
from qsense.model import unitary_family


def tuple_sector(modes: int, total: int):
    """Occupation tuples of a sector, lexicographically: stars and bars over bar positions."""
    slots = total + modes - 1
    for bars in itertools.combinations(range(slots), modes - 1):
        edges = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def dict_probe(spec) -> dict[tuple[int, ...], complex]:
    net = spec.network
    d, n = net.sensors, net.particles
    amps = {}
    if spec.family in ("MSPS", "MSPE"):
        if spec.family == "MSPS":
            per_sensor = [((k, n - k), math.sqrt(math.comb(n, k)) / 2 ** (n / 2.0))
                          for k in range(n + 1)]
        else:
            per_sensor = [((n, 0), 1.0 / math.sqrt(2.0)), ((0, n), 1.0 / math.sqrt(2.0))]
        for combo in itertools.product(per_sensor, repeat=d):
            amps[tuple(x for pair, _ in combo for x in pair)] = math.prod(a for _, a in combo)
    elif spec.family == "MEPS":
        n_t = net.total_particles
        for occ in tuple_sector(net.modes, n_t):
            multinom = math.factorial(n_t) // math.prod(math.factorial(k) for k in occ)
            amps[occ] = math.sqrt(multinom) / net.modes ** (n_t / 2.0)
    elif spec.family == "MEPE":
        signs = spec.signs or (1,) * d
        up = tuple(x for s in signs for x in ((n, 0) if s > 0 else (0, n)))
        down = tuple(x for s in signs for x in ((0, n) if s > 0 else (n, 0)))
        amps[up] = amps[down] = 1.0 / math.sqrt(2.0)
    else:  # GENERALIZED_NOON
        n_t = net.total_particles
        amps[(n_t,) + (0,) * d] = 1.0 / math.sqrt(1.0 + math.sqrt(d))
        for j in range(1, d + 1):
            amps[tuple(n_t if i == j else 0 for i in range(d + 1))] = 1.0 / math.sqrt(d + math.sqrt(d))
    return {occ: complex(a) for occ, a in amps.items()}


def dict_generators(network):
    if network.reference == "local":
        return [(lambda n, j=j: 0.5 * (n[2 * j] - n[2 * j + 1])) for j in range(network.sensors)]
    return [(lambda n, j=j: float(n[j])) for j in range(1, network.sensors + 1)]


def dict_to_json(amps) -> dict[str, list[float]]:
    return {",".join(str(k) for k in occ): [a.real, a.imag] for occ, a in sorted(amps.items())}


def dict_qfim(amps, generators) -> np.ndarray:
    keys = sorted(n for n, a in amps.items() if abs(a) > 0.0)
    w = np.array([abs(amps[n]) ** 2 for n in keys])
    h = np.array([[float(g(n)) for n in keys] for g in generators])
    mean = h @ w
    second = (h * w) @ h.T
    f = 4.0 * (second - np.outer(mean, mean))
    return 0.5 * (f + f.T)


def dense_generators(state, coefficients):
    """Diagonal generator matrices on the state's rows, one per column of `coefficients`."""
    h = state.occupations @ np.asarray(coefficients, dtype=float)
    return [HermitianOperator(np.diag(col)) for col in h.T]


def dense_model(state, coefficients):
    return unitary_family(density_from_pure(state), dense_generators(state, coefficients))
