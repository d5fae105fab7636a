"""Classical queueing formulas, used to validate the simulator.

The paper's completion-time metric is queueing delay plus service time;
our simulator's credibility therefore rests on it reproducing known
queueing theory.  This module provides closed forms the test suite
checks the simulator against:

- **M/G/1** (Poisson arrivals, general service, one server):
  the Pollaczek–Khinchine mean waiting time
  ``E[W] = lambda * E[S^2] / (2 * (1 - rho))``;
- **D/G/1 and G/G/1**: Kingman's heavy-traffic approximation
  ``E[W] ~ (rho / (1 - rho)) * ((c_a^2 + c_s^2) / 2) * E[S]``,
  exact in the M/M/1 case and an upper-bound-flavoured estimate
  elsewhere;
- utilization/stability helpers.

All times in milliseconds, rates in tuples per millisecond.
"""

from __future__ import annotations

import numpy as np

from repro.bounds import COUNT


def utilization(arrival_rate: float, mean_service: float, servers: int = 1) -> float:
    """``rho = lambda * E[S] / k``."""
    if arrival_rate < 0 or mean_service < 0:
        raise ValueError("arrival_rate and mean_service must be >= 0")
    servers = COUNT.check("servers", servers)
    return arrival_rate * mean_service / servers


def mg1_mean_wait(
    arrival_rate: float, mean_service: float, second_moment_service: float
) -> float:
    """Pollaczek–Khinchine mean waiting time (time in queue) for M/G/1.

    Requires ``rho < 1``; raises otherwise (the queue is unstable and the
    mean wait diverges).
    """
    rho = utilization(arrival_rate, mean_service)
    if rho >= 1.0:
        raise ValueError(f"M/G/1 is unstable at rho={rho:.3f} >= 1")
    if second_moment_service < mean_service**2:
        raise ValueError("E[S^2] cannot be below E[S]^2")
    return arrival_rate * second_moment_service / (2.0 * (1.0 - rho))


def mg1_mean_sojourn(
    arrival_rate: float, mean_service: float, second_moment_service: float
) -> float:
    """Mean time in system (wait + service) for M/G/1 — the simulator's
    per-tuple completion time for a k=1 stage fed by Poisson arrivals."""
    return mean_service + mg1_mean_wait(
        arrival_rate, mean_service, second_moment_service
    )


def kingman_mean_wait(
    arrival_rate: float,
    mean_service: float,
    ca2: float,
    cs2: float,
) -> float:
    """Kingman's G/G/1 approximation of the mean waiting time.

    ``ca2``/``cs2`` are the squared coefficients of variation of the
    inter-arrival and service distributions.  Exact for M/M/1
    (``ca2 = cs2 = 1``); for deterministic arrivals pass ``ca2 = 0``.
    """
    rho = utilization(arrival_rate, mean_service)
    if rho >= 1.0:
        raise ValueError(f"G/G/1 is unstable at rho={rho:.3f} >= 1")
    if ca2 < 0 or cs2 < 0:
        raise ValueError("squared coefficients of variation must be >= 0")
    return (rho / (1.0 - rho)) * ((ca2 + cs2) / 2.0) * mean_service


def service_moments(service_times: np.ndarray) -> tuple[float, float, float]:
    """Empirical ``(E[S], E[S^2], c_s^2)`` of a service-time sample."""
    service_times = np.asarray(service_times, dtype=np.float64)
    if service_times.size == 0:
        raise ValueError("need at least one service time")
    mean = float(service_times.mean())
    second = float((service_times**2).mean())
    variance = second - mean**2
    cs2 = variance / mean**2 if mean > 0 else 0.0
    return mean, second, cs2
