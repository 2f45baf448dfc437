"""Dimensioning and Monte Carlo validation of a periodically pooled uplink.

Massive fleets of periodically reporting devices share a recurring pool of
uplink resources.  This package answers how large the shared part of the pool
must be so every device delivers its reports within one interval with a target
reliability: closed-form demand moments and the per-report failure probability
their Gaussian model gives (`analytic`), the inverse dimensioning, a mapping
onto the LTE resource grid (`lte`), and a seeded Monte Carlo engine that checks
both against simulated intervals (`sim`).  Each name is imported from its
module; the root keeps only the two that the benchmark's self-test reads.
"""

from .analytic import SystemParams, demand_summary

__version__ = "0.1.0"

__all__ = ["SystemParams", "demand_summary"]
