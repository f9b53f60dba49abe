"""Min-max AP-utilization client association for 60 GHz access networks.

A distributed dual-decomposition solver with executable optimality
certificates (convergence bound, LP-relaxation equivalence, integrality-gap
bound), exact oracles, benchmark policies, and a reproducible Monte Carlo
harness.
"""

__version__ = "0.1.0"
