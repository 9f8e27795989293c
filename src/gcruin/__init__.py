"""Random walks under generalized convolutions and ruin probabilities.

Subpackages:
  measures      - distributions on [0, oo), sampling, moments
  convolutions  - the algebras, their kernels and point-mass convolutions
  williamson    - Williamson transform, inversion, closed-form walk CDFs
  walks         - pathwise simulators (specialized recursions + generic)
  risk          - risk models, terminals at a Poisson time, safety conditions
  ruin          - analytic ruin solvers and Monte Carlo estimation
  cli           - command-line entry point
"""

__version__ = "0.1.0"

from . import convolutions, measures, risk, ruin, walks, williamson  # noqa: F401
