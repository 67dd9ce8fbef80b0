"""Distribution of Gaussian entanglement and EPR steering via separable ancillas.

A numpy library plus CLI that builds the covariance matrices of a
server/multi-user optical network, certifies separability (PPT) and
steerability (Schur-complement monotone) of arbitrary Gaussian states,
derives the optimal classical-displacement coefficients, and validates
everything against a shot-level Monte Carlo twin.
"""

from .core import *
from .criteria import *
from .optimize import *
from .protocol import *
from .sampler import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
