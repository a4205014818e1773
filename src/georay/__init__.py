"""Weak geodesic rays for the homogeneous real Monge-Ampère equation.

Convex-model numerics: discrete Legendre-Fenchel transforms, Alexandrov
Monge-Ampère measures, test curves and their maximal envelopes, geodesic
rays, and filtration-driven (Bergman / log-sum-exp) ray constructions.
"""

from .errors import DomainError, GeorayError, ParseError, ResourceError

__version__ = "0.1.0"
