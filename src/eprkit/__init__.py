"""Toolkit for generalised EPR scenarios: assemblages, functionals, activation.

Constructs and validates assemblages of the Bob-with-input, measurement-
device-independent, and channel scenarios, evaluates EPR and Bell
functionals, computes classical / no-signalling-certificate / seesaw bounds,
and simulates the activation protocols that witness post-quantumness at the
level of observed correlations.
"""

from . import bounds, catalog, linalg, protocol, serialize
from .assemblages import (BwIAssemblage, ChannelAssemblage, MDIAssemblage, QuantumRealisation,
                          StandardAssemblage, ValidationReport, random_quantum, realize,
                          transpose_assemblage, validate)
from .functionals import (BellCoefficients, EPRFunctional, bell_from_epr, decompose, evaluate_bell,
                          evaluate_epr)
from .protocol import (CorrelationTable, ResourceAssemblage, make_resource, selftest_marginal,
                       simulate_bwi, simulate_channel, simulate_mdi)

__all__ = ["BellCoefficients", "BwIAssemblage", "ChannelAssemblage", "CorrelationTable",
           "EPRFunctional", "MDIAssemblage", "QuantumRealisation", "ResourceAssemblage",
           "StandardAssemblage", "ValidationReport", "bell_from_epr", "bounds", "catalog",
           "decompose", "evaluate_bell", "evaluate_epr", "linalg", "make_resource", "protocol",
           "random_quantum", "realize", "selftest_marginal", "serialize", "simulate_bwi",
           "simulate_channel", "simulate_mdi", "transpose_assemblage", "validate"]
