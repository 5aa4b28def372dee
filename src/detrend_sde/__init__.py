"""Removing smooth trends from stochastic differential equations.

Given dY = {F(t, Y) + m(t, Y)} dt + sigma(t, Y) dW with a smooth trend
field F, the package computes the phase flow of dx/dt = F(t, x) along
with its space derivatives, and uses the inverse flow as a change of
variables that strips the trend: the image process solves an SDE with
bounded coefficients and no drift growth.  A parallel construction
applies to Euler difference chains, where the flow is replaced by the
broken line interpolant of the chain itself and the conjugation is
exact up to quadrature and inversion error.

The public surface groups into model declaration (DriftSpec, ModelSpec,
builtin_model, check_assumptions), flow computation (advance_flow,
inverse_flow and their batched *_many forms, flow_jet_many), the
continuous-time transform (make_transform, whose evaluate_batch gives
the coefficients, simulate_*, map_back, pushforward_discrepancy), the
discrete chain (make_partition, broken_line, transform_chain), and
diagnostics (boundedness_scan, weak_error_compare,
strong_order_estimate).  The command line runs three jobs on it:
transform-sde, transform-chain and verify.
"""

from .chain import (BrokenLine, ChainRun, Partition, TransformedChainRun,
                    broken_line, inverse_jacobian_product,
                    invert_broken_line, jacobian_limit_check, make_partition,
                    product_jacobian, simulate_chain, transform_chain)
from .diagnostics import (ConvergenceTable, ScanReport, WeakErrorReport,
                          boundedness_scan, strong_order_estimate,
                          weak_error_compare)
from .errors import (AssumptionError, ConfigError, DetrendError,
                     FlowIntegrationError, InversionError,
                     SingularJacobianError)
from .flow import (advance_flow, advance_flow_many, flow_jet_many,
                   flow_time_derivatives, inverse_flow, inverse_flow_many)
from .models import (AssumptionReport, DriftSpec, ModelSpec, builtin_model,
                     check_assumptions, list_builtin_models)
from .noise import normal_block, rademacher_block
from .transform import (DiscrepancyTable, PathEnsemble,
                        TransformedCoefficients, make_transform, map_back,
                        pushforward_discrepancy, simulate_original,
                        simulate_transformed)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError", "AssumptionReport", "BrokenLine", "ChainRun",
    "ConfigError", "ConvergenceTable", "DetrendError", "DiscrepancyTable",
    "DriftSpec", "FlowIntegrationError", "InversionError",
    "ModelSpec", "Partition", "PathEnsemble", "ScanReport",
    "SingularJacobianError", "TransformedChainRun", "TransformedCoefficients",
    "WeakErrorReport", "advance_flow", "advance_flow_many",
    "boundedness_scan", "broken_line", "builtin_model", "check_assumptions",
    "flow_jet_many", "flow_time_derivatives", "inverse_flow",
    "inverse_flow_many", "inverse_jacobian_product", "invert_broken_line",
    "jacobian_limit_check", "list_builtin_models",
    "make_partition", "make_transform", "map_back", "normal_block",
    "product_jacobian", "pushforward_discrepancy", "rademacher_block",
    "simulate_chain", "simulate_original", "simulate_transformed",
    "strong_order_estimate", "transform_chain", "weak_error_compare",
    "__version__",
]
