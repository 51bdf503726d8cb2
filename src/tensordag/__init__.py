"""Exact tensor algebra for signal-propagating DAG networks.

The package models networks whose nodes react to incoming signals through
per-node activation tensors, computes the network's order-d total tensor
both by the direct product formula and through blow/forget node-tensor
expansions contracted with one n-ary Bhattacharya-Mesner product, and checks
that the two routes agree symbolically - every scalar is an exact
multivariate polynomial with rational coefficients.
"""

from .scalars import (Assignment, ExprSyntaxError, Monomial, NegativeExponent,
                      PolyScalar, Rational, TensordagInputError,
                      UnboundParameter, parse_expr)
from .tensors import (CardinalityMismatch, OrderMismatch, Permutation,
                      PositionOutOfRange, Shape, ShapeMismatch, SlotOutOfRange,
                      Tensor, as_scalar, blow, bmp, forget, identitary,
                      outer_product, sigma_transpose, summand_ordered_bmp)
from .networks import (DEFAULT_CELL_CAP, ActivationSpec, CellCapExceeded,
                       CycleDetected, ExplicitActivation, FamilyArityMismatch,
                       InvalidNetwork, JukesCantor, NetworkSpec, NodePipeline,
                       NodeSpec, PreparedNetwork, QuantumThresholdOne,
                       SourceVector, StochasticCheck, ThresholdOne,
                       VerificationResult, Violation, activation_tensor,
                       ensure_valid, node_pipeline, node_tensors,
                       stochastic_report, topological_order, total_bmp,
                       total_direct, validate, verify_totals)
from .netio import (AssignmentSyntaxError, DuplicateNodeId, EntryCountMismatch,
                    SchemaError, TensorSyntaxError, UnknownNodeId,
                    network_to_document, parse_assignment, parse_network,
                    parse_network_document, parse_tensor, serialize_network,
                    serialize_tensor)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "ExprSyntaxError", "Monomial", "NegativeExponent",
    "PolyScalar", "Rational", "TensordagInputError", "UnboundParameter",
    "parse_expr",
    "CardinalityMismatch", "OrderMismatch", "Permutation", "PositionOutOfRange",
    "Shape", "ShapeMismatch", "SlotOutOfRange", "Tensor", "as_scalar", "blow",
    "bmp", "forget", "identitary", "outer_product", "sigma_transpose",
    "summand_ordered_bmp",
    "DEFAULT_CELL_CAP", "ActivationSpec", "CellCapExceeded", "CycleDetected",
    "ExplicitActivation", "FamilyArityMismatch", "InvalidNetwork", "JukesCantor",
    "NetworkSpec", "NodePipeline", "NodeSpec", "PreparedNetwork",
    "QuantumThresholdOne", "SourceVector", "StochasticCheck", "ThresholdOne",
    "VerificationResult", "Violation", "activation_tensor", "ensure_valid",
    "node_pipeline", "node_tensors", "stochastic_report", "topological_order",
    "total_bmp", "total_direct", "validate", "verify_totals",
    "AssignmentSyntaxError", "DuplicateNodeId", "EntryCountMismatch",
    "SchemaError", "TensorSyntaxError", "UnknownNodeId", "network_to_document",
    "parse_assignment", "parse_network", "parse_network_document",
    "parse_tensor", "serialize_network", "serialize_tensor",
    "__version__",
]
