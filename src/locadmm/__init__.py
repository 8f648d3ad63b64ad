"""Distributed range-based localization by consensus splitting.

Two distributed solvers (a full-state one and a low-storage rewriting that
reproduces its iterates), specified node by node and run on edge arrays,
the matrix-free operators they are built from, the diagnostics that make
their convergence behavior measurable, dense brute-force oracles for
validation, and a command-line harness.
"""

from .engine import IterationEvent, RunResult
from .errors import (
    ConnectivityFailure,
    DisconnectedGraph,
    EmptyFreeSet,
    InvalidInit,
    InvalidInitSpec,
    InvalidParameter,
    LocadmmError,
    MissingMessage,
    MissingNode,
    MissingPosition,
    NonFiniteValue,
    ParseError,
    SchemaVersionMismatch,
    SingularSystem,
)
from .network import (
    GroundTruth,
    MeasurementSet,
    NetworkGraph,
    NoiseModel,
    generate_rgg,
    load_network,
    measure,
    rmse,
    save_network,
)
from .structured_ops import EdgeBlocks, EdgeStates, NodeBlockVector, PenaltyParams
from .solver_full import EdgeMessage, FullNodeState, InitSpec, init_full, run_full
from .solver_lite import LiteNodeState, LiteStates, init_lite, run_lite, step_lite
from .diagnostics import (
    IterationTrace,
    ParameterBounds,
    TraceRecorder,
    parameter_bounds,
    sublinear_envelope_check,
)

__version__ = "0.1.0"
