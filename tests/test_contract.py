"""The argument contract of the public API.

Every public entry point, given any value for one of its value arguments
(a count, a number, a seed, a keyword, a collection of numbers, names or
edges) or its object arguments (a graph, a measurement set, penalties, a
truth, a noise model, an init spec, a hook), either returns or raises a
:class:`~locadmm.errors.LocadmmError`, never a raw ``TypeError``,
``ValueError`` or ``AttributeError`` from deeper down.
Each row of :data:`ROWS` is one (entry point, argument) pair: a call with
that argument replaced by the value under test and every other argument
valid. A new entry point is one more row.
"""

from __future__ import annotations

import functools
import math
import os
import re

import numpy as np
import pytest

from locadmm import (
    GroundTruth,
    InitSpec,
    InvalidParameter,
    IterationTrace,
    LocadmmError,
    MeasurementSet,
    NetworkGraph,
    NoiseModel,
    PenaltyParams,
    TraceRecorder,
    generate_rgg,
    init_full,
    init_lite,
    load_network,
    measure,
    parameter_bounds,
    rmse,
    run_full,
    run_lite,
    save_network,
    sublinear_envelope_check,
)
from locadmm.grid import run_grid
from locadmm.oracle import oracle_check

# Values of every kind a caller may pass by mistake, and the NumPy scalars a
# caller may pass on purpose. Huge counts are left out: a graph or a run of
# 10**30 is a valid request that runs or allocates as long as it says.
JUNK = {
    "None": None,
    "str": "x",
    "-1": -1,
    "0": 0,
    "1.5": 1.5,
    "True": True,
    "nan": math.nan,
    "inf": math.inf,
    "array-2": np.array([0.0, 1.0]),
    "list": [],
    "dict": {},
    "object": object(),
    "complex": 1j,
    "np-float": np.float64(0.3),
    "np-int": np.int64(3),
}

# The values no row takes: each call with one of them raises.
REFUSED = ("None", "str", "True", "array-2", "object", "complex")


@functools.cache
def instance():
    """A 6-node network, its truth, ranges and penalties."""
    graph, truth = generate_rgg(6, 2, 0.8, seed=3)
    meas = measure(truth, graph, NoiseModel("additive-white", 0.01), seed=3)
    return graph, truth, meas, PenaltyParams(0.1, 0.1)


# An object argument left at OK is the instance's own; another value replaces it.
OK = object()


def pick(value, own):
    return own if value is OK else value


def solve(runner, spec=InitSpec(), iters=2, seed=0, graph=OK, meas=OK, params=OK, hook=None):
    own_graph, _, own_meas, own_params = instance()
    return runner(pick(graph, own_graph), pick(meas, own_meas), pick(params, own_params),
                  spec, iters, seed=seed, hook=hook)


def grid(algo="full", iters=2, seed=0, init=InitSpec(), params=PenaltyParams(0.1, 0.1),
         graph=OK, meas=OK):
    own_graph, _, own_meas, _ = instance()
    return list(run_grid(algo, pick(graph, own_graph), pick(meas, own_meas), [(params, seed)],
                         init, iters))


def with_measure(seed=0, truth=OK, model=NoiseModel("additive-white", 0.01), graph=OK):
    own_graph, own_truth, _, _ = instance()
    return measure(pick(truth, own_truth), pick(graph, own_graph), model, seed=seed)


def with_bounds(c=0.1, meas=OK, graph=OK):
    own_graph, _, own_meas, _ = instance()
    return parameter_bounds(pick(graph, own_graph), pick(meas, own_meas), c)


def with_save(meas):
    # None is taken: a file without ranges
    graph, truth, _, _ = instance()
    return save_network(os.devnull, graph, truth, meas)


def with_oracle(graph=OK, meas=OK, **kwargs):
    own_graph, _, own_meas, _ = instance()
    return oracle_check(pick(graph, own_graph), pick(meas, own_meas), **{"trials": 2, **kwargs})


def with_init_lite(u_init="zeros", c=0.1, meas=OK, graph=OK):
    own_graph, truth, own_meas, _ = instance()
    return init_lite(pick(graph, own_graph), truth.positions, u_init, c, pick(meas, own_meas))


def with_ranges(d=OK, graph=OK):
    own_graph, _, own_meas, _ = instance()
    return MeasurementSet(pick(graph, own_graph), pick(d, own_meas.d))


def with_rmse(estimates=OK, truth=OK, graph=OK):
    own_graph, own_truth, _, _ = instance()
    own = pick(truth, own_truth)
    return rmse(pick(estimates, own_truth.positions), own, pick(graph, own_graph))


def with_recorder(metrics=("F",), meas=OK, params=OK, graph=OK, truth=None):
    own_graph, _, own_meas, own_params = instance()
    return TraceRecorder(pick(graph, own_graph), pick(meas, own_meas), pick(params, own_params),
                         truth=truth, metrics=metrics)


ROWS = {
    "generate_rgg-num_nodes": lambda v: generate_rgg(v, 2, 0.8, seed=3),
    "generate_rgg-num_anchors": lambda v: generate_rgg(6, v, 0.8, seed=3),
    "generate_rgg-comm_range": lambda v: generate_rgg(6, 2, v, seed=3),
    "generate_rgg-area_side": lambda v: generate_rgg(6, 2, 0.8, area_side=v, seed=3),
    "generate_rgg-dim": lambda v: generate_rgg(6, 2, 0.8, dim=v, seed=3),
    "generate_rgg-seed": lambda v: generate_rgg(6, 2, 0.8, seed=v),
    "build-dim": lambda v: NetworkGraph.build(v, 3, {0: [0.0, 0.0]}, [(0, 1), (1, 2)]),
    "build-num_nodes": lambda v: NetworkGraph.build(2, v, {0: [0.0, 0.0]}, [(0, 1), (1, 2)]),
    "build-edges": lambda v: NetworkGraph.build(2, 3, {0: [0.0, 0.0]}, v),
    "NoiseModel-kind": lambda v: NoiseModel(v, 0.01),
    "NoiseModel-sigma_add": lambda v: NoiseModel("additive-white", v),
    "measure-seed": with_measure,
    "PenaltyParams-c": lambda v: PenaltyParams(v, 0.1),
    "PenaltyParams-rho": lambda v: PenaltyParams(0.1, v),
    "MeasurementSet-d": with_ranges,
    "GroundTruth-positions": GroundTruth,
    "init_lite-u_init": with_init_lite,
    "init_lite-c": lambda v: with_init_lite(c=v),
    "run_grid-algo": lambda v: grid(algo=v),
    "run_grid-iters": lambda v: grid(iters=v),
    "run_grid-seed": lambda v: grid(seed=v),
    "run_grid-init": lambda v: grid(init=v),
    "run_grid-params": lambda v: grid(params=v),
    "rmse-estimates": with_rmse,
    "parameter_bounds-c": with_bounds,
    "oracle_check-c": lambda v: with_oracle(c=v),
    "oracle_check-seed": lambda v: with_oracle(seed=v),
    "oracle_check-trials": lambda v: with_oracle(trials=v),
    "sublinear_envelope_check-gap_values": sublinear_envelope_check,
    "sublinear_envelope_check-tol": lambda v: sublinear_envelope_check([1.0, 0.5, 0.3, 0.2], v),
    "TraceRecorder-metrics": with_recorder,
    # object arguments
    "run_grid-graph": lambda v: grid(graph=v),
    "run_grid-measurements": lambda v: grid(meas=v),
    "parameter_bounds-measurements": lambda v: with_bounds(meas=v),
    "TraceRecorder-measurements": lambda v: with_recorder(meas=v),
    "TraceRecorder-params": lambda v: with_recorder(params=v),
    "init_lite-measurements": lambda v: with_init_lite(meas=v),
    "save_network-measurements": with_save,
    "rmse-truth": lambda v: with_rmse(truth=v),
    "measure-truth": lambda v: with_measure(truth=v),
    "measure-model": lambda v: with_measure(model=v),
    "measure-graph": lambda v: with_measure(graph=v),
    "rmse-graph": lambda v: with_rmse(graph=v),
    "save_network-graph": lambda v: save_network(os.devnull, v),
    "parameter_bounds-graph": lambda v: with_bounds(graph=v),
    "init_full-graph": lambda v: init_full(v, InitSpec()),
    "init_full-config": lambda v: init_full(instance()[0], v),
    "init_lite-graph": lambda v: with_init_lite(graph=v),
    "MeasurementSet-graph": lambda v: with_ranges(graph=v),
    "MeasurementSet.edge_ranges-graph": lambda v: instance()[2].edge_ranges(v),
    "MeasurementSet.node_ranges-graph": lambda v: instance()[2].node_ranges(v),
    "oracle_check-graph": lambda v: with_oracle(graph=v),
    "oracle_check-measurements": lambda v: with_oracle(meas=v),
    "TraceRecorder-graph": lambda v: with_recorder(graph=v, truth=instance()[1]),
}
for _name, _runner in (("run_full", run_full), ("run_lite", run_lite)):
    ROWS |= {
        f"{_name}-graph": lambda v, r=_runner: solve(r, graph=v),
        f"{_name}-measurements": lambda v, r=_runner: solve(r, meas=v),
        f"{_name}-params": lambda v, r=_runner: solve(r, params=v),
        f"{_name}-hook": lambda v, r=_runner: solve(r, hook=v),
        f"{_name}-iters": lambda v, r=_runner: solve(r, iters=v),
        f"{_name}-seed": lambda v, r=_runner: solve(r, seed=v),
        f"{_name}-kind": lambda v, r=_runner: solve(r, InitSpec(kind=v)),
        f"{_name}-lo": lambda v, r=_runner: solve(r, InitSpec("uniform", lo=v)),
        f"{_name}-hi": lambda v, r=_runner: solve(r, InitSpec("uniform", hi=v)),
        f"{_name}-u_init": lambda v, r=_runner: solve(r, InitSpec("uniform", u_init=v)),
        f"{_name}-positions": lambda v, r=_runner: solve(r, InitSpec("from_positions", positions=v)),
    }

# The rows whose argument is a real number, and those whose argument is an
# array of numbers, with the shape each takes.
REAL_ROWS = [
    "generate_rgg-comm_range", "generate_rgg-area_side", "NoiseModel-sigma_add",
    "PenaltyParams-c", "PenaltyParams-rho", "init_lite-c", "parameter_bounds-c",
    "oracle_check-c", "sublinear_envelope_check-tol",
    "run_full-lo", "run_full-hi", "run_lite-lo", "run_lite-hi",
]
ARRAY_ROWS = {
    "MeasurementSet-d": (len(instance()[2].d),),
    "GroundTruth-positions": (6, 2),
    "rmse-estimates": (6, 2),
    "sublinear_envelope_check-gap_values": (4,),
    "run_full-positions": (6, 2),
    "run_lite-positions": (6, 2),
}
HUGE = 10**400  # an integer no float holds

# The rows whose argument may be None.
NONE_TAKEN = {"save_network-measurements", "run_full-hook", "run_lite-hook"}


@pytest.mark.parametrize("value", JUNK.values(), ids=JUNK.keys())
@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_returns_or_raises_a_package_error(call, value):
    try:
        call(value)
    except LocadmmError:
        pass


@pytest.mark.parametrize("value", [JUNK[name] for name in REFUSED], ids=REFUSED)
@pytest.mark.parametrize("row", ROWS)
def test_refuses_what_no_argument_takes(row, value):
    # none of these is a count, a number, a seed, a keyword, a collection or
    # the object an argument is
    if value is None and row in NONE_TAKEN:
        ROWS[row](value)
        return
    with pytest.raises(LocadmmError):
        ROWS[row](value)


# The entry points that take a file path: a string is a path, so these are
# no ROWS, where "x" would be written.
PATH_CALLS = {
    "load_network": load_network,
    "save_network": lambda v: save_network(v, instance()[0]),
    "IterationTrace.to_csv": lambda v: IterationTrace().to_csv(v),
}
NO_PATHS = [name for name in JUNK if name != "str"]


@pytest.mark.parametrize("value", [JUNK[name] for name in NO_PATHS], ids=NO_PATHS)
@pytest.mark.parametrize("call", PATH_CALLS.values(), ids=PATH_CALLS.keys())
def test_a_path_is_a_str_bytes_or_path_like(call, value):
    # open() takes an integer, np.int64 or True as a file descriptor
    with pytest.raises(InvalidParameter, match="^path must be a str, bytes or os.PathLike"):
        call(value)


@pytest.mark.parametrize("call", PATH_CALLS.values(), ids=PATH_CALLS.keys())
def test_an_open_descriptor_is_refused_and_left_open(call, tmp_path):
    # load_network read a network through it and then closed it
    path = tmp_path / "net.json"
    graph, truth, meas, _ = instance()
    save_network(path, graph, truth, meas)
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(InvalidParameter):
            call(fd)
        os.fstat(fd)
    finally:
        os.close(fd)


@pytest.mark.parametrize("row", REAL_ROWS)
def test_a_real_too_large_for_a_float_refused(row):
    # float(), math.isfinite and NumPy raised a raw OverflowError
    with pytest.raises(LocadmmError):
        ROWS[row](HUGE)


@pytest.mark.parametrize("row", ARRAY_ROWS)
def test_an_array_holding_a_number_too_large_for_a_float_refused(row):
    array = np.zeros(ARRAY_ROWS[row], dtype=object)
    array.flat[0] = HUGE
    with pytest.raises(LocadmmError):
        ROWS[row](array.tolist())


@pytest.mark.parametrize("seed", [-1, 0.3, True, np.array(1)], ids=["-1", "0.3", "True", "array"])
@pytest.mark.parametrize("row", [name for name in ROWS if name.endswith("-seed")])
def test_every_seed_checked_alike(row, seed):
    # generate_rgg, measure and oracle_check let NumPy raise its own
    # TypeError or ValueError, and seeded 1 for True
    message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(InvalidParameter, match=message):
        ROWS[row](seed)


def test_numpy_scalars_taken_as_their_python_values():
    graph, truth, meas, params = instance()
    spec = InitSpec("uniform", lo=-1, hi=1.0, u_init="half")
    np_spec = InitSpec(np.str_("uniform"), lo=np.int64(-1), hi=np.float64(1.0), u_init=np.str_("half"))
    np_params = PenaltyParams(np.float64(0.1), np.float64(0.1))
    for runner in (run_full, run_lite):
        want = runner(graph, meas, params, spec, 2, seed=4).estimates
        got = runner(graph, meas, np_params, np_spec, np.int64(2), seed=np.uint8(4)).estimates
        assert got.tobytes() == want.tobytes()
        [cell] = run_grid(np.str_(runner.__name__[4:]), graph, meas, [(params, np.int64(4))],
                          np_spec, np.int64(2))
        assert cell.result.estimates.tobytes() == want.tobytes()
    want = measure(truth, graph, NoiseModel("range-dependent", 0.01), seed=5).d
    got = measure(truth, graph, NoiseModel(np.str_("range-dependent"), np.float64(0.01)),
                  seed=np.int64(5)).d
    assert got.tobytes() == want.tobytes()
    want, _ = generate_rgg(6, 2, 0.8, dim=3, seed=3)
    got, _ = generate_rgg(6, 2, 0.8, dim=np.int64(3), seed=3)
    assert got.edge_list == want.edge_list and got.dim == 3
