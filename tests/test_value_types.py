"""Every value type and per-grid cache holds read-only copies of its arrays.

Each case builds one object of a small 2-D problem from arrays the test
owns, and returns the arrays the object stores with the arrays it was
built from.  The stored arrays must refuse writes, and writing to the
inputs afterwards must leave the object unchanged.
"""

import numpy as np
import pytest

from cauchyfwi.acquisition import CauchyDataSet, Provenance, ReceiverArray, SourceSet
from cauchyfwi.geometry import Grid, NodalField, Partition, PiecewiseLinearModel
from cauchyfwi.helmholtz import _pattern
from cauchyfwi.misfit_adjoint import ReciprocityGapMatrix

GRID = Grid((200.0, 100.0), (21, 11))
RNG = np.random.default_rng(5)


def grid_caches():
    return [GRID.multi_indices(), GRID.node_positions(), GRID.node_weights(),
            GRID.free_surface_mask(), GRID.boundary_scale()], []


def pattern():
    return list(_pattern(GRID, True)), []


def nodal_field():
    values = RNG.normal(size=GRID.n_nodes)
    return [NodalField(GRID, values).values], [values]


def two_tile_partition():
    node_map = (GRID.multi_indices()[:, -1] >= 3).astype(np.int32)
    frozen = np.array([True, False])
    return Partition(GRID, node_map, frozen), node_map, frozen


def partition():
    part, node_map, frozen = two_tile_partition()
    nodes = [part.nodes_of(j) for j in range(part.n_subdomains)]
    return [part.node_map, part.frozen] + nodes, [node_map, frozen]


def piecewise_linear_model():
    part = two_tile_partition()[0]
    coeffs = np.array([[1500.0, 0.0, 0.0], [1600.0, 0.1, 2.0]])
    model = PiecewiseLinearModel(part, coeffs, 1000.0, 3000.0, water_speed=1500.0)
    return [model.coeffs], [coeffs]


def receivers():
    lat = np.arange(2, 19).reshape(-1, 1)
    weights = np.full(lat.shape[0], 10.0)
    return ReceiverArray(GRID, 3, lat, weights), [lat, weights]


def receiver_array():
    rcv, inputs = receivers()
    return [rcv.lateral_indices, rcv.weights, rcv.value_nodes, rcv.above_nodes,
            rcv.below_nodes], inputs


def sources():
    positions = np.array([[50.0, 10.0], [150.0, 10.0]])
    weights = np.array([100.0, 100.0])
    return SourceSet(positions, weights), [positions, weights]


def source_set():
    src, inputs = sources()
    return [src.positions, src.weights], inputs


def cauchy_data_set():
    rcv, src = receivers()[0], sources()[0]
    shape = (src.n_sources, rcv.n_receivers)
    g = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    dg = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    data = CauchyDataSet(rcv, src, g, dg, 25.0,
                         Provenance(GRID.shape, GRID.extent, np.inf, 0))
    return [data.g, data.dg], [g, dg]


def reciprocity_gap_matrix():
    values = RNG.normal(size=(3, 2)) + 1j * RNG.normal(size=(3, 2))
    sim_weights, obs_weights = np.full(3, 2.0), np.full(2, 3.0)
    gap = ReciprocityGapMatrix(values, sim_weights, obs_weights)
    return [gap.values, gap.sim_weights, gap.obs_weights], [values, sim_weights, obs_weights]


@pytest.mark.parametrize("build", [
    grid_caches, pattern, nodal_field, partition, piecewise_linear_model,
    receiver_array, source_set, cauchy_data_set, reciprocity_gap_matrix,
], ids=lambda build: build.__name__)
def test_value_type_holds_read_only_copies(build):
    stored, inputs = build()
    assert stored
    for arr in stored:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[-1]
    before = [arr.copy() for arr in stored]
    for arr in inputs:
        arr[...] = ~arr if arr.dtype == bool else arr + 1
    assert all(np.array_equal(b, a) for b, a in zip(before, stored))
