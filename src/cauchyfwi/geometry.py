"""Structured grids, tile partitions, and piecewise-linear wave-speed models.

Grids are rectilinear with the depth axis last; depth zero is the sea
surface, which carries the pressure-free (Dirichlet) tag.  A partition
groups grid cells into axis-aligned tiles and every tile carries one affine
speed function a_j + A_j . x.  The water layer, known ahead of the
reconstruction, is represented by frozen tiles whose coefficients never
move.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsViolationError,
    InvalidPartitionError,
    ModelFormatError,
    RankDeficiencyError,
)
from .textio import write_text_atomic


@dataclass(frozen=True)
class Grid:
    """Rectilinear node grid.

    Attributes:
        extent: physical size per axis in meters, depth last
        shape: node count per axis (>= 2 each)

    Spacing is extent/(nodes-1) per axis.  The face at depth 0 is the free
    surface; every other face is absorbing.
    """

    extent: tuple
    shape: tuple

    def __post_init__(self):
        extent = tuple(float(e) for e in self.extent)
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "shape", shape)
        if len(shape) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(shape)} axes")
        if len(extent) != len(shape):
            raise ValueError("extent and shape must have the same length")
        if any(e <= 0 for e in extent):
            raise ValueError(f"extents must be positive, got {extent}")
        if any(n < 2 for n in shape):
            raise ValueError(f"need at least 2 nodes per axis, got {shape}")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def spacing(self):
        return tuple(e / (n - 1) for e, n in zip(self.extent, self.shape))

    @property
    def n_nodes(self):
        return math.prod(self.shape)

    @property
    def cell_volume(self):
        return math.prod(self.spacing)

    def multi_indices(self):
        """(n_nodes, dim) integer node indices in C (row-major) order."""
        return _multi_indices(self)

    def node_positions(self):
        """(n_nodes, dim) node coordinates in meters, C order."""
        return _node_positions(self)

    def node_weights(self):
        """Tensor-product trapezoid quadrature weight per node, m^dim."""
        return _node_weights(self)

    def free_surface_mask(self):
        """Boolean flat mask of nodes on the depth-0 face."""
        return _free_surface_mask(self)

    def boundary_scale(self):
        """Per-node factor 2^-(number of boundary faces touched)."""
        return _boundary_scale(self)

    def ravel_index(self, multi):
        return int(np.ravel_multi_index(tuple(int(i) for i in multi), self.shape))

    def nearest_nodes(self, positions):
        """Flat indices of the grid nodes closest to (n, dim) physical
        positions.  A position halfway between two nodes goes to the even
        index, as Python's round does."""
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise ValueError(f"positions must be an (n, {self.dim}) array")
        h = np.array(self.spacing)
        inside = (pos >= -0.5 * h) & (pos <= np.array(self.extent) + 0.5 * h)
        if not inside.all():
            bad = pos[~inside.all(axis=1)][0]
            raise ValueError(f"position {bad} outside grid extent {self.extent}")
        # the extent check keeps every index >= 0; only the top can overshoot
        multi = np.minimum(np.rint(pos / h).astype(int), np.array(self.shape) - 1)
        return np.ravel_multi_index(tuple(multi.T), self.shape)

    def refine(self, factor):
        """Grid with the same extent and (n-1)*factor+1 nodes per axis."""
        if int(factor) < 1:
            raise ValueError("refinement factor must be >= 1")
        f = int(factor)
        return Grid(self.extent, tuple((n - 1) * f + 1 for n in self.shape))


@functools.lru_cache(maxsize=64)
def _multi_indices(grid):
    idx = np.indices(grid.shape).reshape(grid.dim, -1).T
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=64)
def _node_positions(grid):
    pos = _multi_indices(grid).astype(float) * np.array(grid.spacing)
    pos.setflags(write=False)
    return pos


@functools.lru_cache(maxsize=64)
def _node_weights(grid):
    axis_w = []
    for n, h in zip(grid.shape, grid.spacing):
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        axis_w.append(w)
    w = functools.reduce(np.multiply.outer, axis_w).ravel()
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=64)
def _free_surface_mask(grid):
    mask = (_multi_indices(grid)[:, -1] == 0).copy()
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=64)
def _boundary_scale(grid):
    idx = _multi_indices(grid)
    n_faces = np.zeros(grid.n_nodes, dtype=int)
    for d, n in enumerate(grid.shape):
        n_faces += (idx[:, d] == 0) | (idx[:, d] == n - 1)
    scale = 0.5 ** n_faces
    scale.setflags(write=False)
    return scale


@dataclass(frozen=True, eq=False)
class NodalField:
    """One value per grid node, flat in C order.  Real or complex."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values).ravel()
        if vals.size != self.grid.n_nodes:
            raise ValueError(
                f"field has {vals.size} values, grid has {self.grid.n_nodes} nodes"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def reshape(self):
        return self.values.reshape(self.grid.shape)

    def is_real(self):
        return not np.iscomplexobj(self.values)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every grid node to one of N connected tile subdomains.

    Attributes:
        grid: the underlying node grid
        node_map: flat int array, subdomain index per node
        frozen: bool per subdomain, True inside the known water layer
    """

    grid: Grid
    node_map: np.ndarray
    frozen: np.ndarray

    def __post_init__(self):
        node_map = np.asarray(self.node_map, dtype=np.int32).ravel()
        frozen = np.asarray(self.frozen, dtype=bool).ravel()
        if node_map.size != self.grid.n_nodes:
            raise ValueError("node_map length must equal the node count")
        n = frozen.size
        if node_map.min() < 0 or node_map.max() >= n:
            raise ValueError("node_map references subdomains outside [0, N)")
        counts = np.bincount(node_map, minlength=n)
        if (counts == 0).any():
            empty = int(np.nonzero(counts == 0)[0][0])
            raise ValueError(f"subdomain {empty} owns no nodes")
        node_map = node_map.copy()
        node_map.setflags(write=False)
        frozen = frozen.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "node_map", node_map)
        object.__setattr__(self, "frozen", frozen)

    @property
    def n_subdomains(self):
        return int(self.frozen.size)

    def nodes_of(self, j):
        """Flat node indices owned by subdomain j."""
        return self._node_lists()[j]

    def _node_lists(self):
        cache = getattr(self, "_node_lists_cache", None)
        if cache is None:
            order = np.argsort(self.node_map, kind="stable")
            bounds = np.searchsorted(
                self.node_map[order], np.arange(self.n_subdomains + 1)
            )
            cache = [
                order[bounds[j] : bounds[j + 1]] for j in range(self.n_subdomains)
            ]
            object.__setattr__(self, "_node_lists_cache", cache)
        return cache

    def bounding_box(self, j):
        """(low, high) corner positions in meters of subdomain j's nodes."""
        pos = self.grid.node_positions()[self.nodes_of(j)]
        return pos.min(axis=0), pos.max(axis=0)


def _axis_tiling(extent, n_nodes, max_extent):
    """Cell-index tile boundaries along one axis.

    The tile count is ceil(extent / max_extent); every tile except the last
    spans floor(max_extent / h) cells and the last absorbs the remainder.
    """
    h = extent / (n_nodes - 1)
    n_cells = n_nodes - 1
    if max_extent <= 0:
        raise InvalidPartitionError(f"tile size must be positive, got {max_extent}")
    if max_extent < h * (1 - 1e-12):
        raise InvalidPartitionError(
            f"tile size {max_extent} m is below the cell spacing {h} m"
        )
    n_tiles = int(math.ceil(extent / max_extent - 1e-12))
    width = int(math.floor(max_extent / h + 1e-12))
    bounds = [t * width for t in range(n_tiles)]
    bounds.append(n_cells)
    if bounds[-1] <= bounds[-2]:
        raise InvalidPartitionError(
            f"tile size {max_extent} m does not tile {extent} m at spacing {h} m"
        )
    return bounds


def build_partition(grid, max_extent, water_depth=0.0):
    """Tile the grid into axis-aligned subdomains capped at max_extent.

    max_extent is a per-axis length in meters (a scalar applies to every
    axis).  Tiles straddling the water bottom are split at the nearest node
    layer and the upper parts are marked frozen.  water_depth = 0 freezes
    nothing.
    """
    if np.isscalar(max_extent):
        max_extent = (float(max_extent),) * grid.dim
    max_extent = tuple(float(m) for m in max_extent)
    if len(max_extent) != grid.dim:
        raise InvalidPartitionError("need one tile cap per grid axis")

    bounds = [
        _axis_tiling(grid.extent[d], grid.shape[d], max_extent[d])
        for d in range(grid.dim)
    ]

    hz = grid.spacing[-1]
    if water_depth < 0 or water_depth > grid.extent[-1] + 1e-9:
        raise InvalidPartitionError(
            f"water depth {water_depth} m outside grid extent {grid.extent[-1]} m"
        )
    w_layer = int(round(water_depth / hz))
    zb = bounds[-1]
    if 0 < w_layer < grid.shape[-1] - 1 and w_layer not in zb:
        zb = sorted(zb + [w_layer])
        bounds[-1] = zb

    tile_counts = [len(b) - 1 for b in bounds]
    axis_tile = []
    for d in range(grid.dim):
        interior = np.asarray(bounds[d][1:-1])
        idx = np.arange(grid.shape[d])
        axis_tile.append(np.searchsorted(interior, idx, side="left"))

    ids = np.zeros(grid.shape, dtype=np.int64)
    for d in range(grid.dim):
        sl = [None] * grid.dim
        sl[d] = slice(None)
        ids = ids * tile_counts[d] + axis_tile[d][tuple(sl)]

    frozen_z = np.array(
        [upper <= w_layer for upper in bounds[-1][1:]]
    ) & (w_layer > 0)
    frozen = np.broadcast_to(frozen_z, tile_counts).ravel()

    return Partition(grid, ids.ravel(), frozen)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearModel:
    """Wave speed as one affine function per partition subdomain.

    coeffs has shape (N, 1 + dim) holding (a_j, A_j) per subdomain; the
    flattened row-major view is the coefficient vector used by the
    optimizer.  Frozen subdomains are pinned to water_speed when given.
    Admissibility (all evaluated nodes in [c_min, c_max]) is enforced by
    evaluate_model(), not at construction, so that trial steps can be
    rejected.
    """

    partition: Partition
    coeffs: np.ndarray
    c_min: float
    c_max: float
    water_speed: float = None

    def __post_init__(self):
        n = self.partition.n_subdomains
        dim = self.partition.grid.dim
        coeffs = np.array(self.coeffs, dtype=float).reshape(n, 1 + dim)
        if not np.isfinite(coeffs).all():
            raise ValueError("model coefficients must be finite")
        if not (0 < self.c_min < self.c_max):
            raise ValueError(f"need 0 < c_min < c_max, got {self.c_min}, {self.c_max}")
        if self.water_speed is not None:
            coeffs[self.partition.frozen, 0] = float(self.water_speed)
            coeffs[self.partition.frozen, 1:] = 0.0
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def coefficient_vector(self):
        return self.coeffs.ravel()

    def with_coefficient_vector(self, vec):
        return PiecewiseLinearModel(
            self.partition, np.asarray(vec, dtype=float),
            self.c_min, self.c_max, self.water_speed,
        )


def evaluate_model(model, check_bounds=True):
    """Evaluate the piecewise-affine speed at every grid node.

    Raises BoundsViolationError carrying the first offending node when the
    value leaves [c_min, c_max] and check_bounds is set.
    """
    part = model.partition
    grid = part.grid
    j = part.node_map
    pos = grid.node_positions()
    vals = model.coeffs[j, 0] + np.einsum("nd,nd->n", model.coeffs[j, 1:], pos)
    if check_bounds:
        bad = (vals < model.c_min) | (vals > model.c_max)
        if bad.any():
            node = int(np.nonzero(bad)[0][0])
            raise BoundsViolationError(
                f"speed {vals[node]:.6g} m/s at node {node} outside "
                f"[{model.c_min}, {model.c_max}]",
                node=node,
                value=float(vals[node]),
            )
    return NodalField(grid, vals)


def fit_coefficients(field, partition, c_min, c_max, water_speed=None):
    """Least-squares affine fit of a nodal field on each subdomain.

    Exact on fields that are already affine per subdomain.  Frozen
    subdomains are pinned to water_speed when it is given; otherwise they
    are fitted like any other.  Raises RankDeficiencyError when a subdomain
    has fewer than dim+1 non-collinear nodes.
    """
    if not field.is_real():
        raise ValueError("can only fit real fields")
    vals = np.asarray(field.values, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("field values must be finite")
    grid = partition.grid
    dim = grid.dim
    pos = grid.node_positions()
    coeffs = np.zeros((partition.n_subdomains, 1 + dim))
    for j in range(partition.n_subdomains):
        if water_speed is not None and partition.frozen[j]:
            coeffs[j, 0] = water_speed
            continue
        nodes = partition.nodes_of(j)
        x = pos[nodes]
        centroid = x.mean(axis=0)
        design = np.column_stack([np.ones(len(nodes)), x - centroid])
        sol, _, rank, _ = np.linalg.lstsq(design, vals[nodes], rcond=None)
        if rank < 1 + dim:
            raise RankDeficiencyError(
                f"subdomain {j} has fewer than {dim + 1} non-collinear nodes",
                subdomain=j,
            )
        coeffs[j, 0] = sol[0] - sol[1:] @ centroid
        coeffs[j, 1:] = sol[1:]
    return PiecewiseLinearModel(partition, coeffs, c_min, c_max, water_speed)


def coefficient_gradient(nodal_grad, partition):
    """Pull a nodal gradient density back onto the affine coefficients.

    Entry for a_j is sum_i w_i g_i over the subdomain's nodes with w the
    trapezoid node weights; entry for A_{j,d} carries an extra x_{i,d}.
    This is the exact adjoint of coefficient -> nodal evaluation under the
    w-weighted node inner product.  Frozen subdomains get zeros.
    """
    if np.iscomplexobj(nodal_grad.values):
        raise ValueError("nodal gradient must be real")
    grid = partition.grid
    n = partition.n_subdomains
    w = grid.node_weights()
    g = w * nodal_grad.values
    pos = grid.node_positions()
    out = np.zeros((n, 1 + grid.dim))
    jmap = partition.node_map
    out[:, 0] = np.bincount(jmap, weights=g, minlength=n)
    for d in range(grid.dim):
        out[:, 1 + d] = np.bincount(jmap, weights=g * pos[:, d], minlength=n)
    out[partition.frozen] = 0.0
    return out.ravel()


def write_model(model, path):
    """Write a model file: 'plmodel <dim> <N>' then one line per subdomain."""
    part = model.partition
    dim = part.grid.dim
    lines = [f"plmodel {dim} {part.n_subdomains}"]
    for j in range(part.n_subdomains):
        nums = " ".join(f"{v:.17g}" for v in model.coeffs[j])
        lines.append(f"{j} {nums} {int(part.frozen[j])}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_model(path, partition, c_min, c_max, water_speed=None):
    """Read a model file back against a known partition; a malformed or
    non-finite entry raises ModelFormatError naming the file."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ModelFormatError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "plmodel" or not all(t.isdecimal() for t in head[1:]):
        raise ModelFormatError(f"{path}: bad header {lines[0]!r}")
    dim, n = int(head[1]), int(head[2])
    if dim != partition.grid.dim:
        raise ModelFormatError(f"{path}: dimension {dim} does not match the grid")
    if n != partition.n_subdomains:
        raise ModelFormatError(
            f"{path}: {n} subdomains in file, partition has {partition.n_subdomains}"
        )
    if len(lines) - 1 != n:
        raise ModelFormatError(f"{path}: expected {n} coefficient rows")
    coeffs = np.zeros((n, 1 + dim))
    seen = np.zeros(n, dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 + dim:
            raise ModelFormatError(f"{path}: malformed row {ln!r}")
        try:
            j, frozen = int(parts[0]), bool(int(parts[-1]))
            values = [float(v) for v in parts[1 : 2 + dim]]
        except ValueError:
            raise ModelFormatError(f"{path}: non-numeric field in row {ln!r}") from None
        if not all(map(math.isfinite, values)):
            raise ModelFormatError(f"{path}: non-finite coefficient in row {ln!r}")
        if not 0 <= j < n:
            raise ModelFormatError(f"{path}: subdomain index {j} out of range")
        if seen[j]:
            raise ModelFormatError(f"{path}: repeated subdomain index {j}")
        seen[j] = True
        coeffs[j] = values
        if frozen != bool(partition.frozen[j]):
            raise ModelFormatError(
                f"{path}: frozen flag of subdomain {j} disagrees with the partition"
            )
    return PiecewiseLinearModel(partition, coeffs, c_min, c_max, water_speed)


def write_partition(partition, path):
    """Write 'partition <dim> <nx> [ny] <nz>' then the node map, row-major."""
    grid = partition.grid
    head = "partition " + str(grid.dim) + " " + " ".join(str(n) for n in grid.shape)
    body = []
    per_line = grid.shape[-1]
    flat = partition.node_map
    for start in range(0, flat.size, per_line):
        body.append(" ".join(str(int(v)) for v in flat[start : start + per_line]))
    write_text_atomic(path, head + "\n" + "\n".join(body) + "\n")


def read_partition(path, grid, water_depth=0.0):
    """Read a partition file; frozen flags are recomputed from water_depth."""
    with open(path) as f:
        tokens = f.read().split()
    if len(tokens) < 2 + grid.dim or tokens[0] != "partition":
        raise ModelFormatError(f"{path}: bad partition header")
    dim = int(tokens[1])
    if dim != grid.dim:
        raise ModelFormatError(f"{path}: dimension {dim} does not match the grid")
    shape = tuple(int(t) for t in tokens[2 : 2 + dim])
    if shape != grid.shape:
        raise ModelFormatError(f"{path}: shape {shape} does not match grid {grid.shape}")
    body = tokens[2 + dim :]
    if len(body) != grid.n_nodes:
        raise ModelFormatError(
            f"{path}: node map has {len(body)} entries, expected {grid.n_nodes}"
        )
    node_map = np.array([int(t) for t in body], dtype=np.int32)
    n = int(node_map.max()) + 1
    depth = grid.node_positions()[:, -1]
    frozen = np.zeros(n, dtype=bool)
    if water_depth > 0:
        tol = 0.5 * grid.spacing[-1]
        for j in range(n):
            frozen[j] = bool((depth[node_map == j] <= water_depth + tol).all())
    return Partition(grid, node_map, frozen)
