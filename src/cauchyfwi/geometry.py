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

from .errors import BoundsViolationError, DataFormatError, GeometryError
from .textio import write_text_atomic


def read_only(values, dtype=None):
    """A read-only C-ordered copy of values; how every value type and
    per-grid cache stores its arrays, so no caller holds a writable alias."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


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
        if not all(0 < e < math.inf for e in extent):
            raise ValueError(f"extents must be positive and finite, got {extent}")
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

    # cached on the method, so equal grids share one entry
    @functools.lru_cache(maxsize=64)
    def multi_indices(self):
        """(n_nodes, dim) integer node indices in C (row-major) order."""
        return read_only(np.indices(self.shape).reshape(self.dim, -1).T)

    @functools.lru_cache(maxsize=64)
    def node_positions(self):
        """(n_nodes, dim) node coordinates in meters, C order."""
        return read_only(self.multi_indices() * np.array(self.spacing))

    @functools.lru_cache(maxsize=64)
    def node_weights(self):
        """Tensor-product trapezoid quadrature weight per node, m^dim."""
        axis_w = []
        for n, h in zip(self.shape, self.spacing):
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            axis_w.append(w)
        return read_only(functools.reduce(np.multiply.outer, axis_w).ravel())

    @functools.lru_cache(maxsize=64)
    def free_surface_mask(self):
        """Boolean flat mask of nodes on the depth-0 face."""
        return read_only(self.multi_indices()[:, -1] == 0)

    @functools.lru_cache(maxsize=64)
    def boundary_scale(self):
        """Per-node factor 2^-(number of boundary faces touched)."""
        idx = self.multi_indices()
        n_faces = np.zeros(self.n_nodes, dtype=int)
        for d, n in enumerate(self.shape):
            n_faces += (idx[:, d] == 0) | (idx[:, d] == n - 1)
        return read_only(0.5 ** n_faces)

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


@dataclass(frozen=True, eq=False)
class NodalField:
    """One value per grid node, flat in C order.  Real or complex."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = read_only(np.ravel(self.values))
        if vals.size != self.grid.n_nodes:
            raise ValueError(
                f"field has {vals.size} values, grid has {self.grid.n_nodes} nodes"
            )
        object.__setattr__(self, "values", vals)

    def reshape(self):
        return self.values.reshape(self.grid.shape)


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
        node_map = read_only(np.ravel(self.node_map), np.int32)
        frozen = read_only(np.ravel(self.frozen), bool)
        if node_map.size != self.grid.n_nodes:
            raise ValueError("node_map length must equal the node count")
        n = frozen.size
        if node_map.min() < 0 or node_map.max() >= n:
            raise ValueError("node_map references subdomains outside [0, N)")
        counts = np.bincount(node_map, minlength=n)
        if (counts == 0).any():
            empty = int(np.nonzero(counts == 0)[0][0])
            raise ValueError(f"subdomain {empty} owns no nodes")
        object.__setattr__(self, "node_map", node_map)
        object.__setattr__(self, "frozen", frozen)

    @property
    def n_subdomains(self):
        return int(self.frozen.size)

    def nodes_of(self, j):
        """Flat node indices owned by subdomain j, as a read-only view."""
        return self._node_lists[j]

    @functools.cached_property
    def _node_lists(self):
        order = read_only(np.argsort(self.node_map, kind="stable"))
        bounds = np.searchsorted(self.node_map[order], np.arange(self.n_subdomains + 1))
        return tuple(order[bounds[j] : bounds[j + 1]] for j in range(self.n_subdomains))

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
        raise GeometryError(f"tile size must be positive, got {max_extent}")
    if max_extent < h * (1 - 1e-12):
        raise GeometryError(
            f"tile size {max_extent} m is below the cell spacing {h} m"
        )
    n_tiles = int(math.ceil(extent / max_extent - 1e-12))
    width = int(math.floor(max_extent / h + 1e-12))
    bounds = [t * width for t in range(n_tiles)]
    bounds.append(n_cells)
    if bounds[-1] <= bounds[-2]:
        raise GeometryError(
            f"tile size {max_extent} m does not tile {extent} m at spacing {h} m"
        )
    return bounds


def build_partition(grid, max_extent, water_depth=0.0):
    """Tile the grid into axis-aligned subdomains capped at max_extent.

    max_extent holds one length in meters per axis.  Tiles straddling the
    water bottom are split at the nearest node layer and the upper parts are
    marked frozen.  water_depth = 0 freezes nothing.
    """
    max_extent = tuple(float(m) for m in max_extent)
    if len(max_extent) != grid.dim:
        raise GeometryError("need one tile cap per grid axis")

    bounds = [
        _axis_tiling(grid.extent[d], grid.shape[d], max_extent[d])
        for d in range(grid.dim)
    ]

    hz = grid.spacing[-1]
    if water_depth < 0 or water_depth > grid.extent[-1] + 1e-9:
        raise GeometryError(
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
    optimizer.  Frozen subdomains are pinned to water_speed.
    Admissibility (all evaluated nodes in [c_min, c_max]) is enforced by
    evaluate_model(), not at construction, so that trial steps can be
    rejected.
    """

    partition: Partition
    coeffs: np.ndarray
    c_min: float
    c_max: float
    water_speed: float

    def __post_init__(self):
        n = self.partition.n_subdomains
        dim = self.partition.grid.dim
        coeffs = np.array(self.coeffs, dtype=float).reshape(n, 1 + dim)
        if not np.isfinite(coeffs).all():
            raise ValueError("model coefficients must be finite")
        if not (0 < self.c_min < self.c_max):
            raise ValueError(f"need 0 < c_min < c_max, got {self.c_min}, {self.c_max}")
        coeffs[self.partition.frozen, 0] = float(self.water_speed)
        coeffs[self.partition.frozen, 1:] = 0.0
        object.__setattr__(self, "coeffs", read_only(coeffs))

    @property
    def coefficient_vector(self):
        return self.coeffs.ravel()

    def with_coefficient_vector(self, vec):
        return PiecewiseLinearModel(
            self.partition, np.asarray(vec, dtype=float),
            self.c_min, self.c_max, self.water_speed,
        )


def evaluate_model(model):
    """Evaluate the piecewise-affine speed at every grid node.

    Raises BoundsViolationError naming the first offending node when the
    value leaves [c_min, c_max] or is not a number (finite coefficients can
    still overflow to inf - inf).
    """
    part = model.partition
    grid = part.grid
    j = part.node_map
    pos = grid.node_positions()
    vals = model.coeffs[j, 0] + np.einsum("nd,nd->n", model.coeffs[j, 1:], pos)
    bad = ~((vals >= model.c_min) & (vals <= model.c_max))
    if bad.any():
        node = int(np.nonzero(bad)[0][0])
        raise BoundsViolationError(
            f"speed {vals[node]:.6g} m/s at node {node} outside "
            f"[{model.c_min}, {model.c_max}]"
        )
    return NodalField(grid, vals)


def fit_coefficients(field, partition, c_min, c_max, water_speed):
    """Least-squares affine fit of a nodal field on each subdomain.

    Exact on fields that are already affine per subdomain.  Frozen
    subdomains are pinned to water_speed, not fitted.  Raises GeometryError
    when a subdomain has fewer than dim+1 non-collinear nodes.
    """
    if np.iscomplexobj(field.values):
        raise ValueError("can only fit real fields")
    vals = np.asarray(field.values, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("field values must be finite")
    grid = partition.grid
    dim = grid.dim
    pos = grid.node_positions()
    coeffs = np.zeros((partition.n_subdomains, 1 + dim))
    for j in range(partition.n_subdomains):
        if partition.frozen[j]:
            continue
        nodes = partition.nodes_of(j)
        x = pos[nodes]
        centroid = x.mean(axis=0)
        design = np.column_stack([np.ones(len(nodes)), x - centroid])
        sol, _, rank, _ = np.linalg.lstsq(design, vals[nodes], rcond=None)
        if rank < 1 + dim:
            raise GeometryError(
                f"subdomain {j} has fewer than {dim + 1} non-collinear nodes"
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


def read_model(path, partition, c_min, c_max, water_speed):
    """Read a model file back against a known partition; a malformed or
    non-finite entry raises DataFormatError naming the file, and so do a row
    out of the subdomain order write_model writes, a frozen flag other than
    0 or 1 and a frozen row other than (water_speed, 0, ...)."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "plmodel" or not all(t.isdecimal() for t in head[1:]):
        raise DataFormatError(f"{path}: bad header {lines[0]!r}")
    dim, n = int(head[1]), int(head[2])
    if dim != partition.grid.dim:
        raise DataFormatError(f"{path}: dimension {dim} does not match the grid")
    if n != partition.n_subdomains:
        raise DataFormatError(
            f"{path}: {n} subdomains in file, partition has {partition.n_subdomains}"
        )
    if len(lines) - 1 != n:
        raise DataFormatError(f"{path}: expected {n} coefficient rows")
    coeffs = np.zeros((n, 1 + dim))
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 3 + dim:
            raise DataFormatError(f"{path}: malformed row {ln!r}")
        try:
            j = int(parts[0])
            values = [float(v) for v in parts[1 : 2 + dim]]
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric field in row {ln!r}") from None
        if parts[-1] not in ("0", "1"):
            raise DataFormatError(f"{path}: frozen flag of row {ln!r} is not 0 or 1")
        frozen = parts[-1] == "1"
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"{path}: non-finite coefficient in row {ln!r}")
        if j != k:
            raise DataFormatError(f"{path}: row {ln!r} has subdomain index {j}, expected {k}")
        coeffs[j] = values
        if frozen != bool(partition.frozen[j]):
            raise DataFormatError(
                f"{path}: frozen flag of subdomain {j} disagrees with the partition"
            )
        if frozen and values != [water_speed] + [0.0] * dim:
            raise DataFormatError(
                f"{path}: frozen row {ln!r} does not carry the water speed {water_speed} m/s"
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
