"""Discrete mixed-boundary Helmholtz operator, point-source solves, traces.

The operator Delta + k^2 c^-2 is discretized with second-order centered
differences.  The pressure-free top face carries Dirichlet rows; absorbing
faces carry the first-order radiation relation d_nu u - i k0 u = 0,
eliminated through ghost nodes so every boundary row keeps second-order
accuracy.  Rows are scaled by 2^-(number of boundary faces touched), which
makes the matrix complex symmetric (A = A^T, no conjugation) entrywise,
including at edges and corners.  Symmetry gives discrete source-receiver
reciprocity and lets one factorization serve both forward and adjoint
solves.

The LU factorization orders the columns by minimum degree on A^T + A
(SuperLU's MMD_AT_PLUS_A), a fill-reducing ordering for a structurally
symmetric matrix: on the default 81 x 41 grid it leaves about 93k nonzeros
in L + U, against about 151k under the default COLAMD ordering.  Partial
pivoting stays on, because A is complex symmetric but neither Hermitian
nor definite, so no diagonal pivot is known to be safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AlignmentError,
    AssemblyError,
    ExportError,
    InvalidSourceError,
    SolverBreakdownError,
)
from .geometry import Grid, NodalField

# Columns per triangular solve; see HelmholtzSystem.
FORWARD_BLOCK = 8


@dataclass(frozen=True)
class PhysicsConfig:
    """Angular wavenumber and the known water speed.

    k = 2 pi f is the angular frequency of the time-harmonic field in
    rad/s; the radiation coefficient on absorbing faces is k0 = k / c0.
    """

    freq_hz: float
    water_speed: float

    def __post_init__(self):
        if self.freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.freq_hz}")
        if self.water_speed <= 0:
            raise ValueError(f"water speed must be positive, got {self.water_speed}")

    @property
    def k(self):
        return 2.0 * np.pi * self.freq_hz

    @property
    def absorbing_k0(self):
        return self.k / self.water_speed


def points_per_wavelength(grid, phys, c_min):
    """Nodes per shortest wavelength; at least 4 are needed for sanity."""
    return (c_min / phys.freq_hz) / max(grid.spacing)


@dataclass(frozen=True)
class SourceSpec:
    """Point source snapped to the nearest node, normalized to unit strength.

    The discrete right-hand side carries 1 / (cell volume) at the node so
    the solved field approximates the response to a unit Dirac impulse.
    """

    grid: Grid
    position: tuple
    node: int
    amplitude: float

    @classmethod
    def from_position(cls, grid, position):
        node = grid.nearest_node(position)
        if grid.free_surface_mask()[node]:
            raise InvalidSourceError(
                f"source at {tuple(position)} lies on the pressure-free surface"
            )
        return cls(grid, tuple(float(x) for x in position), node, 1.0 / grid.cell_volume)


def assemble(grid, speed, phys, free_surface=True):
    """Assemble the discrete Helmholtz system for a nodal speed field.

    free_surface=False replaces the Dirichlet top by the absorbing relation
    on every face (used for homogeneous-medium validation against the
    free-space response).
    """
    if speed.grid != grid:
        raise AssemblyError("speed field lives on a different grid")
    c = np.asarray(speed.values, dtype=float)
    if not np.isfinite(c).all():
        raise AssemblyError("speed field contains non-finite values")
    if (c <= 0).any():
        raise AssemblyError("speed field must be strictly positive")

    dim = grid.dim
    shape = grid.shape
    h = grid.spacing
    m = grid.n_nodes
    idx = grid.multi_indices()
    scale = grid.boundary_scale()
    dirichlet = grid.free_surface_mask() if free_surface else np.zeros(m, dtype=bool)

    k2 = phys.k ** 2
    ik0 = 1j * phys.absorbing_k0

    diag = (k2 / c ** 2).astype(complex)
    for d in range(dim):
        on_b = (idx[:, d] == 0) | (idx[:, d] == shape[d] - 1)
        diag += np.where(on_b, -2.0 / h[d] ** 2 + 2.0 * ik0 / h[d], -2.0 / h[d] ** 2)
    diag *= scale
    diag[dirichlet] = 1.0

    rows = [np.arange(m)]
    cols = [np.arange(m)]
    vals = [diag]

    strides = np.array([int(np.prod(shape[d + 1 :])) for d in range(dim)])
    flat = np.arange(m)
    for d in range(dim):
        for step in (+1, -1):
            if step > 0:
                has_nb = idx[:, d] < shape[d] - 1
                doubled = idx[:, d] == 0
            else:
                has_nb = idx[:, d] > 0
                doubled = idx[:, d] == shape[d] - 1
            src = flat[has_nb]
            tgt = src + step * strides[d]
            keep = ~dirichlet[src] & ~dirichlet[tgt]
            src, tgt = src[keep], tgt[keep]
            coeff = np.where(doubled[src], 2.0, 1.0) / h[d] ** 2 * scale[src]
            rows.append(src)
            cols.append(tgt)
            vals.append(coeff.astype(complex))

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsc()
    return HelmholtzSystem(grid, speed, phys, matrix, dirichlet)


class HelmholtzSystem:
    """Assembled operator with a lazily cached sparse LU factorization.

    The operator is fixed at construction, but the object is not
    immutable: it caches the factorization on first use, for every later
    solve, and solve_count counts the right-hand sides solved, for cost
    accounting.  The factorization is SuperLU's with the MMD_AT_PLUS_A
    column ordering and partial pivoting (see the module docstring).

    A block of right-hand sides is solved FORWARD_BLOCK columns at a time
    into a Fortran-ordered result.  In chunks this narrow every column came
    out bit-equal to that column solved alone, at 1 and 2 BLAS threads; in
    one 32-column solve the larger supernodes of this ordering let
    OpenBLAS's trsm/gemm take their threaded path at 2 threads, which
    changed the last bits of up to 31 of the 32 columns.  At 1 thread the
    chunks are no slower than one wide solve.
    """

    def __init__(self, grid, speed, phys, matrix, dirichlet_mask):
        self.grid = grid
        self.speed = speed
        self.phys = phys
        self.matrix = matrix
        self.dirichlet_mask = dirichlet_mask
        self.solve_count = 0
        self._factor = None

    @property
    def factorization(self):
        if self._factor is None:
            try:
                self._factor = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SolverBreakdownError(f"sparse LU failed: {exc}") from exc
        return self._factor

    def solve(self, rhs):
        """Solve A u = rhs for one vector or a (n_nodes, k) block.

        Direct factorization; the residual satisfies |A u - b| <= 1e-10 |b|
        for well-scaled inputs and output is deterministic.  The columns
        are solved FORWARD_BLOCK at a time into a Fortran-ordered result.
        A non-finite result raises SolverBreakdownError.
        """
        b = np.asarray(rhs, dtype=complex)
        if b.shape[0] != self.grid.n_nodes:
            raise ValueError("right-hand side has the wrong length")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side contains non-finite values")
        cols = b.reshape(b.shape[0], -1)
        x = np.empty(cols.shape, dtype=complex, order="F")
        try:
            lu = self.factorization
            for start in range(0, cols.shape[1], FORWARD_BLOCK):
                chunk = slice(start, start + FORWARD_BLOCK)
                x[:, chunk] = lu.solve(cols[:, chunk])
        except (RuntimeError, ValueError) as exc:
            raise SolverBreakdownError(f"triangular solve failed: {exc}") from exc
        if not np.isfinite(x).all():
            raise SolverBreakdownError("triangular solve returned non-finite values")
        self.solve_count += cols.shape[1]
        return x.reshape(b.shape, order="F")

    def green(self, source):
        """Field response to a unit point source (one solve)."""
        return NodalField(self.grid, self.green_many([source])[:, 0])

    def green_many(self, sources):
        """(n_nodes, n_sources) responses solved against one factorization."""
        sources = list(sources)
        m = self.grid.n_nodes
        scale = self.grid.boundary_scale()
        rhs = np.zeros((m, len(sources)), dtype=complex)
        for col, src in enumerate(sources):
            if src.grid != self.grid:
                raise InvalidSourceError("source was built for a different grid")
            if self.dirichlet_mask[src.node]:
                raise InvalidSourceError(
                    f"source node {src.node} lies on the Dirichlet boundary"
                )
            rhs[src.node, col] = -src.amplitude * scale[src.node]
        return self.solve(rhs)


def traces(field, receivers):
    """Sample a field and its normal derivative on a receiver layer.

    The derivative is the centered difference across the layer along the
    upward normal, toward the sources.
    """
    vals, dnu = traces_many(field.values[:, None], field.grid, receivers)
    return vals[0], dnu[0]


def traces_many(block, grid, receivers):
    """Traces of a (n_nodes, n_fields) block; returns (n_fields, n_rcv) pairs."""
    if receivers.grid != grid:
        raise AlignmentError("receiver layer was built for a different grid")
    hz = grid.spacing[-1]
    vals = block[receivers.value_nodes].T
    dnu = (block[receivers.above_nodes] - block[receivers.below_nodes]).T / (2 * hz)
    return vals, dnu


def write_field_structured_points(field, path):
    """Legacy structured-points text export: 4 header lines then one scalar
    per line, row-major."""
    if not field.is_real():
        raise ExportError("structured-points export requires a real field")
    grid = field.grid
    lines = [
        "structured_points",
        f"dim {grid.dim}",
        "shape " + " ".join(str(n) for n in grid.shape),
        "spacing " + " ".join(f"{h:.17g}" for h in grid.spacing),
    ]
    lines.extend(f"{v:.17g}" for v in field.values)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_field_structured_points(path):
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) < 4 or lines[0] != "structured_points":
        raise ExportError(f"{path}: not a structured-points file")
    dim = int(lines[1].split()[1])
    shape = tuple(int(t) for t in lines[2].split()[1:])
    spacing = tuple(float(t) for t in lines[3].split()[1:])
    if len(shape) != dim or len(spacing) != dim:
        raise ExportError(f"{path}: inconsistent header")
    extent = tuple(h * (n - 1) for h, n in zip(spacing, shape))
    grid = Grid(extent, shape)
    vals = np.array([float(t) for t in lines[4:]])
    if vals.size != grid.n_nodes:
        raise ExportError(f"{path}: {vals.size} values for {grid.n_nodes} nodes")
    return NodalField(grid, vals)


def write_field_csv(field, path):
    """CSV export 'i, j[, k], re, im' with node indices, row-major."""
    grid = field.grid
    idx = grid.multi_indices()
    vals = np.asarray(field.values, dtype=complex)
    with open(path, "w") as f:
        for row, v in zip(idx, vals):
            ints = ", ".join(str(int(i)) for i in row)
            f.write(f"{ints}, {v.real:.17g}, {v.imag:.17g}\n")
