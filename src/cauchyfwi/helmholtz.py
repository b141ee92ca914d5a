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

Assembly fills a structure cached per grid and boundary choice, with its
columns already in a fill-reducing order (_pattern).  HelmholtzSystem
factorizes it with SuperLU and solves FORWARD_BLOCK columns at a time
(HelmholtzSystem.solve).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AssemblyError,
    DataFormatError,
    GeometryError,
    SolverBreakdownError,
)
from .geometry import Grid, NodalField, read_only
from .textio import write_text_atomic

# Columns per triangular solve; see HelmholtzSystem.solve.
FORWARD_BLOCK = 8

# SuperLU's supernode relaxation and panel width; see HelmholtzSystem.
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 2


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


def assemble(grid, speed, phys, free_surface=True):
    """Assemble the discrete Helmholtz system for a nodal speed field.

    free_surface=False replaces the Dirichlet top by the absorbing relation
    on every face (used for homogeneous-medium validation against the
    free-space response).

    Only the diagonal depends on the speed and the frequency.  It is
    written into a complex copy of the grid's cached real off-diagonal
    values, which are in the column order the LU factorizes in (see
    _pattern), so the system shares its read-only structure with every
    other system on the same grid.
    """
    if speed.grid != grid:
        raise AssemblyError("speed field lives on a different grid")
    c = np.asarray(speed.values, dtype=float)
    if not np.isfinite(c).all():
        raise AssemblyError("speed field contains non-finite values")
    if (c <= 0).any():
        raise AssemblyError("speed field must be strictly positive")

    shape = grid.shape
    h = grid.spacing
    idx = grid.multi_indices()
    indptr, indices, offdiag, diag_slot, perm, dirichlet = _pattern(grid, free_surface)

    k2 = phys.k ** 2
    ik0 = 1j * phys.absorbing_k0

    diag = (k2 / c ** 2).astype(complex)
    for d in range(grid.dim):
        on_b = (idx[:, d] == 0) | (idx[:, d] == shape[d] - 1)
        diag += np.where(on_b, -2.0 / h[d] ** 2 + 2.0 * ik0 / h[d], -2.0 / h[d] ** 2)
    diag *= grid.boundary_scale()
    diag[dirichlet] = 1.0

    data = offdiag.astype(complex)
    data[diag_slot] = diag
    m = grid.n_nodes
    ordered = sp.csc_matrix((data, indices, indptr), shape=(m, m))
    return HelmholtzSystem(speed, phys, ordered, perm, dirichlet)


@functools.lru_cache(maxsize=64)
def _pattern(grid, free_surface):
    """Compressed-column structure of the operator on a grid, with its
    columns in a fill-reducing order, and its off-diagonal values, which
    depend on the grid alone.

    Returns (indptr, indices, offdiag, diag_slot, perm, dirichlet), all
    read-only.  The first three describe A[:, argsort(perm)], with zeros in
    the diagonal entries; diag_slot[j] is the position in offdiag of entry
    (j, j) of A, and dirichlet masks the rows of the pressure-free face
    (none when free_surface is False).  offdiag is float64: each value is
    1/h^2, or 2/h^2 beside a ghost node, times the row scale, so it is
    never complex, and half the size of the complex values assemble
    builds from it.

    perm is SuperLU's perm_c, which puts column i of A at column perm[i]
    of the ordered operator: minimum degree on A^T + A (MMD_AT_PLUS_A), the
    fill-reducing ordering for a structurally symmetric matrix, followed
    by its elimination-tree postorder.  Both read the structure alone, so
    every operator on the grid gets the same perm_c, and it is computed
    once here, from a complex, diagonally dominant stand-in with the
    operator's structure.  SuperLU fixes perm_c before it factorizes, so
    an incomplete factorization that keeps no off-diagonal entry gives
    the complete one's perm_c for a fraction of its work; a test pins the
    two equal.  Each operator is then factorized in SuperLU's NATURAL
    order, which scipy runs in SuperLU's symmetric mode; tests pin its
    factors and solves bit-equal to those of an ordering computed for
    that operator.
    """
    m = grid.n_nodes
    matrix, dirichlet = _offdiagonal(grid, free_surface)
    col_of_slot = np.repeat(np.arange(m), np.diff(matrix.indptr))
    diag_slot = np.flatnonzero(matrix.indices == col_of_slot)

    dominant = np.abs(matrix.data).astype(complex)
    dominant[diag_slot] = 1.0 + np.add.reduceat(dominant, matrix.indptr[:-1])
    # perm_c is a view that keeps the stand-in's factors alive; astype
    # copies it, so they are freed before the arrays below are allocated
    perm = spla.spilu(
        sp.csc_matrix((dominant, matrix.indices, matrix.indptr), shape=(m, m)),
        permc_spec="MMD_AT_PLUS_A",
        relax=SUPERLU_RELAX,
        panel_size=SUPERLU_PANEL_SIZE,
        drop_tol=1e300,
        fill_factor=1,
    ).perm_c.astype(np.intp)

    # slot s of A moves to position position[s] of A[:, argsort(perm)]
    slots = sp.csc_matrix((np.arange(matrix.nnz), matrix.indices, matrix.indptr),
                          shape=(m, m))[:, np.argsort(perm)]
    position = np.argsort(slots.data)
    return tuple(read_only(a) for a in (slots.indptr, slots.indices, matrix.data[slots.data],
                                        position[diag_slot], perm, dirichlet))


def _offdiagonal(grid, free_surface):
    """The operator's real off-diagonal values in compressed columns,
    with explicit zeros in the diagonal entries, and the mask of its
    Dirichlet rows.  Its triplets are freed on return, before _pattern
    factorizes."""
    dim = grid.dim
    shape = grid.shape
    h = grid.spacing
    m = grid.n_nodes
    idx = grid.multi_indices()
    scale = grid.boundary_scale()
    dirichlet = grid.free_surface_mask() if free_surface else np.zeros(m, dtype=bool)

    rows = [np.arange(m)]
    cols = [np.arange(m)]
    vals = [np.zeros(m)]

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
            vals.append(coeff)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsc()
    return matrix, dirichlet


class HelmholtzSystem:
    """Assembled operator with a lazily cached sparse LU factorization.

    The operator A on speed's grid arrives with its columns already in the
    fill-reducing order: ordered is A[:, argsort(perm)], in compressed
    columns, so node i is column perm[i] of ordered and entry perm[i] of a
    solution (see _pattern).  The operator is fixed at construction, but
    the object is not immutable: it caches the factorization on first use,
    for every later solve, and solve_count counts the right-hand sides
    solved, for cost accounting.  The factorization is SuperLU's, of the
    columns in the order they arrive, with partial pivoting: A is complex
    symmetric but neither Hermitian nor definite, so no diagonal pivot is
    known to be safe.

    SuperLU relaxes supernodes up to SUPERLU_RELAX columns and factorizes
    panels of SUPERLU_PANEL_SIZE columns, in place of its defaults (from
    SuperLU's sp_ienv), which are tuned for much larger matrices: on this
    package's grids the small settings factorize faster, with the same
    fill.  Large relax values are left untried, as relax=64 has been seen
    to crash the interpreter at exit in scipy 1.17.1.
    """

    def __init__(self, speed, phys, ordered, perm, dirichlet_mask):
        self.grid = speed.grid
        self.speed = speed
        self.phys = phys
        self.dirichlet_mask = dirichlet_mask
        self.solve_count = 0
        self._ordered = ordered
        self._perm = perm
        self._factor = None

    @property
    def matrix(self):
        """The operator A, put back in node order anew on each access."""
        return self._ordered[:, self._perm]

    @property
    def factorization(self):
        if self._factor is None:
            try:
                self._factor = spla.splu(
                    self._ordered,
                    permc_spec="NATURAL",
                    relax=SUPERLU_RELAX,
                    panel_size=SUPERLU_PANEL_SIZE,
                )
            except RuntimeError as exc:
                raise SolverBreakdownError(f"sparse LU failed: {exc}") from exc
        return self._factor

    def solve(self, rhs):
        """Solve A u = rhs for one vector or a (n_nodes, k) block; any
        other shape raises ValueError.

        Direct factorization; the residual satisfies |A u - b| <= 1e-10 |b|
        for well-scaled inputs and output is deterministic.  rhs is never
        written.  A non-finite result raises SolverBreakdownError.

        The columns are solved FORWARD_BLOCK at a time.  In chunks this
        narrow each column comes out bit-equal to that column solved
        alone; in a wider solve OpenBLAS's trsm/gemm can take their
        threaded path and change the last bits (README.md, "Reproducibility
        and BLAS threads", says at which thread counts each holds).
        SuperLU returns each chunk as a fresh Fortran-ordered array in the
        column order, and each column is put back in node order on its
        own: in place, inside that array, when the block is one chunk, and
        into a Fortran-ordered result otherwise.  So a solve of at most
        FORWARD_BLOCK columns holds no node-sized block but SuperLU's
        result and the caller's right-hand side.
        """
        b = np.asarray(rhs, dtype=complex)
        if b.ndim not in (1, 2):
            raise ValueError(f"right-hand side must be one vector or a (n_nodes, k) block, "
                             f"got shape {b.shape}")
        if b.shape[0] != self.grid.n_nodes:
            raise ValueError("right-hand side has the wrong length")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side contains non-finite values")
        cols = b.reshape(b.shape[0], -1)
        try:
            lu = self.factorization
            if cols.shape[1] <= FORWARD_BLOCK:
                x = lu.solve(cols)
                self._put_in_node_order(x, x)
            else:
                x = np.empty(cols.shape, dtype=complex, order="F")
                for start in range(0, cols.shape[1], FORWARD_BLOCK):
                    chunk = slice(start, start + FORWARD_BLOCK)
                    self._put_in_node_order(lu.solve(cols[:, chunk]), x[:, chunk])
        except (RuntimeError, ValueError) as exc:
            raise SolverBreakdownError(f"triangular solve failed: {exc}") from exc
        if not np.isfinite(x).all():
            raise SolverBreakdownError("triangular solve returned non-finite values")
        self.solve_count += cols.shape[1]
        return x.reshape(b.shape)

    def _put_in_node_order(self, solved, out):
        """Write the columns of solved, in the column order, to the columns
        of out in node order, one at a time.  out may be solved itself:
        np.take buffers an output column that overlaps its input.  Its
        "clip" mode, which clips nothing here as the indices are a
        permutation, spares the buffer "raise" makes of every output."""
        for j in range(solved.shape[1]):
            np.take(solved[:, j], self._perm, out=out[:, j], mode="clip")

    def green_many(self, positions):
        """(n_nodes, n) responses to unit point sources at (n, dim)
        positions, solved against one factorization.

        Each position snaps to its nearest node (Grid.nearest_nodes), which
        must lie off the depth-0 face whatever the boundary choice.  The
        right-hand side carries 1 / (cell volume) at the node so the solved
        field approximates the response to a unit Dirac impulse.  The nodes
        and impulses are computed once per grid and position set.
        """
        pos = np.asarray(positions, dtype=float)
        nodes, impulses = _point_sources(self.grid, pos.shape, pos.tobytes())
        rhs = np.zeros((self.grid.n_nodes, nodes.size), dtype=complex, order="F")
        rhs[nodes, np.arange(nodes.size)] = impulses
        return self.solve(rhs)


@functools.lru_cache(maxsize=64)
def _point_sources(grid, shape, coordinates):
    """Read-only nodes and right-hand-side values of unit point sources at
    the float positions whose shape and bytes are given, so that one set
    of positions is snapped and checked once per grid (see green_many)."""
    positions = np.frombuffer(coordinates).reshape(shape)
    nodes = grid.nearest_nodes(positions)
    on_surface = grid.free_surface_mask()[nodes]
    if on_surface.any():
        position = positions[on_surface.argmax()]
        raise GeometryError(
            f"source at {position.tolist()} lies on the pressure-free surface"
        )
    impulses = -(1.0 / grid.cell_volume) * grid.boundary_scale()[nodes]
    return read_only(nodes), read_only(impulses)


def traces_many(block, receivers):
    """Traces of a (n_nodes, n_fields) block on a receiver layer; returns
    (n_fields, n_rcv) values and normal derivatives.

    The block lives on receivers.grid.  The derivative is the centered
    difference across the layer along the upward normal, toward the sources.
    """
    hz = receivers.grid.spacing[-1]
    vals = block[receivers.value_nodes].T
    dnu = (block[receivers.above_nodes] - block[receivers.below_nodes]).T / (2 * hz)
    return vals, dnu


def write_field_structured_points(field, path):
    """Legacy structured-points text export: 4 header lines then one scalar
    per line, row-major."""
    if np.iscomplexobj(field.values):
        raise DataFormatError("structured-points export requires a real field")
    grid = field.grid
    lines = [
        "structured_points",
        f"dim {grid.dim}",
        "shape " + " ".join(str(n) for n in grid.shape),
        "spacing " + " ".join(f"{h:.17g}" for h in grid.spacing),
    ]
    lines.extend(f"{v:.17g}" for v in field.values)
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_field_structured_points(path):
    """Read a field back; a malformed header or a malformed or non-finite
    value raises DataFormatError."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) < 4 or lines[0] != "structured_points":
        raise DataFormatError(f"{path}: not a structured-points file")
    try:
        dim = int(lines[1].split()[1])
        shape = tuple(int(t) for t in lines[2].split()[1:])
        spacing = tuple(float(t) for t in lines[3].split()[1:])
        if len(shape) != dim or len(spacing) != dim:
            raise DataFormatError(f"{path}: inconsistent header")
        extent = tuple(h * (n - 1) for h, n in zip(spacing, shape))
        grid = Grid(extent, shape)
        vals = np.array([float(t) for t in lines[4:]])
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: malformed header or value: {exc}") from None
    if vals.size != grid.n_nodes:
        raise DataFormatError(f"{path}: {vals.size} values for {grid.n_nodes} nodes")
    if not np.isfinite(vals).all():
        raise DataFormatError(f"{path}: non-finite value")
    return NodalField(grid, vals)


def write_field_csv(field, path):
    """CSV export 'i, j[, k], re, im' with node indices, row-major."""
    grid = field.grid
    idx = grid.multi_indices()
    vals = np.asarray(field.values, dtype=complex)
    rows = []
    for row, v in zip(idx, vals):
        ints = ", ".join(str(int(i)) for i in row)
        rows.append(f"{ints}, {v.real:.17g}, {v.imag:.17g}\n")
    write_text_atomic(path, "".join(rows))
