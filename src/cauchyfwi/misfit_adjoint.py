"""Reciprocity-gap misfit, aggregated adjoint solves, and the nodal gradient.

The gap between a simulated field (source y) and an observed trace pair
(source z) is the surface quadrature of

    u(x, y) * dG_obs(x, z) - G_obs(x, z) * du(x, y)

over the receiver layer: a bilinear pairing, no conjugation.  For two
fields of the same discrete operator with sources above the layer the sum
telescopes to zero exactly, which is what drives the misfit

    J = sum_{y,z} w_y w_z |S[y, z]|^2

toward zero at the true model.  With noisy observations J cannot fall
below its noise floor: the gap is linear in the observed traces, so the
expected misfit at a model that fits the clean data exactly is

    E[J_noise] = sum_{y,z} w_y w_z sum_i w_i^2 (|u_y(i)|^2 s2_dG(z)
                                                 + |du_y(i)|^2 s2_G(z))

with s2 the per-trace noise variances (acquisition.noise_variances).  The
gap matrix carries it, computed from the same traces at no solve.

The misfit costs n_sim forward solves; the gradient takes those forward
fields and costs n_sim adjoint solves on the same factorization: the
observation sources are aggregated into a single adjoint right-hand side
per simulation source.

Discrete consistency: the adjoint source is assembled as the exact
transpose of the trace and normal-derivative sampling operators (monopole
on the receiver nodes, a +-1/(2h) dipole on the straddling layers) and
normalized by the cell volume, mirroring the unit-impulse normalization of
the forward solve.  With the symmetric row-scaled operator this makes
(node weight) x (nodal gradient) the exact partial derivative of the
discrete misfit with respect to that node's speed, so the coefficient-space
gradient matches finite differences to rounding, not just to
discretization order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import helmholtz
from .acquisition import noise_variances
from .errors import GeometryError
from .geometry import NodalField, read_only


@dataclass(frozen=True, eq=False)
class ReciprocityGapMatrix:
    """Gap values over (simulation source, observation source) pairs, and
    the misfit the data noise alone would give (0 for clean data)."""

    values: np.ndarray
    sim_weights: np.ndarray
    obs_weights: np.ndarray
    noise_floor: float = 0.0

    def __post_init__(self):
        vals = read_only(self.values, complex)
        wy = read_only(np.ravel(self.sim_weights), float)
        wz = read_only(np.ravel(self.obs_weights), float)
        if vals.shape != (wy.size, wz.size):
            raise GeometryError(
                f"gap matrix shape {vals.shape} does not match "
                f"({wy.size} sim, {wz.size} obs) sources"
            )
        if not np.isfinite(vals).all():
            raise ValueError("gap matrix contains non-finite values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sim_weights", wy)
        object.__setattr__(self, "obs_weights", wz)


def reciprocity_gap(sim_values, sim_dnu, data, sim_weights):
    """Gap matrix between simulated traces and observed Cauchy data.

    sim_values and sim_dnu are (n_sim, n_rcv) trace blocks on the same
    receiver lattice as the data.
    """
    sim_values = np.asarray(sim_values, dtype=complex)
    sim_dnu = np.asarray(sim_dnu, dtype=complex)
    n_rcv = data.receivers.n_receivers
    if sim_values.shape[1] != n_rcv or sim_dnu.shape[1] != n_rcv:
        raise GeometryError(
            f"simulated traces cover {sim_values.shape[1]} receivers, data has {n_rcv}"
        )
    w = data.receivers.weights
    s = (sim_values * w) @ data.dg.T - (sim_dnu * w) @ data.g.T
    return ReciprocityGapMatrix(s, sim_weights, data.obs_sources.weights,
                                noise_floor(sim_values, sim_dnu, data, sim_weights))


def noise_floor(sim_values, sim_dnu, data, sim_weights):
    """E[J_noise] of the simulated traces against data's noise; 0 without
    noise.  The variances depend on the observation source alone, so the
    double sum factors into two products of sums."""
    variances = noise_variances(data)
    if variances is None:
        return 0.0
    var_g, var_dg = variances
    w2 = data.receivers.weights ** 2
    wy = np.asarray(sim_weights, dtype=float)
    wz = data.obs_sources.weights
    power = float(wy @ np.sum(np.abs(sim_values) ** 2 * w2, axis=1))
    power_dnu = float(wy @ np.sum(np.abs(sim_dnu) ** 2 * w2, axis=1))
    return power * float(wz @ var_dg) + power_dnu * float(wz @ var_g)


def misfit(gap):
    """J = sum_{y,z} w_y w_z |S[y,z]|^2, nonnegative."""
    power = np.abs(gap.values) ** 2
    return float(gap.sim_weights @ power @ gap.obs_weights)


def _aggregated_adjoint_rhs(gap, data):
    """(n_nodes, n_sim) column-major block of the adjoint right-hand sides on
    data.receivers and their grid, one column per simulation source.

    Monopole part: 2 w_z conj(S) w_i dG_obs placed on the receiver nodes.
    Dipole part: -2 w_z conj(S) w_i G_obs pushed through the transpose of
    the centered-difference stencil.  Normalized by the cell volume to
    match the unit-impulse convention of the forward solves, and negated.
    The scale and the sign act on the (n_sim, n_rcv) coefficients of the
    three receiver layers, the only rows written: x / -v is -(x / v)
    exactly, so the block is bit-equal to negating the scaled one.
    """
    receivers, grid = data.receivers, data.receivers.grid
    coef = 2.0 * np.conj(gap.values) * gap.obs_weights[None, :]
    wr = receivers.weights
    cell = grid.cell_volume
    mono = (coef @ data.dg) * wr / -cell
    dipo = (coef @ data.g) * wr / (2.0 * grid.spacing[-1]) / cell
    rhs = np.zeros((grid.n_nodes, gap.values.shape[0]), dtype=complex, order="F")
    rhs[receivers.value_nodes] = mono.T
    rhs[receivers.above_nodes] = dipo.T
    rhs[receivers.below_nodes] = -dipo.T
    return rhs


def solve_adjoint_fields(system, gap, data):
    """(n_nodes, n_sim) adjoint fields of gap on data.receivers, solved as one block.

    The right-hand sides are built in the column-major block that
    HelmholtzSystem.solve takes, so no second (n_nodes, n_sim) block is
    made before the solve.  Their Dirichlet rows, which only a receiver
    layer one node below the surface reaches, are zeroed.
    """
    rhs = _aggregated_adjoint_rhs(gap, data)
    rhs[system.dirichlet_mask] = 0.0
    return system.solve(rhs)


def nodal_gradient(forward_fields, adjoint_fields, speed, phys, sim_weights):
    """Gradient density of the misfit with respect to the nodal speed.

    grad(x) = -Re( sum_y w_y 2 k^2 c(x)^-3 G(x, y) gamma(x, y) ), the
    product unconjugated and the real part taken at the end.  Zero on the
    pressure-free surface, where the field itself vanishes.

    The sum over y runs in source order, one column at a time: as a
    matrix-vector product OpenBLAS splits it across its threads, and the
    last bits then depend on the thread count.
    """
    wy = np.asarray(sim_weights, dtype=float)
    pair = np.zeros(forward_fields.shape[0], dtype=complex)
    for y in range(wy.size):
        pair += wy[y] * (forward_fields[:, y] * adjoint_fields[:, y])
    c = np.asarray(speed.values, dtype=float)
    grad = -2.0 * phys.k ** 2 * c ** -3 * np.real(pair)
    grad[speed.grid.free_surface_mask()] = 0.0
    return NodalField(speed.grid, grad)


def simulate_traces(system, sim_sources, receivers):
    """Forward solves for every simulation source plus their traces."""
    fields = system.green_many(sim_sources.positions)
    vals, dnu = helmholtz.traces_many(fields, receivers)
    return fields, vals, dnu


def misfit_only(system, sim_sources, data):
    """Misfit value, gap matrix and forward fields: n_sim forward solves,
    no adjoints."""
    fields, vals, dnu = simulate_traces(system, sim_sources, data.receivers)
    gap = reciprocity_gap(vals, dnu, data, sim_sources.weights)
    return misfit(gap), gap, fields


def misfit_and_gradient(system, data, fields, gap):
    """Misfit value and nodal gradient from the forward fields and gap matrix
    that misfit_only returned for this system, weighted by gap.sim_weights.

    Exactly n_sim adjoint solves on the shared factorization, no forward
    solves; accumulations run in fixed source order.
    """
    adj = solve_adjoint_fields(system, gap, data)
    grad = nodal_gradient(fields, adj, system.speed, system.phys, gap.sim_weights)
    return misfit(gap), grad
