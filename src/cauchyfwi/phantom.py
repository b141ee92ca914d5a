"""Procedural desk-scale wave-speed phantoms and depth-only starting models."""

from __future__ import annotations

import numpy as np

from .geometry import NodalField, fit_coefficients

# Inclusion weight in [0, 1] as a function of distance r and radius.
INCLUSION_PROFILES = {
    "gaussian": lambda r, radius: np.exp(-((r / radius) ** 2) * 2.0),
    "box": lambda r, radius: (r <= radius).astype(float),
}


def layered_inclusion_phantom(grid, water_depth_m, water_speed,
                              surface_speed, gradient_per_s,
                              inclusion_center, inclusion_radius_m,
                              inclusion_speed, profile="gaussian"):
    """Smooth depth-graded background with one fast inclusion.

    Below the water bottom the background is surface_speed +
    gradient_per_s * (depth - water_depth); the inclusion blends toward
    inclusion_speed with one of INCLUSION_PROFILES at the given radius.
    The water layer itself is constant water_speed.
    """
    depth = grid.node_positions()[:, -1]
    vals = np.full(grid.n_nodes, float(water_speed))
    below = depth > water_depth_m
    background = surface_speed + gradient_per_s * (depth - water_depth_m)
    vals[below] = background[below]
    blend = inclusion_weight(grid, water_depth_m, inclusion_center, inclusion_radius_m,
                             profile)
    vals = vals + blend * (inclusion_speed - vals)
    return NodalField(grid, vals)


def inclusion_weight(grid, water_depth_m, inclusion_center, inclusion_radius_m, profile):
    """Per-node weight of the inclusion in layered_inclusion_phantom: the
    profile's weight below the water bottom, 0 in the water."""
    pos = grid.node_positions()
    r = np.linalg.norm(pos - np.asarray(inclusion_center, dtype=float), axis=1)
    if profile not in INCLUSION_PROFILES:
        raise ValueError(f"unknown inclusion profile {profile!r}")
    return INCLUSION_PROFILES[profile](r, inclusion_radius_m) * (pos[:, -1] > water_depth_m)


def initial_depth_model(partition, water_depth_m, water_speed,
                        top_speed, bottom_speed, c_min, c_max):
    """Depth-only starting model projected onto the partition subspace.

    The speed is water_speed down to water_depth_m, then a linear ramp from
    top_speed to bottom_speed at the bottom of the grid.
    """
    grid = partition.grid
    depth = grid.node_positions()[:, -1]
    vals = np.full(grid.n_nodes, float(water_speed))
    below = depth > water_depth_m
    span = grid.extent[-1] - water_depth_m
    ramp = top_speed + (bottom_speed - top_speed) * (depth - water_depth_m) / span
    vals[below] = ramp[below]
    return fit_coefficients(NodalField(grid, vals), partition, c_min, c_max,
                            water_speed=water_speed)
