"""Flat key = value run configuration with sections, and object builders.

Every physical quantity carries its unit in the key name.  Unknown keys are
rejected, and validation reports every failure at once so a bad file can be
fixed in one pass.  The synth and invert commands archive the resolved
configuration; the archived text reproduces the run bit-exactly under the
same seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .geometry import Grid, build_partition
from .helmholtz import PhysicsConfig, points_per_wavelength
from .acquisition import receiver_layer, source_lattice, validate_geometry
from .inversion import OptimConfig
from .phantom import INCLUSION_PROFILES, layered_inclusion_phantom, initial_depth_model
from .textio import write_text_atomic

# (section, key) -> (type, default); None default means required (2D) or
# conditional on dim = 3 for *_y_m keys.  The optimizer keys are the
# OptimConfig fields, in their order and with their defaults.
_SCHEMA = {
    ("grid", "dim"): (int, 2),
    ("grid", "extent_x_m"): (float, None),
    ("grid", "extent_y_m"): (float, 0.0),
    ("grid", "extent_z_m"): (float, None),
    ("grid", "nodes_x"): (int, None),
    ("grid", "nodes_y"): (int, 0),
    ("grid", "nodes_z"): (int, None),
    ("physics", "freq_hz"): (float, None),
    ("physics", "water_speed_m_per_s"): (float, 1500.0),
    ("physics", "c_min_m_per_s"): (float, None),
    ("physics", "c_max_m_per_s"): (float, None),
    ("partition", "tile_x_m"): (float, None),
    ("partition", "tile_y_m"): (float, 0.0),
    ("partition", "tile_z_m"): (float, None),
    ("partition", "water_depth_m"): (float, 0.0),
    ("acquisition", "receiver_depth_m"): (float, None),
    ("acquisition", "receiver_count"): (int, 0),
    ("acquisition", "receiver_margin_m"): (float, 0.0),
    ("acquisition", "obs_source_depth_m"): (float, None),
    ("acquisition", "obs_source_count"): (int, None),
    ("acquisition", "obs_source_layers"): (int, 1),
    ("acquisition", "obs_source_depth_span_m"): (float, 0.0),
    ("acquisition", "sim_source_depth_m"): (float, -1.0),
    ("acquisition", "sim_source_count"): (int, 0),
    ("acquisition", "source_margin_m"): (float, 0.0),
    ("noise", "snr_db"): (float, math.inf),
    ("noise", "seed"): (int, 0),
    ("synthesis", "refine"): (int, 2),
    **{("optimizer", f.name): (type(f.default), f.default) for f in fields(OptimConfig)},
    ("phantom", "background_surface_m_per_s"): (float, 1600.0),
    ("phantom", "background_gradient_per_s"): (float, 2.0),
    ("phantom", "inclusion_speed_m_per_s"): (float, 2900.0),
    ("phantom", "inclusion_center_x_m"): (float, 0.0),
    ("phantom", "inclusion_center_y_m"): (float, 0.0),
    ("phantom", "inclusion_center_z_m"): (float, 0.0),
    ("phantom", "inclusion_radius_m"): (float, 0.0),
    ("phantom", "inclusion_profile"): (str, "gaussian"),
    ("phantom", "initial_top_speed_m_per_s"): (float, 1600.0),
    ("phantom", "initial_bottom_speed_m_per_s"): (float, 2200.0),
}

_SECTIONS = []
for sec, _ in _SCHEMA:
    if sec not in _SECTIONS:
        _SECTIONS.append(sec)


@dataclass
class RunConfig:
    """Resolved configuration: one attribute per schema key."""

    values: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name) from None


def _coerce(text, typ, where):
    text = text.strip()
    try:
        if typ is int:
            return int(text)
        if typ is float:
            if text.lower() in ("inf", "+inf", "infinity"):
                return math.inf
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as {typ.__name__} for {where}")


def parse_config(text):
    """Parse sectioned key = value text into a RunConfig.

    Raises ConfigError listing every unknown key and every missing required
    key in one message.
    """
    values = {}
    problems = []
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            problems.append(f"line {lineno}: key outside any known section")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if (section, key) not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {section}.{key}")
            continue
        if (section, key) in seen:
            problems.append(f"line {lineno}: duplicate key {section}.{key}")
            continue
        seen.add((section, key))
        typ, _ = _SCHEMA[(section, key)]
        try:
            values[key] = _coerce(val, typ, f"{section}.{key}")
        except ConfigError as exc:
            problems.append(str(exc))

    for (section, key), (typ, default) in _SCHEMA.items():
        if key in values:
            continue
        if default is None:
            problems.append(f"missing required key {section}.{key}")
        else:
            values[key] = default
    if problems:
        raise ConfigError("configuration rejected", problems)
    cfg = RunConfig(values)
    validate(cfg)
    return cfg


def validate(cfg):
    """Cross-field checks; raises ConfigError listing every failure."""
    problems = []
    if cfg.dim not in (2, 3):
        problems.append(f"grid.dim must be 2 or 3, got {cfg.dim}")
    if cfg.dim == 3:
        if cfg.extent_y_m <= 0:
            problems.append("grid.extent_y_m required for a 3D grid")
        if cfg.nodes_y < 2:
            problems.append("grid.nodes_y required for a 3D grid")
        if cfg.tile_y_m <= 0:
            problems.append("partition.tile_y_m required for a 3D grid")
    if not 0 < cfg.c_min_m_per_s < cfg.c_max_m_per_s:
        problems.append("physics speeds need 0 < c_min < c_max")
    if math.isnan(cfg.snr_db) or cfg.snr_db == -math.inf:
        problems.append(f"noise.snr_db must be a number or inf, got {cfg.snr_db}")
    if cfg.inclusion_profile not in INCLUSION_PROFILES:
        problems.append(
            f"phantom.inclusion_profile must be one of {', '.join(INCLUSION_PROFILES)}, "
            f"got {cfg.inclusion_profile!r}"
        )
    if not cfg.inclusion_radius_m > 0:
        problems.append(
            f"phantom.inclusion_radius_m must be > 0, got {cfg.inclusion_radius_m}"
        )
    built = {}
    for section, build in (("optimizer", build_optimizer), ("grid", build_grid),
                           ("physics", build_physics)):
        try:
            built[section] = build(cfg)
        except ValueError as exc:
            problems.append(f"{section}: {exc}")
    if problems:
        raise ConfigError("configuration rejected", problems)

    grid, phys = built["grid"], built["physics"]
    ppw = points_per_wavelength(grid, phys, cfg.c_min_m_per_s)
    if ppw < 4.0:
        problems.append(
            f"only {ppw:.2f} grid points per shortest wavelength; need at least 4 "
            "(raise the node counts or lower the frequency)"
        )
    hz = grid.spacing[-1]
    if cfg.receiver_depth_m <= 0 or cfg.receiver_depth_m >= cfg.extent_z_m:
        problems.append("receiver layer must be strictly inside the domain")
    src_bottom = cfg.obs_source_depth_m + (
        cfg.obs_source_depth_span_m if cfg.obs_source_layers > 1 else 0.0
    )
    if cfg.obs_source_depth_m <= 0:
        problems.append("sources must sit below the free surface")
    if src_bottom > cfg.receiver_depth_m - 2 * hz + 1e-9:
        problems.append(
            "observation sources must sit at least two node layers above the receivers"
        )
    sim_depth = cfg.sim_source_depth_m if cfg.sim_source_depth_m > 0 else cfg.obs_source_depth_m
    if sim_depth > cfg.receiver_depth_m - 2 * hz + 1e-9:
        problems.append(
            "simulation sources must sit at least two node layers above the receivers"
        )
    if cfg.water_depth_m < cfg.receiver_depth_m:
        problems.append("the receiver layer must lie inside the known water layer")
    if cfg.refine < 1:
        problems.append("synthesis.refine must be >= 1")
    if problems:
        raise ConfigError("configuration rejected", problems)


def render_config(cfg):
    """Serialize back to sectioned text; parse(render(c)) == c."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for (sec, key), (typ, _) in _SCHEMA.items():
            if sec != section:
                continue
            val = cfg.values[key]
            if typ is float:
                text = "inf" if math.isinf(val) else f"{val:.17g}"
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def build_grid(cfg, refine=1):
    if cfg.dim == 2:
        extent = (cfg.extent_x_m, cfg.extent_z_m)
        shape = (cfg.nodes_x, cfg.nodes_z)
    else:
        extent = (cfg.extent_x_m, cfg.extent_y_m, cfg.extent_z_m)
        shape = (cfg.nodes_x, cfg.nodes_y, cfg.nodes_z)
    return Grid(extent, shape).refine(refine)


def build_physics(cfg):
    return PhysicsConfig(cfg.freq_hz, cfg.water_speed_m_per_s)


def build_partition_for(cfg, grid):
    if cfg.dim == 2:
        caps = (cfg.tile_x_m, cfg.tile_z_m)
    else:
        caps = (cfg.tile_x_m, cfg.tile_y_m, cfg.tile_z_m)
    return build_partition(grid, caps, cfg.water_depth_m)


def build_receivers(cfg, grid):
    return receiver_layer(grid, cfg.receiver_depth_m, cfg.receiver_count,
                          cfg.receiver_margin_m)


def build_obs_sources(cfg, grid):
    return source_lattice(
        grid, cfg.obs_source_depth_m, cfg.obs_source_count,
        margin_m=cfg.source_margin_m,
        depth_span_m=cfg.obs_source_depth_span_m, n_layers=cfg.obs_source_layers,
    )


def build_sim_sources(cfg, grid, decoupled=False):
    """Simulation sources: the observation set, or a decoupled one.

    With decoupled=True the count and depth come from the sim_source keys,
    letting the computational sources differ from the field acquisition.
    """
    if not decoupled:
        return build_obs_sources(cfg, grid)
    count = cfg.sim_source_count if cfg.sim_source_count > 0 else cfg.obs_source_count
    depth = cfg.sim_source_depth_m if cfg.sim_source_depth_m > 0 else cfg.obs_source_depth_m
    return source_lattice(grid, depth, count, margin_m=cfg.source_margin_m)


def build_optimizer(cfg):
    return OptimConfig(**{f.name: getattr(cfg, f.name) for f in fields(OptimConfig)})


def build_true_field(cfg, grid):
    if cfg.dim == 2:
        center = (cfg.inclusion_center_x_m, cfg.inclusion_center_z_m)
    else:
        center = (cfg.inclusion_center_x_m, cfg.inclusion_center_y_m,
                  cfg.inclusion_center_z_m)
    return layered_inclusion_phantom(
        grid, cfg.water_depth_m, cfg.water_speed_m_per_s,
        cfg.background_surface_m_per_s, cfg.background_gradient_per_s,
        center, cfg.inclusion_radius_m, cfg.inclusion_speed_m_per_s,
        profile=cfg.inclusion_profile,
    )


def build_initial_model(cfg, partition):
    return initial_depth_model(
        partition, cfg.water_depth_m, cfg.water_speed_m_per_s,
        cfg.initial_top_speed_m_per_s, cfg.initial_bottom_speed_m_per_s,
        cfg.c_min_m_per_s, cfg.c_max_m_per_s,
    )


def check_acquisition(cfg, grid):
    receivers = build_receivers(cfg, grid)
    obs = build_obs_sources(cfg, grid)
    validate_geometry(obs, receivers, grid)
    return receivers, obs


DEFAULT_CONFIG = """\
# Desk-scale dual-sensor acquisition over a layered background with one
# fast inclusion.  Units are part of every key name.
#
# Observation sources fill a small volume between the free surface and the
# receiver layer; simulation sources for the decoupled experiment form a
# smaller, deeper planar set (5/8 of the observation count, twice the
# nominal depth).  The single operating frequency keeps the domain a few
# wavelengths across, and the depth-only starting ramp is close enough in
# travel time to sit inside the basin of attraction.

[grid]
dim = 2
extent_x_m = 600
extent_z_m = 300
nodes_x = 81
nodes_z = 41

[physics]
freq_hz = 12.5
water_speed_m_per_s = 1500
c_min_m_per_s = 1400
c_max_m_per_s = 3400

[partition]
tile_x_m = 150
tile_z_m = 128
water_depth_m = 45

[acquisition]
receiver_depth_m = 30
receiver_count = 0
obs_source_depth_m = 7.5
obs_source_count = 16
obs_source_layers = 2
obs_source_depth_span_m = 7.5
sim_source_depth_m = 15
sim_source_count = 20
source_margin_m = 30

[noise]
snr_db = 15
seed = 1234

[synthesis]
refine = 2

[optimizer]
n_iter_min = 50
n_iter_max = 175
n_eps = 10
eps_j = 0.01

[phantom]
background_surface_m_per_s = 1600
background_gradient_per_s = 2.4
inclusion_speed_m_per_s = 2500
inclusion_center_x_m = 300
inclusion_center_z_m = 170
inclusion_radius_m = 90
inclusion_profile = gaussian
initial_top_speed_m_per_s = 1520
initial_bottom_speed_m_per_s = 2050
"""


def default_config():
    return parse_config(DEFAULT_CONFIG)


def write_starter_config(path, force=False):
    """Write DEFAULT_CONFIG to path; an existing file is kept unless force."""
    if os.path.exists(path) and not force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")
    write_text_atomic(path, DEFAULT_CONFIG)
