"""Acquisition geometry, synthetic Cauchy data, noise injection, and IO.

Receivers sit on one horizontal node layer; each carries a trapezoid
surface-quadrature weight over the receiver lattice.  Observation data are
a pair of complex matrices per frequency: the pressure trace and its normal
derivative for every (source, receiver) combination, as recorded by dual
sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import helmholtz
from .errors import DataFormatError, GeometryError
from .geometry import Grid, read_only
from .helmholtz import assemble
from .textio import TextLines, write_text_atomic


def _trapezoid_weights(coords):
    """Trapezoid weights of a sorted 1D lattice; exact for constants."""
    x = np.asarray(coords, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two lattice points per axis")
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    if x.size > 2:
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


@dataclass(frozen=True, eq=False)
class ReceiverArray:
    """Dual-sensor receivers on a horizontal node layer.

    Attributes:
        grid: grid the node indices refer to
        depth_index: node layer of the surface (0 < depth_index < nz-1)
        lateral_indices: (n, dim-1) lateral node indices per receiver
        weights: surface quadrature weight per receiver, m^(dim-1)
        value_nodes: flat node index of each receiver, set at construction
        above_nodes, below_nodes: the nodes one layer above and below it

    The normal of the surface points from the unknown region up toward the
    sources.
    """

    grid: Grid
    depth_index: int
    lateral_indices: np.ndarray
    weights: np.ndarray
    value_nodes: np.ndarray = field(init=False, repr=False)
    above_nodes: np.ndarray = field(init=False, repr=False)
    below_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lat = read_only(np.atleast_2d(self.lateral_indices), np.int64)
        if lat.shape[1] != self.grid.dim - 1:
            raise GeometryError("need dim-1 lateral indices per receiver")
        w = read_only(np.ravel(self.weights), float)
        if w.size != lat.shape[0]:
            raise GeometryError("one weight per receiver required")
        if (w <= 0).any():
            raise GeometryError("receiver weights must be positive")
        if not 0 < self.depth_index < self.grid.shape[-1] - 1:
            raise GeometryError(
                "receiver layer must be strictly inside the domain"
            )
        for d in range(self.grid.dim - 1):
            if lat[:, d].min() < 0 or lat[:, d].max() >= self.grid.shape[d]:
                raise GeometryError("receiver lateral index outside the grid")
        object.__setattr__(self, "lateral_indices", lat)
        object.__setattr__(self, "weights", w)
        for name, layer in (("value_nodes", self.depth_index),
                            ("above_nodes", self.depth_index - 1),
                            ("below_nodes", self.depth_index + 1)):
            multi = (*lat.T, np.full(lat.shape[0], layer, dtype=np.int64))
            nodes = np.ravel_multi_index(multi, self.grid.shape)
            object.__setattr__(self, name, read_only(nodes))

    @property
    def n_receivers(self):
        return self.lateral_indices.shape[0]

    @property
    def depth_m(self):
        return self.depth_index * self.grid.spacing[-1]

    @property
    def positions(self):
        lat = self.lateral_indices * np.array(self.grid.spacing[:-1])
        depth = np.full((self.n_receivers, 1), self.depth_m)
        return np.hstack([lat, depth])

    def on_grid(self, other):
        """The same physical receivers indexed on a node-compatible grid."""
        ratios = [hs / ho for hs, ho in zip(self.grid.spacing, other.spacing)]
        for r in ratios:
            if abs(r - round(r)) > 1e-9 or round(r) < 1:
                raise GeometryError(
                    "target grid is not a refinement of the receiver grid"
                )
        if other.extent != self.grid.extent:
            raise GeometryError("grids cover different extents")
        f_lat = [int(round(r)) for r in ratios[:-1]]
        f_z = int(round(ratios[-1]))
        lat = self.lateral_indices * np.array(f_lat, dtype=np.int64)
        return ReceiverArray(other, self.depth_index * f_z, lat, self.weights)


def receiver_layer(grid, depth_m, count=0, margin_m=0.0):
    """Receivers on the node layer nearest depth_m.

    count = 0 places one receiver on every lateral node; otherwise count
    nodes per lateral axis are spread evenly between the margins.  Weights
    are trapezoid over the resulting lattice.
    """
    hz = grid.spacing[-1]
    layer = int(round(depth_m / hz))
    if abs(layer * hz - depth_m) > 1e-6 * hz:
        raise GeometryError(
            f"receiver depth {depth_m} m is not on a node layer (hz = {hz} m)"
        )
    axes = []
    for d in range(grid.dim - 1):
        h = grid.spacing[d]
        if count == 0:
            idx = np.arange(grid.shape[d])
        else:
            if count < 2:
                raise GeometryError("need at least 2 receivers per axis")
            lo = int(math.ceil(margin_m / h - 1e-9))
            hi = int(math.floor((grid.extent[d] - margin_m) / h + 1e-9))
            if hi - lo + 1 < count:
                raise GeometryError("too many receivers for the available nodes")
            idx = np.unique(np.round(np.linspace(lo, hi, count)).astype(np.int64))
        axes.append(idx)
    mesh = np.meshgrid(*axes, indexing="ij")
    lat = np.column_stack([m.ravel() for m in mesh])
    w = np.ones(lat.shape[0])
    for d, idx in enumerate(axes):
        axis_w = _trapezoid_weights(idx * grid.spacing[d])
        w *= axis_w[np.searchsorted(idx, lat[:, d])]
    return ReceiverArray(grid, layer, lat, w)


@dataclass(frozen=True, eq=False)
class SourceSet:
    """Ordered impulse positions with uniform midpoint quadrature weights.

    Observation and simulation sources are both SourceSets; they differ
    only in how the misfit uses them.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = read_only(np.atleast_2d(self.positions), float)
        w = read_only(np.ravel(self.weights), float)
        if w.size != pos.shape[0]:
            raise GeometryError("one weight per source required")
        if (w <= 0).any():
            raise GeometryError("source weights must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def n_sources(self):
        return self.positions.shape[0]


def source_lattice(grid, depth_m, count, margin_m=0.0, depth_span_m=0.0, n_layers=1):
    """Evenly spaced sources at depth_m (planar) or over a depth span.

    count sources per lateral axis sit between the lateral margins; with
    n_layers > 1 the set becomes volumetric over [depth_m, depth_m +
    depth_span_m].  Weights are the uniform midpoint cell measures of the
    source region: m^(dim-1) for planar sets, m^dim for volumetric ones.
    """
    if count < 1:
        raise GeometryError("need at least one source per axis")
    lat_axes = []
    cell = 1.0
    for d in range(grid.dim - 1):
        span = grid.extent[d] - 2 * margin_m
        if span <= 0:
            raise GeometryError("source margins leave no room")
        # midpoint lattice: count cells of width span/count
        centers = margin_m + (np.arange(count) + 0.5) * span / count
        if centers.min() < 0 or centers.max() > grid.extent[d]:
            raise GeometryError(
                f"source margin {margin_m} m puts sources outside [0, {grid.extent[d]}] m"
            )
        lat_axes.append(centers)
        cell *= span / count
    if n_layers < 1:
        raise GeometryError("need at least one source layer")
    if n_layers == 1:
        depths = np.array([depth_m])
    else:
        if depth_span_m <= 0:
            raise GeometryError("volumetric source set needs a positive depth span")
        depths = depth_m + (np.arange(n_layers) + 0.5) * depth_span_m / n_layers
        cell *= depth_span_m / n_layers
    if depths.min() <= 0 or depths.max() >= grid.extent[-1]:
        raise GeometryError("sources must sit strictly inside the domain, off the surface")
    mesh = np.meshgrid(*lat_axes, depths, indexing="ij")
    pos = np.column_stack([m.ravel() for m in mesh])
    return SourceSet(pos, np.full(pos.shape[0], cell))


def validate_geometry(sources, receivers):
    """Sources must sit at least two layers above the receiver surface, and
    no two of them may snap to the same node of the receivers' grid."""
    n_nodes = np.unique(receivers.grid.nearest_nodes(sources.positions)).size
    if n_nodes < sources.n_sources:
        raise GeometryError(f"{sources.n_sources} sources snap to only {n_nodes} "
                            f"distinct nodes of the {receivers.grid.shape} grid")
    hz = receivers.grid.spacing[-1]
    sigma_depth = receivers.depth_index * hz
    gap = sigma_depth - sources.positions[:, -1].max()
    if gap < 2 * hz - 1e-9:
        raise GeometryError(
            f"sources must sit at least {2 * hz} m above the receiver layer, "
            f"closest approach is {gap} m"
        )


@dataclass(frozen=True)
class Provenance:
    """How a data set was made: synthesis grid, noise seed, target SNR."""

    grid_shape: tuple
    grid_extent: tuple
    snr_db: float
    seed: int


@dataclass(frozen=True, eq=False)
class CauchyDataSet:
    """Per-source pressure and normal-derivative traces on the receivers."""

    receivers: ReceiverArray
    obs_sources: SourceSet
    g: np.ndarray
    dg: np.ndarray
    freq_hz: float
    provenance: Provenance

    def __post_init__(self):
        shape = (self.obs_sources.n_sources, self.receivers.n_receivers)
        g = read_only(self.g, complex)
        dg = read_only(self.dg, complex)
        if g.shape != shape or dg.shape != shape:
            raise GeometryError(
                f"trace matrices must have shape {shape}, got {g.shape} and {dg.shape}"
            )
        if not (np.isfinite(g).all() and np.isfinite(dg).all()):
            raise ValueError("traces contain non-finite values")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "dg", dg)

    @property
    def n_sources(self):
        return self.obs_sources.n_sources

    @property
    def n_receivers(self):
        return self.receivers.n_receivers


def synthesize(true_field, obs_sources, receivers, phys):
    """Solve the true model once per observation source and record traces.

    true_field may live on a refinement of the receiver grid; receiver
    positions must coincide with its nodes.  The sources are solved in
    blocks against one factorization, and only the traces of each block
    are kept.  A block holds FORWARD_BLOCK sources times the ratio of the
    receiver grid's node count to true_field's, at least one, so its field
    takes no more memory than a FORWARD_BLOCK solve on the inversion grid:
    2 sources on the default h/2 grid, FORWARD_BLOCK with no refinement.
    The traces are those of one solve over every source wherever solves
    of differing width agree (README.md, "Reproducibility and BLAS
    threads").
    """
    fine = true_field.grid
    rec_fine = receivers.on_grid(fine)
    validate_geometry(obs_sources, rec_fine)
    system = assemble(fine, true_field, phys)
    positions = obs_sources.positions
    step = max(1, helmholtz.FORWARD_BLOCK * receivers.grid.n_nodes // fine.n_nodes)
    blocks = [helmholtz.traces_many(system.green_many(positions[i:i + step]), rec_fine)
              for i in range(0, len(positions), step)]
    g, dg = (np.concatenate(parts) for parts in zip(*blocks))
    prov = Provenance(fine.shape, fine.extent, math.inf, 0)
    return CauchyDataSet(receivers, obs_sources, g, dg, phys.freq_hz, prov)


def noise_factor(snr_db):
    """Noise power per unit signal power, f = 10^(-snr/10), of an SNR in dB;
    None for +inf (clean data).  nan, -inf and an f that overflows raise ValueError."""
    if snr_db == math.inf:
        return None
    if not math.isfinite(snr_db):
        raise ValueError(f"SNR must be finite or +inf dB, got {snr_db}")
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR of {snr_db} dB gives a noise factor that overflows") from None


def add_noise(data, snr_db, seed):
    """Add circular complex Gaussian noise at a target SNR in dB.

    Noise is drawn independently for every source, receiver, and component;
    the per-trace variance is the trace's mean power scaled by
    noise_factor(snr_db), and a +inf SNR adds none.  Deterministic per seed,
    which must be a non-negative integer at every SNR.
    """
    if seed < 0:
        raise ValueError(f"noise seed {seed} is negative")
    factor = noise_factor(snr_db)
    prov = replace(data.provenance, snr_db=float(snr_db), seed=int(seed))
    if factor is None:
        return replace(data, provenance=prov)
    rng = np.random.default_rng(seed)
    g = np.array(data.g)
    dg = np.array(data.dg)
    for mat, name in ((g, "pressure"), (dg, "derivative")):
        for s in range(mat.shape[0]):
            power = np.mean(np.abs(mat[s]) ** 2)
            if power == 0:
                raise GeometryError(
                    f"{name} trace of source {s} is identically zero"
                )
            sigma = math.sqrt(power * factor / 2.0)
            noise = sigma * (
                rng.standard_normal(mat.shape[1])
                + 1j * rng.standard_normal(mat.shape[1])
            )
            mat[s] += noise
    return CauchyDataSet(data.receivers, data.obs_sources, g, dg, data.freq_hz, prov)


def noise_variances(data):
    """Per-source noise variances E|n|^2 of the pressure and the derivative
    traces, estimated from the traces themselves, or None at infinite SNR.

    add_noise gives a trace of clean mean power P the variance f P, with
    f = noise_factor(snr), so its noisy mean power is (1 + f) P on average
    and the variance is P_noisy f / (1 + f).
    """
    factor = noise_factor(data.provenance.snr_db)
    if factor is None:
        return None
    scale = factor / (1.0 + factor)
    return (scale * np.mean(np.abs(data.g) ** 2, axis=1),
            scale * np.mean(np.abs(data.dg) ** 2, axis=1))


def write_data(data, path):
    """Text format: header lines, one row per observation source and per
    receiver ('source x,[ y,] z, weight'), then one CSV row per (source,
    receiver) pair."""
    lines = [
        "cauchy v2",
        f"freq {data.freq_hz:.17g}",
        f"nsrc {data.n_sources}",
        f"nrcv {data.n_receivers}",
        f"snr {data.provenance.snr_db:.17g}",
        f"seed {data.provenance.seed}",
        "grid " + " ".join(
            [str(len(data.provenance.grid_shape))]
            + [str(n) for n in data.provenance.grid_shape]
            + [f"{e:.17g}" for e in data.provenance.grid_extent]
        ),
    ]
    for name, points in (("source", data.obs_sources), ("receiver", data.receivers)):
        for pos, w in zip(points.positions, points.weights):
            lines.append(f"{name} " + ", ".join(f"{v:.17g}" for v in (*pos, w)))
    for s in range(data.n_sources):
        for r in range(data.n_receivers):
            gv, dv = data.g[s, r], data.dg[s, r]
            lines.append(
                f"{s}, {r}, {gv.real:.17g}, {gv.imag:.17g}, "
                f"{dv.real:.17g}, {dv.imag:.17g}"
            )
    write_text_atomic(path, "\n".join(lines) + "\n")


def check_frequency(freq_hz, expect_hz, what, byte_offset=None):
    """DataFormatError unless freq_hz matches expect_hz to a relative 1e-9."""
    if abs(freq_hz - expect_hz) > 1e-9 * max(1.0, expect_hz):
        raise DataFormatError(f"{what} frequency {freq_hz} Hz does not match expected "
                              f"{expect_hz} Hz", byte_offset)


def read_data(path, receivers, obs_sources, expect_freq):
    """Read a data file recorded with exactly these receivers and sources at
    expect_freq Hz.

    Raises DataFormatError naming the byte offset of the first problem, and
    GeometryError naming the file when its sources or receivers differ from
    the given ones or its synthesis grid does not refine the receiver grid.
    The frequency must match expect_freq, the SNR be one noise_factor takes,
    the seed be a non-negative integer, and the trace rows come in the
    source-major order write_data writes.
    """
    lines = TextLines(path)

    def grid_provenance(text):
        gdim, *toks = text.split()
        gdim = int(gdim)
        if len(toks) != 2 * gdim:
            raise ValueError
        return Grid([float(t) for t in toks[gdim:]], [int(t) for t in toks[:gdim]])

    def frequency(text):
        if not 0 < float(text) < math.inf:
            raise ValueError
        return float(text)

    def snr_db(text):
        noise_factor(float(text))  # raises ValueError where noise_factor does
        return float(text)

    def noise_seed(text):
        if int(text) < 0:
            raise ValueError
        return int(text)

    def point_row(text):
        row = [float(t) for t in text.split(",")]
        if len(row) != receivers.grid.dim + 1:
            raise ValueError
        return row

    version = lines.take(0, "cauchy")
    if version != "v2":
        raise lines.error(0, f"unsupported version {version!r}")
    freq = lines.take(1, "freq", frequency)
    check_frequency(freq, expect_freq, f"{path}: file", lines.offsets[1])
    nsrc = lines.take(2, "nsrc", int)
    nrcv = lines.take(3, "nrcv", int)
    snr = lines.take(4, "snr", snr_db)
    seed = lines.take(5, "seed", noise_seed)
    fine = lines.take(6, "grid", grid_provenance)

    if nsrc != obs_sources.n_sources:
        raise GeometryError(
            f"{path}: {nsrc} sources in file, geometry has {obs_sources.n_sources}"
        )
    if nrcv != receivers.n_receivers:
        raise GeometryError(
            f"{path}: {nrcv} receivers in file, geometry has {receivers.n_receivers}"
        )
    row = 7
    for name, points in (("source", obs_sources), ("receiver", receivers)):
        expected = np.column_stack([points.positions, points.weights])
        recorded = [lines.take(row + i, name, point_row) for i in range(len(expected))]
        row += len(expected)
        if not np.array_equal(recorded, expected):
            raise GeometryError(
                f"{path}: {name} positions or weights differ from the configured ones"
            )
    try:
        receivers.on_grid(fine)
    except GeometryError as exc:
        raise GeometryError(f"{path}: synthesis grid {fine.shape} over {fine.extent} m: "
                            f"{exc}") from None

    g = np.zeros((nsrc, nrcv), dtype=complex)
    dg = np.zeros((nsrc, nrcv), dtype=complex)
    n_rows = nsrc * nrcv
    if len(lines) - row != n_rows:
        raise lines.error(row + n_rows,
                          f"expected {n_rows} trace rows, found {len(lines) - row}")
    for k, ln in enumerate(lines[row:]):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 6:
            raise lines.error(row + k, f"malformed trace row {ln!r}")
        try:
            s, r = int(parts[0]), int(parts[1])
            nums = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise lines.error(row + k, str(exc)) from exc
        if not all(map(math.isfinite, nums)):
            raise lines.error(row + k, f"non-finite trace value in row {ln!r}")
        if (s, r) != divmod(k, nrcv):
            raise lines.error(row + k, f"trace row ({s}, {r}) where "
                                       f"{divmod(k, nrcv)} belongs")
        g[s, r] = complex(nums[0], nums[1])
        dg[s, r] = complex(nums[2], nums[3])
    prov = Provenance(fine.shape, fine.extent, snr, seed)
    return CauchyDataSet(receivers, obs_sources, g, dg, freq, prov)
