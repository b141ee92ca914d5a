import numpy as np
import pytest

from cauchyfwi.geometry import Grid, build_partition

# The criterion-1 configuration: 41 x 21 grid, 2 sources, 12 free
# coefficients, clean data synthesized on the inversion grid.
GRADCHECK_CONFIG = """
[grid]
dim = 2
extent_x_m = 200
extent_z_m = 100
nodes_x = 41
nodes_z = 21

[physics]
freq_hz = 25
water_speed_m_per_s = 1500
c_min_m_per_s = 1400
c_max_m_per_s = 3400

[partition]
tile_x_m = 100
tile_z_m = 60
water_depth_m = 20

[acquisition]
receiver_depth_m = 20
obs_source_depth_m = 5
obs_source_count = 2
source_margin_m = 30

[noise]
snr_db = inf

[synthesis]
refine = 1

[phantom]
background_surface_m_per_s = 1650
background_gradient_per_s = 3.0
inclusion_speed_m_per_s = 2100
inclusion_center_x_m = 100
inclusion_center_z_m = 60
inclusion_radius_m = 30
initial_top_speed_m_per_s = 1600
initial_bottom_speed_m_per_s = 1900
"""


@pytest.fixture
def grid2d():
    # 200 m x 100 m at 10 m spacing
    return Grid((200.0, 100.0), (21, 11))


@pytest.fixture
def grid3d():
    return Grid((60.0, 40.0, 50.0), (7, 5, 6))


@pytest.fixture
def partition2d(grid2d):
    # 70 m caps with a 20 m water layer
    return build_partition(grid2d, (70.0, 70.0), water_depth=20.0)


def brute_force_tiling(extent, n_nodes, cap):
    """Independent recomputation of the per-axis tile layout, cell by cell."""
    h = extent / (n_nodes - 1)
    n_tiles = int(np.ceil(extent / cap - 1e-12))
    width = int(np.floor(cap / h + 1e-12))
    cell_tile = []
    for cell in range(n_nodes - 1):
        t = min(cell // width, n_tiles - 1)
        cell_tile.append(t)
    return cell_tile
