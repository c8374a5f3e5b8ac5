"""OFDM SAR simulator and joint imaging/communication waveform design."""

from .allocation import (
    ChannelGains,
    PowerAllocation,
    TruncationPolicy,
    achievable_rate,
    emse_of_alloc,
    emse_rate_constrained,
    tradeoff_sweep,
    water_filling,
)
from .azimuth import SarImage, azimuth_compress, azimuth_reference, form_image, rcmc_bulk
from .echo import RawDataCube, draw_noise, synthesize_pulse, synthesize_raw
from .geometry import (
    SPEED_OF_LIGHT,
    Geometry,
    Scene,
    load_scene,
    save_scene,
    slant_range,
)
from .metrics import mse_vs_snr, sidelobe_stats
from .rangeproc import ls_estimate, range_profile_cube
from .waveform import WaveformSpec, draw_symbols

__version__ = "0.1.0"
