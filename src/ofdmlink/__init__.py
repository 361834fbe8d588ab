"""Baseband MIMO-OFDM link simulator with joint IQ-imbalance and phase-noise compensation."""

from .channel import ChannelRealization, apply_channel, draw_channel
from .equalization import EqualizerOptions, equalize_frame
from .estimation import (
    EstimationError,
    EstimatorState,
    estimate_iq_params,
    estimate_noise_ici_corr,
    estimate_preamble,
    interpolate_channel,
    iterative_refine,
)
from .framing import (
    PreambleSet,
    SubcarrierMap,
    assemble_frame,
    build_preamble,
    build_short_symbol,
    build_subcarrier_map,
    qam16_demap,
    qam16_map,
)
from .harness import (
    CampaignResult,
    ScenarioConfig,
    compute_mse_ce,
    compute_mse_k1,
    emit_csv,
    emit_plots,
    run_campaign,
    run_point,
)
from .impairments import (
    IqParams,
    apply_iq_imbalance,
    apply_phase_noise,
    cpe_of,
    wiener_phase,
)
from .numerics import (
    ConfigurationError,
    RandomSource,
    dft,
    idft,
)

__version__ = "0.1.0"
