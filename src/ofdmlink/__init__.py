"""Baseband MIMO-OFDM link simulator with joint IQ-imbalance and phase-noise compensation."""

from .channel import ChannelRealization, apply_channel, draw_channel, freq_response
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
    FrameConfig,
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
    PhaseNoiseTrace,
    apply_iq_imbalance,
    apply_phase_noise,
    combined_freq_model,
    cpe_of,
    gen_phase_noise,
)
from .numerics import (
    ConfigurationError,
    RandomSource,
    conj_mirror,
    dft,
    idft,
)

__version__ = "0.1.0"
