"""wavescat: Morse-wavelet time-frequency features and classification
for two-channel LFP recordings, with a synthetic cohort generator and a
batch CLI."""

from .coherence import CoherenceMap, SmoothingSpec, coherence, phase_overlay
from .cwt import Scalogram, cwt
from .errors import BundleFormatError, DataError, NumericalError
from .model import (Chamber, Channel, Group, Phase, RecordingSession,
                    TimeSeries, load_session, save_session,
                    segment_by_chamber, stratified_folds)
from .morse import FilterBank, MorseParams, build_filterbank, morse_hat, \
    peak_frequency
from .scattering import ScatteringParams, feature_matrix
from .synth import SynthSpec, generate_cohort, generate_session

__version__ = "0.1.0"

# Read by result records that note the kernel path; there is only one.
NUMBA_ENABLED = False

__all__ = [
    "__version__",
    "BundleFormatError", "DataError", "NumericalError",
    "Chamber", "Channel", "Group", "Phase", "RecordingSession", "TimeSeries",
    "load_session", "save_session", "segment_by_chamber", "stratified_folds",
    "FilterBank", "MorseParams", "build_filterbank", "morse_hat",
    "peak_frequency",
    "Scalogram", "cwt",
    "CoherenceMap", "SmoothingSpec", "coherence", "phase_overlay",
    "ScatteringParams", "feature_matrix",
    "SynthSpec", "generate_cohort", "generate_session",
]
