"""Machining chatter detection from amplitude-renormalized vibration spectra."""

# before any module that imports numpy, so that BLAS starts on one thread
from . import cpus

cpus.pin_blas_threads()

from .dataset import (
    LabeledDataset,
    Split,
    build_dataset,
    class_distribution,
    load_dataset,
    save_dataset,
    stratified_split,
)
from .errors import ChatterError
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    EvaluationReport,
    RocCurve,
    build_report,
    class_metrics,
    confusion,
    emit_report,
    roc,
)
from .model import (
    ClassifierModel,
    Hyperparameters,
    build_model,
    gradient_check,
    load_model,
    predict_batch,
    save_model,
    save_training_log,
    train,
)
from .signal_io import (
    LabelInterval,
    LabelTrack,
    MachiningClass,
    TimeSignal,
    load_labels,
    load_wav,
    save_labels,
    save_wav,
)
from .spectral import (
    SpectralConfig,
    SpectralFrame,
    export_frame_pgm,
    extract_frames,
    frame_signal,
    magnitude_spectrum,
    renormalize,
)
from .synth import (
    CorpusItem,
    SynthSpec,
    generate,
    generate_corpus,
    harmonic_grid_distance,
    read_corpus,
    write_corpus,
)

__version__ = "0.1.0"
