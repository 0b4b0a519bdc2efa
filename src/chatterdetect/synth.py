"""Synthetic machining-vibration generator.

Serves as the desk-scale ground truth for the pipeline: the three
machining phases are synthesized with controlled spectral structure, so
class membership is verifiable by construction.

Signal model (all at 22050 Hz):

* rotation without machining: the first three spindle-frequency
  harmonics at low level, amplitudes 0.05/h;
* machining without chatter: six tooth-passing harmonics, amplitudes 1/h;
* chatter: the machining content plus a dominant tone near the structural
  mode, deliberately kept at least 5 Hz away from every tooth-passing
  harmonic, with two sidebands at tone +- f_tp at 30 % of the tone.

An ambiguity factor in [0, 1) blends the dominant class content with its
confusable neighbour; the label stays with the dominant class. Gaussian
noise is added before the whole signal is multiplied by amplitude_scale
(which the downstream renormalization erases again).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import cpus, defaults
from .errors import ChatterError, InfeasibleSpec, IoFailure, make_dir, read_text, write_lines
from .signal_io import (
    CLASS_ORDER,
    MAX_WAV_SAMPLES,
    LabelInterval,
    LabelTrack,
    MachiningClass,
    TimeSignal,
    class_from_token,
    load_labels,
    load_wav,
    save_labels,
    save_wav,
)

SYNTH_SAMPLE_RATE_HZ = defaults.SAMPLE_RATE_HZ

ROTATION_LEVEL = 0.05  # spindle-harmonic amplitude relative to machining content
SIDEBAND_RATIO = 0.3
CHATTER_TONE_JITTER_HZ = 3.0
MIN_TONE_GRID_DISTANCE_HZ = 5.0

# corpus-level placement: tooth-passing fundamentals low in the band,
# structural modes high, so combs and chatter tones coexist under 2500 Hz
MODE_RANGE_HZ = (600.0, 2200.0)
AMPLITUDE_SCALE_RANGE = (0.02, 0.1)
AMBIGUITY_RANGE = (0.1, 0.35)
# desk-scale realism: the assumed spindle speed is unreliable, so each
# signal's true speed wanders around its nominal setting, and noise and
# chatter prominence vary from signal to signal
RPM_JITTER = 0.08
NOISE_SIGMA_RANGE = (0.02, 0.12)
CHATTER_RATIO_RANGE = (1.5, 4.0)
N_TEETH = 3  # every corpus signal is milled with a three-tooth cutter

MANIFEST_NAME = "corpus.json"

# generate's tracemalloc peak per sample, output included: six float64
# arrays at most (the time axis, blend parts, sine and blend temporaries)
_SYNTH_SCRATCH_PER_SAMPLE = 48


def sample_count(duration_s: float) -> int:
    """Samples in a synthesized signal of duration_s seconds.

    Raises ValueError unless that rounds to 1 to MAX_WAV_SAMPLES."""
    x = duration_s * SYNTH_SAMPLE_RATE_HZ
    # exactly 1 <= round(x) <= MAX_WAV_SAMPLES (odd, so its + 0.5 rounds up),
    # and false for NaN
    if not 0.5 < x < MAX_WAV_SAMPLES + 0.5:
        raise ValueError(
            f"duration_s {duration_s:g} rounds to no sample or to more than "
            f"{MAX_WAV_SAMPLES} at {SYNTH_SAMPLE_RATE_HZ:g} Hz"
        )
    return round(x)


@dataclass(frozen=True)
class SynthSpec:
    """Complete recipe for one synthetic signal; identical specs give
    identical samples."""

    signal_class: MachiningClass
    spindle_rpm: float
    n_teeth: int
    structural_mode_hz: float
    chatter_ratio: float = 3.0
    noise_sigma: float = 0.02
    amplitude_scale: float = 1.0
    duration_s: float = 1.0
    seed: int = 0
    ambiguity: float = 0.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name in ("amplitude_scale", "duration_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        sample_count(self.duration_s)
        for name in ("chatter_ratio", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0 <= self.ambiguity < 1:
            raise ValueError("ambiguity must lie in [0, 1)")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")
        if not defaults.F_MIN_HZ < self.f_tooth_pass_hz < defaults.F_MAX_HZ:
            raise InfeasibleSpec(
                f"tooth-passing frequency {self.f_tooth_pass_hz:g} Hz is outside the "
                f"({defaults.F_MIN_HZ:g}, {defaults.F_MAX_HZ:g}) Hz analysis band"
            )
        if not 0 < self.structural_mode_hz < defaults.F_MAX_HZ:
            raise InfeasibleSpec(
                f"structural mode {self.structural_mode_hz:g} Hz is outside the band"
            )

    @property
    def f_spindle_hz(self) -> float:
        return self.spindle_rpm / 60.0

    @property
    def f_tooth_pass_hz(self) -> float:
        return self.n_teeth * self.spindle_rpm / 60.0


def _integer(value) -> int:
    """An integer or its decimal text; unlike int(), refuses a bool or a
    fraction instead of truncating it."""
    return int(str(value))


# a corpus manifest stores these fields of a spec after its class
_SPEC_VALUES = [f.name for f in fields(SynthSpec) if f.name != "signal_class"]
_SPEC_TYPES = {
    name: _integer if kind is int else kind
    for name, kind in get_type_hints(SynthSpec).items()
}


def harmonic_grid_distance(frequency_hz: float, f_tp_hz: float) -> float:
    """Distance from `frequency_hz` to the nearest positive multiple of f_tp."""
    if f_tp_hz <= 0:
        raise ValueError("f_tp_hz must be positive")
    k = max(1, round(frequency_hz / f_tp_hz))
    return min(abs(frequency_hz - kk * f_tp_hz) for kk in (k - 1, k, k + 1) if kk >= 1)


def _harmonic_sum(t, f0, amplitudes, phases):
    out = np.zeros_like(t)
    for h, (a, phi) in enumerate(zip(amplitudes, phases), start=1):
        out += a * np.sin(2 * math.pi * h * f0 * t + phi)
    return out


def _pick_chatter_tone(rng, spec: SynthSpec) -> float:
    f_tp = spec.f_tooth_pass_hz
    for _ in range(100):
        f_c = spec.structural_mode_hz + rng.uniform(
            -CHATTER_TONE_JITTER_HZ, CHATTER_TONE_JITTER_HZ
        )
        if (
            harmonic_grid_distance(f_c, f_tp) > MIN_TONE_GRID_DISTANCE_HZ
            and 0 < f_c < defaults.F_MAX_HZ
        ):
            return f_c
    raise InfeasibleSpec(
        f"no chatter tone within +-{CHATTER_TONE_JITTER_HZ:g} Hz of "
        f"{spec.structural_mode_hz:g} Hz clears the {f_tp:g} Hz harmonic grid"
    )


def generate(spec: SynthSpec) -> TimeSignal:
    """Synthesize one signal. Deterministic given the spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    n = sample_count(spec.duration_s)
    t = np.arange(n) / SYNTH_SAMPLE_RATE_HZ

    rot_phases = rng.uniform(0, 2 * math.pi, 3)
    mach_phases = rng.uniform(0, 2 * math.pi, 6)
    tone_phases = rng.uniform(0, 2 * math.pi, 3)  # tone, lower/upper sideband

    cls, lam = spec.signal_class, spec.ambiguity
    needs_chatter = cls is MachiningClass.CHATTER or (
        cls is MachiningClass.MACHINING_NO_CHATTER and lam > 0
    )

    # each blend part is built only where its weight is non-zero: an
    # unambiguous rotation signal reads no machining content
    if cls is not MachiningClass.ROTATION_NO_MACHINING or lam > 0:
        machining = _harmonic_sum(
            t, spec.f_tooth_pass_hz, [1.0 / h for h in range(1, 7)], mach_phases
        )

    chatter = None
    if needs_chatter:
        f_c = _pick_chatter_tone(rng, spec)
        tone_amp = spec.chatter_ratio  # relative to the machining fundamental
        chatter = machining + tone_amp * np.sin(2 * math.pi * f_c * t + tone_phases[0])
        for sign, phi in ((-1, tone_phases[1]), (+1, tone_phases[2])):
            f_sb = f_c + sign * spec.f_tooth_pass_hz
            chatter += SIDEBAND_RATIO * tone_amp * np.sin(2 * math.pi * f_sb * t + phi)

    # at lam == 0 the content is the dominant part itself, which the full
    # blend equals but for the sign of an exactly-zero sample
    if cls is MachiningClass.CHATTER:
        content = chatter if lam == 0 else (1 - lam) * chatter + lam * machining
    elif cls is MachiningClass.MACHINING_NO_CHATTER:
        content = machining if lam == 0 else (1 - lam) * machining + lam * chatter
    else:
        rotation = _harmonic_sum(
            t, spec.f_spindle_hz, [ROTATION_LEVEL / h for h in range(1, 4)], rot_phases
        )
        # blend partner scaled down to the rotation content's own level, so
        # the dominant class stays dominant after renormalization
        content = (
            rotation if lam == 0
            else (1 - lam) * rotation + lam * ROTATION_LEVEL * machining
        )

    if spec.noise_sigma > 0:
        content = content + spec.noise_sigma * rng.standard_normal(n)

    return TimeSignal(content * spec.amplitude_scale, float(SYNTH_SAMPLE_RATE_HZ))


@dataclass(frozen=True)
class CorpusItem:
    item_id: str
    signal: TimeSignal
    labels: LabelTrack
    ambiguous: bool
    spec: SynthSpec | None = None


def _per_signal_entropy(seed: int, index: int):
    state = np.random.SeedSequence([seed, index]).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def generate_corpus(
    n_per_class: int,
    ambiguous_fraction: float,
    rpm_choices,
    seed: int,
    duration_s: float = 1.0,
    chatter_ratio: float | None = None,
    noise_sigma: float | None = None,
) -> list[CorpusItem]:
    """Balanced corpus: n_per_class signals per class, of which
    round(n_per_class * ambiguous_fraction) are ambiguous blends.

    Spindle speeds cycle through rpm_choices so every speed appears, each
    jittered a little around its nominal value (real spindles are never
    exactly on the nameplate speed). Per-signal parameters (structural
    mode, noise level, chatter strength, amplitude, ambiguity, phases)
    are drawn from seeds mixed with the signal index, making the corpus
    both deterministic and order-independent. Passing chatter_ratio or
    noise_sigma pins that value for every signal instead of drawing it.

    Every spec is drawn first, in index order, so the draws and any
    InfeasibleSpec come as from one loop. The signals are then
    synthesized by `cpus.deal`, on as many CPUs as keep their
    temporaries within its scratch budget: long signals run one at a
    time. The corpus is the same, bit for bit, on any number of CPUs.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if not 0 <= ambiguous_fraction <= 1:
        raise ValueError("ambiguous_fraction must lie in [0, 1]")
    rpm_list = sorted(rpm_choices)
    if not rpm_list:
        raise ValueError("rpm_choices must be non-empty")

    n_ambiguous = round(n_per_class * ambiguous_fraction)
    specs = []
    index = 0
    for cls in CLASS_ORDER:
        for j in range(n_per_class):
            sig_seed, param_seed = _per_signal_entropy(seed, index)
            rng = np.random.default_rng(param_seed)
            rpm = rpm_list[index % len(rpm_list)] * rng.uniform(
                1 - RPM_JITTER, 1 + RPM_JITTER
            )
            f_tp = N_TEETH * rpm / 60.0
            # keep the mode far enough off the harmonic grid that the
            # +-3 Hz tone jitter always clears the 5 Hz exclusion with
            # margin to spare for the spectral grid resolution
            for _ in range(200):
                mode = rng.uniform(*MODE_RANGE_HZ)
                if harmonic_grid_distance(mode, f_tp) > 10.0:
                    break
            else:
                raise InfeasibleSpec(f"no feasible structural mode for f_tp {f_tp:g} Hz")
            scale = math.exp(rng.uniform(*np.log(AMPLITUDE_SCALE_RANGE)))
            sigma = rng.uniform(*NOISE_SIGMA_RANGE) if noise_sigma is None else noise_sigma
            ratio = rng.uniform(*CHATTER_RATIO_RANGE) if chatter_ratio is None else chatter_ratio
            lam = rng.uniform(*AMBIGUITY_RANGE) if j < n_ambiguous else 0.0

            spec = SynthSpec(
                signal_class=cls,
                spindle_rpm=float(rpm),
                n_teeth=N_TEETH,
                structural_mode_hz=mode,
                chatter_ratio=ratio,
                noise_sigma=sigma,
                amplitude_scale=scale,
                duration_s=duration_s,
                seed=sig_seed,
                ambiguity=lam,
            )
            specs.append(spec)
            index += 1

    signals = [None] * len(specs)

    def synthesize(i):
        signals[i] = generate(specs[i])

    n = sample_count(duration_s)
    cpus.deal(synthesize, range(len(specs)), _SYNTH_SCRATCH_PER_SAMPLE * n)
    end_s = n / SYNTH_SAMPLE_RATE_HZ  # the whole signal; duration_s only rounds to n samples
    return [
        CorpusItem(
            item_id=f"{spec.signal_class.token}-{i:04d}",
            signal=signal,
            labels=LabelTrack((LabelInterval(0.0, end_s, spec.signal_class),)),
            ambiguous=spec.ambiguity > 0,
            spec=spec,
        )
        for i, (spec, signal) in enumerate(zip(specs, signals))
    ]


def spec_to_dict(spec: SynthSpec) -> dict:
    """The class token under "class", then the other fields in declaration order."""
    return {"class": spec.signal_class.token} | {n: getattr(spec, n) for n in _SPEC_VALUES}


def spec_from_dict(d: dict) -> SynthSpec:
    """Inverse of `spec_to_dict`; each value is converted by its field's type."""
    values = {n: _SPEC_TYPES[n](d[n]) for n in _SPEC_VALUES}
    return SynthSpec(class_from_token(str(d["class"])), **values)


def write_corpus(items: list[CorpusItem], out_dir) -> None:
    """Emit WAV + label CSV per signal plus a manifest with every SynthSpec."""
    out = make_dir(out_dir)
    records = []
    for item in items:
        wav_name = f"{item.item_id}.wav"
        labels_name = f"{item.item_id}.labels.csv"
        save_wav(item.signal, out / wav_name)
        save_labels(item.labels, out / labels_name)
        records.append(
            {
                "id": item.item_id,
                "wav": wav_name,
                "labels": labels_name,
                "ambiguous": item.ambiguous,
                "spec": spec_to_dict(item.spec) if item.spec else None,
            }
        )
    manifest = {"format": "chatterdetect-corpus", "version": 1, "signals": records}
    write_lines(out / MANIFEST_NAME, [json.dumps(manifest, indent=2)])


def read_corpus(in_dir) -> list[CorpusItem]:
    """Load a corpus directory.

    With a manifest the recorded ambiguity flags and specs are restored;
    without one, every `x.wav` is paired with `x.labels.csv` and treated
    as unambiguous.
    """
    src = Path(in_dir)
    manifest_path = src / MANIFEST_NAME
    if manifest_path.exists():
        text = read_text(manifest_path, IoFailure)
        try:
            manifest = json.loads(text)
            records = [
                (
                    str(rec["id"]),
                    src / rec["wav"],
                    src / rec["labels"],
                    rec["ambiguous"],
                    spec_from_dict(rec["spec"]) if rec.get("spec") else None,
                )
                for rec in manifest["signals"]
            ]
            if not all(isinstance(ambiguous, bool) for _, _, _, ambiguous, _ in records):
                raise TypeError("ambiguous must be a JSON boolean")  # bool("false") is True
        # the wrong shape or a flag that is not a boolean (TypeError), a
        # missing key, or a spec value that its field's type or SynthSpec rejects
        except (ValueError, KeyError, TypeError, ChatterError) as exc:
            raise IoFailure(f"cannot read {manifest_path}: {exc!r}") from exc
        return [
            CorpusItem(item_id, load_wav(wav), load_labels(labels), ambiguous, spec)
            for item_id, wav, labels, ambiguous, spec in records
        ]

    wavs = sorted(src.glob("*.wav"))
    if not wavs:
        raise IoFailure(f"no corpus manifest and no WAV files in {src}")
    items = []
    for wav in wavs:
        labels_path = wav.with_name(wav.stem + ".labels.csv")
        if not labels_path.exists():
            raise IoFailure(f"missing label file for {wav.name}")
        items.append(
            CorpusItem(
                item_id=wav.stem,
                signal=load_wav(wav),
                labels=load_labels(labels_path),
                ambiguous=False,
            )
        )
    return items
