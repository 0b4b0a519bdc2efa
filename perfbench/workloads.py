"""The benchmark's three workloads.

Each workload is one process with one caller in a closed loop: it sets up
(timed several times, median reported as `setup_s`), warms up, runs its
timed operation until the time is spent, then checks every operation's
output. Inputs derive only from the workload seed.

- train_batch2: build_model + train (3 epochs, published hyperparameters)
  on a scaled-down criterion-4 dataset. Timed work is all in `model`.
- stream_predict: one 0.1 s window at a time through extract_frames and a
  batch-1 predict_batch, over a recording whose segments switch class and
  include a spindle speed the model never saw.
- ingest_eval: synthesis -> corpus on disk -> dataset on disk -> batched
  evaluation of the test split, as the CLI's synth/extract/eval verbs do.

Untraced, a workload reports the end-to-end metrics. Traced, it
alternates plain and traced operations (training steps, chunks of
windows, ingest passes), reports per-layer numbers from the traced ones
and the tracing overhead as traced over plain.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from chatterdetect.dataset import Split
from chatterdetect.model import Hyperparameters
from chatterdetect.signal_io import CLASS_ORDER, TimeSignal
from chatterdetect.synth import SynthSpec, generate, harmonic_grid_distance

from probes import LAYER_NAMES, Probes, StepClock, layer_flops

SETUP_REPEATS = 3
TAIL_WINDOW = 1000
RPMS = (1800, 3000)
AMBIGUOUS_FRACTION = 1.0 / 11.0
TEST_FRACTION = 0.2

TRAIN_PER_CLASS = 60
TRAIN_EPOCHS = 3
TRAIN_MIN_REPS = 2  # the final-weight digest is compared between reps
TRAIN_VAL_ACC_FLOOR = 0.8

# The briefly trained model for stream_predict and ingest_eval. At the
# published learning rate this little training leaves stream accuracy
# swinging between 0.7 and 1.0 from seed to seed; 3e-3 settles it.
SMALL_PER_CLASS = 20
SMALL_EPOCHS = 2
SMALL_LEARNING_RATE = 3e-3

STREAM_SECONDS = 240.0
STREAM_SEGMENT_S = (3.0, 9.0)
STREAM_RPMS = (1800, 2400, 3000)  # 2400 rpm never appears in training
STREAM_WARMUP_FRAMES = 300
STREAM_CHECK_BATCH = 256
STREAM_CHUNK = 500  # windows per chunk; traced runs alternate plain and traced chunks

INGEST_PER_CLASS = 100
INGEST_MIN_PASSES = 3
EVALS_PER_PASS = 5


class Checks:
    """Operations attempted and failed; an operation fails if any of its
    checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, *checks) -> bool:
        """Count one operation; each check is (passed, message)."""
        self.attempted += 1
        bad = [msg for ok, msg in checks if not ok]
        if bad:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(bad)
        return not bad


class Budget:
    """Closed-loop time budget: start another operation while fewer than
    the minimum have run, or while an operation of average length would
    end no more than half its length past the deadline."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.spent, self.ops = 0.0, 0

    def more(self, done: int, minimum: int) -> bool:
        mean = self.spent / self.ops if self.ops else 0.0
        return done < minimum or time.perf_counter() + mean / 2 <= self.end

    def took(self, seconds: float) -> None:
        self.spent += seconds
        self.ops += 1


class Context:
    def __init__(self, seed: int, seconds: float, traced: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.probes = Probes(traced)
        self.api = self.probes.api
        self.checks = Checks()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict = {}
        state = np.random.SeedSequence(seed).generate_state(5)
        self.corpus_seed, self.split_seed, self.model_seed, self.train_seed, self.stream_seed = (
            int(v) for v in state
        )

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def first_op_done(self) -> None:
        """Record peak_rss_mb once set-up and one timed operation have run.

        The process peak keeps creeping up over later repetitions as the
        allocator fragments, by an amount that depends on how many fit in
        the time, and the checks afterwards are the benchmark's own."""
        if "peak_rss_mb" not in self.metrics:
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.metric("peak_rss_mb", kib / 1024.0, "MB")

    def setup(self, fn):
        """Run set-up SETUP_REPEATS times (once when traced); keep the last
        result and report the median wall time as setup_s."""
        times, result = [], None
        for _ in range(1 if self.traced else SETUP_REPEATS):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
        self.metric("setup_s", statistics.median(times), "s")
        self.details["setup_s_all"] = times
        return result

    def per_call(self, name: str, scale: float, per=None, self_time=False):
        """Total time of the spans called `name`, times `scale`, divided by
        `per` (default: the number of calls); 0 if never called."""
        calls, total = self.probes.rec.totals(self_time).get(name, (0, 0.0))
        n = calls if per is None else per
        return total * scale / n if n else 0.0


def _pairs(items):
    return [(it.signal, it.labels, it.ambiguous) for it in items]


def _source_ids(items):
    return [it.item_id for it in items]


def _digest(model) -> str:
    h = hashlib.sha256()
    for _, _, p in model.parameters():
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _percentiles_us(seconds_list):
    """(p50, p90) in microseconds. With at least two windows of
    TAIL_WINDOW operations, p90 is the median over consecutive windows of
    each window's p90: the program's own tail at a roughly constant
    machine speed, rather than the share of the run a noisy host spent
    in a slow spell."""
    x = np.asarray(seconds_list) * 1e6
    p50 = float(np.percentile(x, 50))
    n = x.size // TAIL_WINDOW
    if n < 2:
        return p50, float(np.percentile(x, 90))
    windows = x[: n * TAIL_WINDOW].reshape(n, TAIL_WINDOW)
    return p50, float(np.median(np.percentile(windows, 90, axis=1)))


def _model_counts(ctx: Context, model) -> None:
    ctx.metric("model.params_updated_per_step", model.parameter_count(), "count")
    probe = np.full((1, model.n_inputs), model.input_floor_db, dtype=np.float32)
    probe[0, ::7] = 0.0
    for name, flops in layer_flops(model, probe).items():
        ctx.metric(f"model.{name}.flops_per_frame", flops, "flop")


def _dataset_counts(ctx: Context, ds, dataset_dir: Path) -> None:
    ctx.metric("dataset.frames_kept", int(ds.manifest["n_samples"]), "count")
    ctx.metric("dataset.frames_dropped", int(ds.manifest["dropped_frames"]), "count")
    ctx.metric("dataset.frames_bin_bytes", (dataset_dir / "frames.bin").stat().st_size, "bytes")


def _layer_metrics(ctx: Context, suffix: str, metric: str, per: int) -> float:
    """model.<layer>.<metric> = total of `model.<layer>.<suffix>` spans / per.
    Returns the sum over layers."""
    total = 0.0
    for name in LAYER_NAMES:
        v = ctx.per_call(f"model.{name}.{suffix}", 1e6, per=per)
        ctx.metric(f"model.{name}.{metric}", v, "us")
        total += v
    return total


# --------------------------------------------------------------- train_batch2


def train_batch2(ctx: Context) -> None:
    api, probes, work = ctx.api, ctx.probes, ctx.work

    def setup():
        items = api.generate_corpus(
            TRAIN_PER_CLASS, AMBIGUOUS_FRACTION, RPMS, seed=ctx.corpus_seed
        )
        ds = api.build_dataset(
            _pairs(items), split_seed=ctx.split_seed, test_fraction=TEST_FRACTION,
            source_ids=_source_ids(items),
        )
        api.save_dataset(ds, work / "dataset")
        return api.load_dataset(work / "dataset")

    ds = ctx.setup(setup)
    n_train = len(ds.split_indices(Split.TRAIN))
    hp = Hyperparameters(epochs=TRAIN_EPOCHS, rng_seed=ctx.train_seed)
    api.train(api.build_model(ctx.model_seed), ds, Hyperparameters(epochs=1, rng_seed=0))

    def rep(clock: StepClock, spans=False):
        t0 = time.perf_counter()
        model = api.build_model(ctx.model_seed)
        probes.instrument_model(model, clock, spans)
        api.train(model, ds, hp)
        t1 = time.perf_counter()
        return model, t1 - t0, clock.split(t1)

    def check(model, first_digest):
        log = model.training_log
        digest = _digest(model)
        best = max(s.val_acc for s in log)
        ctx.checks.op(
            (len(log) == TRAIN_EPOCHS, f"{len(log)} epochs logged"),
            (all(math.isfinite(s.train_loss) and math.isfinite(s.val_loss) for s in log),
             "non-finite loss"),
            (best >= TRAIN_VAL_ACC_FLOOR, f"best val accuracy {best:.4f} below floor"),
            (first_digest in (None, digest), "final weights differ between reps"),
        )
        return digest

    budget = Budget(ctx.seconds)
    walls, steps, digest, model = [], [], None, None
    if not ctx.traced:
        while budget.more(len(walls), TRAIN_MIN_REPS):
            model, wall, (step_iv, _) = rep(StepClock())
            budget.took(wall)
            ctx.first_op_done()
            walls.append(wall)
            steps.extend(e - s for s, e, _ in step_iv)
            digest = check(model, digest)
        log = model.training_log
        p50, p90 = _percentiles_us(steps)
        ctx.metric("frames_per_s", statistics.median(TRAIN_EPOCHS * n_train / w for w in walls), "1/s")
        ctx.metric("latency_us_p50", p50, "us")
        ctx.metric("latency_us_p90", p90, "us")
        ctx.metric("accuracy", max(s.val_acc for s in log), "ratio")
        ctx.details.update(train_walls_s=walls, steps=len(steps), digest=digest, n_train=n_train,
                           train_loss_final=log[-1].train_loss)
        return

    # traced: spans on every second step, so the overhead compares steps
    # run under the same conditions
    walls, traced, plain, val_iv = [], [], [], []
    with probes.tracing():
        while budget.more(len(walls), 1):
            model, wall, (s_iv, v_iv) = rep(StepClock(alternate=probes.rec), spans=True)
            budget.took(wall)
            walls.append(wall)
            digest = check(model, digest)
            traced += [e - s for s, e, on in s_iv if on]
            plain += [e - s for s, e, on in s_iv if not on]
            val_iv += v_iv
    fwd = _layer_metrics(ctx, "fwd", "fwd_us", len(traced))
    bwd = _layer_metrics(ctx, "bwd", "bwd_us", len(traced))
    step_us, plain_us = 1e6 * statistics.mean(traced), 1e6 * statistics.mean(plain)
    ctx.metric("model.step_us", step_us, "us")
    ctx.metric("model.step_untraced_us", plain_us, "us")
    ctx.metric("model.step_other_us", step_us - fwd - bwd, "us")
    ctx.metric("model.val_eval_ms", 1e3 * sum(e - s for s, e in val_iv) / len(val_iv), "ms")
    ctx.metric("dataset.split_arrays_ms", ctx.per_call("dataset.split_arrays", 1e3), "ms")
    ctx.metric("trace.overhead_pct", 100.0 * (step_us / plain_us - 1), "%")

    clock = StepClock(alloc=True)
    tracemalloc.start()
    try:
        model = api.build_model(ctx.model_seed)
        probes.instrument_model(model, clock, spans=False)
        api.train(model, ds, Hyperparameters(epochs=1, rng_seed=ctx.train_seed))
    finally:
        tracemalloc.stop()
    ctx.metric("model.step_alloc_bytes", statistics.median(clock.step_peaks), "bytes")
    _model_counts(ctx, model)
    _dataset_counts(ctx, ds, work / "dataset")


# ------------------------------------------------------------- stream_predict


def _small_model(ctx: Context):
    """Train a model briefly and save it as the CLI's train verb would;
    returns the model file's path."""
    api = ctx.api
    items = api.generate_corpus(SMALL_PER_CLASS, 0.0, RPMS, seed=ctx.corpus_seed ^ 0x5EED)
    ds = api.build_dataset(_pairs(items), split_seed=ctx.split_seed, test_fraction=0.0)
    model = api.build_model(ctx.model_seed)
    api.train(model, ds, Hyperparameters(
        epochs=SMALL_EPOCHS, learning_rate=SMALL_LEARNING_RATE, rng_seed=ctx.train_seed))
    path = ctx.work / "model.chmd"
    api.save_model(model, path)
    return path


def _recording(seed: int):
    """Samples and (start, end, class) sample ranges of a recording whose
    segments switch between the three classes and three spindle speeds.
    Segment edges fall anywhere, so some frames straddle two segments."""
    rng = np.random.default_rng(seed)
    rate = 22050
    parts, segments, start = [], [], 0
    while start < STREAM_SECONDS * rate:
        n = int(rng.uniform(*STREAM_SEGMENT_S) * rate)
        cls = CLASS_ORDER[int(rng.integers(3))]
        rpm = STREAM_RPMS[int(rng.integers(3))] * rng.uniform(0.95, 1.05)
        f_tp = 3 * rpm / 60.0
        mode = rng.uniform(600.0, 2200.0)
        while harmonic_grid_distance(mode, f_tp) <= 10.0:
            mode = rng.uniform(600.0, 2200.0)
        spec = SynthSpec(
            signal_class=cls, spindle_rpm=float(rpm), n_teeth=3,
            structural_mode_hz=float(mode), chatter_ratio=rng.uniform(1.5, 4.0),
            noise_sigma=rng.uniform(0.02, 0.12), amplitude_scale=0.05,
            duration_s=n / rate, seed=int(rng.integers(2**32)),
        )
        samples = generate(spec).samples
        parts.append(samples)
        segments.append((start, start + samples.size, cls))
        start += samples.size
    return TimeSignal(np.concatenate(parts), float(rate)), segments


def _frame_classes(segments, n_frames, hop, win):
    """Class index of each frame that lies inside one segment, else -1."""
    out = np.full(n_frames, -1, dtype=np.int64)
    for lo, hi, cls in segments:
        k0 = -(-lo // hop)
        k1 = (hi - win) // hop
        out[k0 : k1 + 1] = int(cls)
    return out


def stream_predict(ctx: Context) -> None:
    api, probes, work = ctx.api, ctx.probes, ctx.work

    def setup():
        model = api.load_model(_small_model(ctx))
        signal, segments = _recording(ctx.stream_seed)
        api.save_wav(signal, work / "recording.wav")
        return model, api.load_wav(work / "recording.wav"), segments

    model, signal, segments = ctx.setup(setup)
    probes.instrument_model(model)
    x, rate = signal.samples, signal.sample_rate_hz
    hop = win = int(round(0.1 * rate))
    n_frames = (x.size - win) // hop + 1
    extract, predict = api.extract_frames, api.predict_batch

    first_lines = [None] * n_frames
    first_probs = np.zeros((n_frames, 3))
    seen = np.zeros(n_frames, dtype=np.int64)
    inline_failed = np.zeros(n_frames, dtype=np.int64)

    def step(k):
        t0 = time.perf_counter()
        frames = extract(TimeSignal(x[k * hop : k * hop + win], rate))
        probs = predict(model, frames[0].lines.reshape(1, -1))
        t1 = time.perf_counter()
        return t1 - t0, frames, probs

    def feed(k, count, lat):
        """Feed `count` windows from window k on, wrapping at the end of
        the recording; appends latencies to `lat` and returns the next k."""
        for _ in range(count):
            dt, frames, probs = step(k)
            lat.append(dt)
            checks = [
                (len(frames) == 1, f"window {k} gave {len(frames)} frames"),
                (abs(float(probs.sum()) - 1.0) < 1e-5, f"frame {k} probabilities sum off 1"),
            ]
            if seen[k]:
                checks.append((np.array_equal(frames[0].lines, first_lines[k]),
                               f"frame {k} differs between passes"))
            else:
                first_lines[k] = frames[0].lines
                first_probs[k] = probs[0]
            seen[k] += 1
            if not ctx.checks.op(*checks):
                inline_failed[k] += 1
            k = (k + 1) % n_frames
        return k

    for k in range(STREAM_WARMUP_FRAMES):
        step(k)

    # a traced run alternates plain and traced chunks
    budget = Budget(ctx.seconds)
    lat, traced_lat, k, chunk = [], [], 0, 0
    while budget.more(chunk, 2) or seen.min() == 0:
        on = ctx.traced and chunk % 2 == 1
        t0 = time.perf_counter()
        with probes.tracing(on):
            k = feed(k, STREAM_CHUNK, traced_lat if on else lat)
        budget.took(time.perf_counter() - t0)
        ctx.first_op_done()
        chunk += 1

    # reference: the whole recording extracted at once, predicted in batches
    reference = api.extract_frames(signal)
    ref_lines = np.stack([f.lines for f in reference])
    ref_probs = np.concatenate([
        api.predict_batch(model, ref_lines[i : i + STREAM_CHECK_BATCH])
        for i in range(0, n_frames, STREAM_CHECK_BATCH)
    ])
    # late checks: an op already counted fails now unless it failed inline
    for k in np.flatnonzero(seen):
        ok = (len(reference) == n_frames and np.array_equal(first_lines[k], ref_lines[k])
              and int(first_probs[k].argmax()) == int(ref_probs[k].argmax()))
        if not ok:
            ctx.checks.failed += int(seen[k] - inline_failed[k])
            if len(ctx.checks.messages) < 20:
                ctx.checks.messages.append(f"frame {k} disagrees with whole-signal reference")

    classes = _frame_classes(segments, n_frames, hop, win)
    inside = classes >= 0
    if not ctx.traced:
        p50, p90 = _percentiles_us(lat)
        ctx.metric("frames_per_s", len(lat) / sum(lat), "1/s")
        ctx.metric("latency_us_p50", p50, "us")
        ctx.metric("latency_us_p90", p90, "us")
        ctx.metric("accuracy", float((ref_probs[inside].argmax(axis=1) == classes[inside]).mean()), "ratio")
        windows = np.asarray(lat[: len(lat) // TAIL_WINDOW * TAIL_WINDOW]) * 1e6
        ctx.details.update(latency_us_p99_windowed=float(np.median(np.percentile(
            windows.reshape(-1, TAIL_WINDOW), 99, axis=1))))
        ctx.details.update(frames_fed=len(lat), n_frames=n_frames,
                           frames_in_one_segment=int(inside.sum()))
        return

    n = len(traced_lat)
    ctx.metric("trace.overhead_pct",
               100.0 * (statistics.median(traced_lat) / statistics.median(lat) - 1), "%")
    _layer_metrics(ctx, "infer", "fwd_us", n)
    ctx.metric("model.predict_batch_us_per_frame",
               ctx.per_call("model.predict_batch", 1e6, per=n), "us")
    _spectral_metrics(ctx)
    _model_counts(ctx, model)


def _spectral_metrics(ctx: Context) -> None:
    frames = ctx.probes.rec.totals().get("spectral.magnitude_spectrum", (0, 0))[0]
    for name in ("extract_frames", "magnitude_spectrum", "renormalize"):
        ctx.metric(f"spectral.{name}_us",
                   ctx.per_call(f"spectral.{name}", 1e6, per=frames), "us")


# --------------------------------------------------------------- ingest_eval


def ingest_eval(ctx: Context) -> None:
    api, probes, work = ctx.api, ctx.probes, ctx.work
    model_path = ctx.setup(lambda: _small_model(ctx))

    def ingest():
        items = api.generate_corpus(
            INGEST_PER_CLASS, AMBIGUOUS_FRACTION, RPMS, seed=ctx.corpus_seed
        )
        api.write_corpus(items, work / "corpus")
        items = api.read_corpus(work / "corpus")
        ds = api.build_dataset(
            _pairs(items), split_seed=ctx.split_seed, test_fraction=TEST_FRACTION,
            source_ids=_source_ids(items),
        )
        api.save_dataset(ds, work / "dataset")
        return ds, api.load_dataset(work / "dataset")

    def evaluate(ds, spans):
        model = api.load_model(model_path)
        probes.instrument_model(model, spans=spans)
        x, y = ds.split_arrays(Split.TEST)
        probs = api.predict_batch(model, x)
        report = api.build_report(probs, y.tolist(), split_id="test", model_id=model_path.name)
        api.emit_report(report, work / "report")
        return report, y

    def one_pass(spans=False):
        """Ingest once, then evaluate EVALS_PER_PASS times. Returns the
        ingest rate (frames/s), the evaluation latencies (s), the last
        report and the test-split size."""
        t0 = time.perf_counter()
        built, ds = ingest()
        rate = len(ds) / (time.perf_counter() - t0)
        ok = ds == built
        latencies = []
        for _ in range(EVALS_PER_PASS):
            t1 = time.perf_counter()
            report, y = evaluate(ds, spans)
            latencies.append(time.perf_counter() - t1)
            ctx.checks.op(
                (ok, "load_dataset(save_dataset(ds)) differs from ds"),
                (report.confusion_matrix.total == len(y), "confusion total != test frames"),
            )
        return rate, latencies, report, len(y)

    budget = Budget(ctx.seconds)
    rates, evals, traced_rates, traced_evals = [], [], [], []
    while budget.more(len(rates) + len(traced_rates), INGEST_MIN_PASSES):
        on = ctx.traced and len(traced_rates) < len(rates)
        t0 = time.perf_counter()
        with probes.tracing(on):
            rate, latencies, report, n_test = one_pass(spans=on)
        budget.took(time.perf_counter() - t0)
        (traced_rates if on else rates).append(rate)
        ctx.first_op_done()
        (traced_evals if on else evals).extend(latencies)

    if not ctx.traced:
        p50, p90 = _percentiles_us(evals)
        ctx.metric("frames_per_s", statistics.median(rates), "1/s")
        ctx.metric("latency_us_p50", p50, "us")
        ctx.metric("latency_us_p90", p90, "us")
        ctx.metric("accuracy", report.metrics.accuracy, "ratio")
        ctx.details.update(passes=len(rates), ingest_frames_per_s_all=rates,
                           eval_s_all=evals, n_test=n_test)
        return

    passes = len(traced_rates)
    plain_s = statistics.median(1 / r for r in rates)
    traced_s = statistics.median(1 / r for r in traced_rates)
    ctx.metric("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1), "%")
    calls = passes * EVALS_PER_PASS
    _layer_metrics(ctx, "infer", "fwd_us", calls)
    ctx.metric("model.predict_batch_us_per_frame",
               ctx.per_call("model.predict_batch", 1e6, per=calls * n_test), "us")
    ctx.metric("model.load_model_ms", ctx.per_call("model.load_model", 1e3), "ms")
    _spectral_metrics(ctx)
    ctx.metric("synth.generate_us", ctx.per_call("synth.generate", 1e6), "us")
    for name in ("synth.write_corpus", "synth.read_corpus", "dataset.save_dataset",
                 "dataset.load_dataset", "dataset.split_arrays",
                 "evaluation.build_report", "evaluation.emit_report"):
        ctx.metric(f"{name}_ms", ctx.per_call(name, 1e3), "ms")
    ctx.metric("dataset.build_dataset_ms",
               ctx.per_call("dataset.build_dataset", 1e3, self_time=True), "ms")
    for name in ("signal_io.save_wav", "signal_io.load_wav"):
        ctx.metric(f"{name}_us", ctx.per_call(name, 1e6), "us")
    ctx.metric("synth.corpus_bytes", _dir_bytes(work / "corpus"), "bytes")
    _dataset_counts(ctx, api.load_dataset(work / "dataset"), work / "dataset")
    _model_counts(ctx, api.load_model(model_path))


WORKLOADS = {
    "train_batch2": train_batch2,
    "stream_predict": stream_predict,
    "ingest_eval": ingest_eval,
}
