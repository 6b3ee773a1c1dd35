"""Experiment protocols: splits, metrics, ablations, fleet runs, synthesis.

Training never sees the test region: input scaling is fitted on the
training region only, denoising is applied per region, and windows do not
straddle the split boundary.  Headline metrics are means over a seed list.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import yaml

from . import hiselect, ssa
from .hiselect import HISeries
from .ingest import SOHSeries
from .neuralnet import (
    DualBiGRUSpec,
    SequenceBatch,
    TrainingConfig,
    load_model,
    make_windows,
    predict,
    save_model,
    train,
)
from .seeding import derive_rng

DEFAULT_WINDOW_LENGTH = 5
VALIDATION_TAIL_FRACTION = 0.2


@dataclass(frozen=True)
class SplitSpec:
    """Prediction starting point, as a fraction of the series or an index."""

    mode: str  # "fraction" | "index"
    start_fraction: float | None = None
    start_index: int | None = None

    def __post_init__(self) -> None:
        if self.mode == "fraction":
            if self.start_fraction is None or not 0.0 < self.start_fraction < 1.0:
                raise ValueError("fraction mode needs start_fraction in (0, 1)")
        elif self.mode == "index":
            if self.start_index is None or self.start_index < 1:
                raise ValueError("index mode needs start_index >= 1")
        else:
            raise ValueError(f"mode must be 'fraction' or 'index', got {self.mode!r}")

    @classmethod
    def fraction(cls, value: float) -> "SplitSpec":
        return cls(mode="fraction", start_fraction=value)

    @classmethod
    def index(cls, value: int) -> "SplitSpec":
        return cls(mode="index", start_index=value)

    def boundary(self, n: int) -> int:
        k = (
            int(round(self.start_fraction * n))
            if self.mode == "fraction"
            else int(self.start_index)
        )
        if k < 1 or k >= n:
            raise ValueError(f"split leaves an empty region: boundary {k} of {n}")
        return k

    def label(self) -> str:
        if self.mode == "fraction":
            return f"{self.start_fraction:g}"
        return f"m{self.start_index}"


@dataclass(frozen=True)
class Region:
    """One side of a split: aligned indicator and SOH values plus the offset."""

    hi: np.ndarray
    soh: np.ndarray
    offset: int


def split_series(
    hi: HISeries, soh: SOHSeries, split: SplitSpec
) -> tuple[Region, Region]:
    """Cut aligned series at the prediction starting point."""
    if len(hi) != soh.values.size:
        raise ValueError("indicator and SOH series must be aligned")
    n = len(hi)
    k = split.boundary(n)
    return (
        Region(hi.values[:k], soh.values[:k], 0),
        Region(hi.values[k:], soh.values[k:], k),
    )


def evaluate_metrics(
    true: np.ndarray, predicted: np.ndarray
) -> tuple[float, float, float | None]:
    """RMSE, MAE and MAPE (percent); MAPE is None when a true value is zero."""
    true = np.asarray(true, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if true.shape != predicted.shape or true.size == 0:
        raise ValueError("series must be equal-length and non-empty")
    err = true - predicted
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    mape = (
        float(np.mean(np.abs(err / true)) * 100.0) if np.all(true != 0.0) else None
    )
    return rmse, mae, mape


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one prediction experiment."""

    split: SplitSpec
    network: DualBiGRUSpec | str  # a spec, trained with ``training``, or "ssa-tuned"
    training: TrainingConfig | None = None
    denoise: bool = True
    denoise_rank: float | int = 2  # model-input conditioning; ramps need rank 2
    scale_band: float = 0.25
    seeds: tuple[int, ...] = (0, 1, 2)
    window_length: int = DEFAULT_WINDOW_LENGTH
    ssa: ssa.SSAConfig | None = None
    search_space: ssa.SearchSpace | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.network == "ssa-tuned":
            if self.ssa is None:
                raise ValueError("'ssa-tuned' requires an SSAConfig attachment")
        elif not isinstance(self.network, DualBiGRUSpec):
            raise ValueError(f"network must be a spec or 'ssa-tuned', got {self.network!r}")
        elif self.training is None:
            raise ValueError("a network spec needs a TrainingConfig")
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")

    def resolved_window(self) -> int:
        if isinstance(self.network, DualBiGRUSpec):
            return self.network.window_length
        return self.window_length


# The ExperimentConfig fields a fingerprint hashes.  jobs is left out: it is a
# run setting and never changes a result.  A field added to ExperimentConfig
# moves no fingerprint until it is named here.
FINGERPRINT_FIELDS = (
    "split", "network", "training", "denoise", "denoise_rank", "scale_band",
    "seeds", "window_length", "ssa", "search_space",
)
# Fields no longer held, hashed with the one value every run had, so the
# fingerprints of unchanged hyperparameters stay what earlier versions wrote.
RETIRED_FINGERPRINT_FIELDS = {"hi_choice": "auto"}


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable short hash of the hyperparameters (weights excluded)."""

    def describe(obj):
        if isinstance(obj, DualBiGRUSpec):
            return {
                "window_length": obj.window_length,
                "gru_units": list(obj.gru_units),
                "dropout_rates": list(obj.dropout_rates),
            }
        if isinstance(obj, (TrainingConfig, SplitSpec, ssa.SSAConfig)):
            return {k: describe(v) for k, v in vars(obj).items()}
        if isinstance(obj, ssa.SearchSpace):
            return [[d.lower, d.upper, d.kind] for d in obj.dims]
        if isinstance(obj, (tuple, list)):
            return [describe(v) for v in obj]
        return obj

    payload = {name: describe(getattr(config, name)) for name in FINGERPRINT_FIELDS}
    payload.update(RETIRED_FINGERPRINT_FIELDS)
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PredictionReport:
    """Point-wise truth vs prediction with summary errors."""

    fingerprint: str
    indices: np.ndarray
    true_soh: np.ndarray
    predicted_soh: np.ndarray
    rmse: float
    mae: float
    mape: float | None
    per_seed_rmse: list[float]  # each network's own RMSE, in seed-list order

    def __post_init__(self) -> None:
        if self.rmse + 1e-12 < self.mae or self.mae < 0.0:
            raise ValueError("metric inconsistency: need rmse >= mae >= 0")


@dataclass(frozen=True)
class AnchoredScale:
    """Affine map anchoring the fitted range to the top of the unit band.

    Fitted (training-region) values map to [1 - band, 1].  Degradation
    continues below the fitted range by construction, so anchoring at the
    top leaves (1 - band)/band times the training span of headroom before
    scaled values leave the network's well-conditioned region.  Both model
    inputs and regression targets go through such a map, which keeps the
    learned input-output relation near unit gain.
    """

    top: float
    span: float
    band: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.top):
            raise ValueError(f"top = {self.top} is not finite")
        if not (math.isfinite(self.span) and self.span > 0.0):
            raise ValueError(f"span = {self.span} is not finite and positive")
        if not 0.0 < self.band <= 1.0:
            raise ValueError(f"band = {self.band} outside (0, 1]")

    @classmethod
    def fit(cls, train_values: np.ndarray, band: float) -> "AnchoredScale":
        top = float(train_values.max())
        span = top - float(train_values.min())
        return cls(top=top, span=span if span > 0.0 else 1.0, band=band)

    def forward(self, values: np.ndarray) -> np.ndarray:
        return 1.0 + (values - self.top) * (self.band / self.span)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return (np.asarray(scaled) - 1.0) * (self.span / self.band) + self.top


def _resolve_network(
    config: ExperimentConfig, train_inputs: np.ndarray, train_targets: np.ndarray
) -> tuple[DualBiGRUSpec, TrainingConfig, list[ssa.IterationRecord]]:
    """Pick hyperparameters: the given spec and training, or one search on the first seed."""
    seed = config.seeds[0]
    if config.network != "ssa-tuned":
        return config.network, replace(config.training, seed=seed), []

    # hyperparameter search on the training region only: candidates train on
    # the leading part and are scored on the last fifth of the region
    space = config.search_space or ssa.encode_hyperparameters()
    w = config.window_length
    n_train = train_targets.size  # number of windows
    n_val = max(1, int(round(VALIDATION_TAIL_FRACTION * n_train)))
    if n_train - n_val < 1:
        raise ValueError(
            f"training region too small to hold out a validation tail "
            f"({n_train} windows)"
        )
    fit_inputs, fit_targets = train_inputs[: n_train - n_val], train_targets[: n_train - n_val]
    val_inputs, val_targets = train_inputs[n_train - n_val :], train_targets[n_train - n_val :]
    fitness_seed = int(derive_rng(seed, "fitness-seed").integers(0, 2**63 - 1))

    def fitness(position: np.ndarray) -> float:
        cand_spec, cand_training = ssa.decode(
            position, space, window_length=w, seed=fitness_seed
        )
        batch = SequenceBatch(
            inputs=fit_inputs,
            targets=fit_targets,
            indices=np.arange(fit_targets.size),
        )
        fitted, _ = train(cand_spec, cand_training, batch)
        rmse, _, _ = evaluate_metrics(val_targets, predict(fitted, val_inputs))
        return rmse

    ssa_config = replace(config.ssa, seed=int(derive_rng(seed, "ssa-seed").integers(0, 2**31 - 1)))
    best_position, _, history = ssa.optimize(space, ssa_config, fitness, jobs=config.jobs)
    spec, training = ssa.decode(best_position, space, window_length=w, seed=seed)
    return spec, training, history


def _condition(
    values: np.ndarray, input_scale: AnchoredScale, rank: float | int | None
) -> np.ndarray:
    """Scale, then Hankel-SVD denoise the whole series unless ``rank`` is None."""
    scaled = input_scale.forward(values)
    if rank is not None and scaled.size >= 4:
        series = HISeries(name="MF", values=scaled)  # name is irrelevant here
        scaled = hiselect.hankel_svd_denoise(series, rank=rank).values
    return scaled


@dataclass(frozen=True)
class Predictor:
    """The networks of a seed list together with the conditioning they were trained under.

    Conditioning is the input scale followed, unless ``denoise_rank`` is
    None, by Hankel-SVD denoising of the scaled series.  Every seed's
    network is trained under the same conditioning, so a region is
    conditioned once for all of them.  Every prediction (evaluation, fleet
    runs and the ``predict`` command) goes through :meth:`report`, so a
    saved one-seed predictor reproduces the numbers reported next to it.
    """

    models: tuple[DualBiGRUSpec, ...]  # one per seed, in seed-list order
    input_scale: AnchoredScale
    target_scale: AnchoredScale
    denoise_rank: float | int | None

    def __post_init__(self) -> None:
        rank = self.denoise_rank
        if rank is not None and (isinstance(rank, bool) or not isinstance(rank, numbers.Real)):
            raise ValueError(f"denoise_rank must be a number or None, got {rank!r}")

    def report(
        self, fingerprint: str, values: np.ndarray, soh: np.ndarray, offset: int = 0
    ) -> PredictionReport:
        """Condition one region as a whole, predict every window with each network, score them.

        The prediction is the networks' mean; the metrics are the means of
        each network's own metrics.
        """
        inputs = _condition(values, self.input_scale, self.denoise_rank)
        batch = make_windows(inputs, soh, self.models[0].window_length, offset)
        preds = [self.target_scale.inverse(predict(m, batch.inputs)) for m in self.models]
        if not np.all(np.isfinite(preds)):
            raise ValueError(
                f"non-finite predictions (indices {batch.indices[0]}-{batch.indices[-1]})"
            )
        rmses, maes, mapes = zip(*(evaluate_metrics(batch.targets, p) for p in preds))
        return PredictionReport(
            fingerprint=fingerprint,
            indices=batch.indices,
            true_soh=batch.targets,
            predicted_soh=np.mean(preds, axis=0),
            rmse=float(np.mean(rmses)),
            mae=float(np.mean(maes)),
            mape=None if None in mapes else float(np.mean(mapes)),
            per_seed_rmse=list(rmses),
        )

    def save(self, out_dir: Path | str) -> None:
        """Write the first seed's network to ``model.bin``, and ``scaler.yaml``, into ``out_dir``."""
        out_dir = Path(out_dir)
        save_model(self.models[0], out_dir / "model.bin")
        payload = {
            "input_scale": asdict(self.input_scale),
            "target_scale": asdict(self.target_scale),
            "denoise_rank": self.denoise_rank,
        }
        (out_dir / "scaler.yaml").write_text(yaml.safe_dump(payload, sort_keys=True))

    @classmethod
    def load(cls, model: Path | str, scaler: Path | str) -> "Predictor":
        """Read what :meth:`save` wrote, one network; ``ValueError`` naming the file if malformed."""
        spec = load_model(model)
        try:
            payload = yaml.safe_load(Path(scaler).read_text())
            scales = [
                AnchoredScale(**{k: float(v) for k, v in payload[key].items()})
                for key in ("input_scale", "target_scale")
            ]
            return cls((spec,), *scales, denoise_rank=payload["denoise_rank"])
        except KeyError as exc:
            raise ValueError(f"{scaler}: malformed scaler file (missing {exc})") from None
        except (yaml.YAMLError, AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{scaler}: malformed scaler file ({exc})") from None


def fit_predictor(
    config: ExperimentConfig, values: np.ndarray, soh: np.ndarray, offset: int = 0
) -> tuple[Predictor, TrainingConfig, list[ssa.IterationRecord]]:
    """Fit a training region's scales and network once, then train the network for every seed.

    No seed changes the conditioning or the search, so each seed differs
    only in its initial weights, dropout masks and batch order.
    """
    input_scale = AnchoredScale.fit(values, config.scale_band)
    rank = config.denoise_rank if config.denoise else None
    batch = make_windows(
        _condition(values, input_scale, rank), soh, config.resolved_window(), offset
    )
    target_scale = AnchoredScale.fit(batch.targets, config.scale_band)
    batch = replace(batch, targets=target_scale.forward(batch.targets))
    spec, training, history = _resolve_network(config, batch.inputs, batch.targets)
    models = tuple(train(spec, replace(training, seed=s), batch)[0] for s in config.seeds)
    return Predictor(models, input_scale, target_scale, rank), training, history


class ExperimentResult(NamedTuple):
    """One experiment over the seed list: the seed-mean report and what produced it."""

    report: PredictionReport
    predictor: Predictor
    training: TrainingConfig
    search_history: list[ssa.IterationRecord]


def train_and_predict(config: ExperimentConfig, hi: HISeries, soh: SOHSeries) -> ExperimentResult:
    """Train on the leading region for every seed, predict the rest; metrics averaged over seeds."""
    w = config.resolved_window()
    train_region, test_region = split_series(hi, soh, config.split)
    for name, region in (("training", train_region), ("test", test_region)):
        if region.hi.size < w:
            raise ValueError(f"{name} region ({region.hi.size}) shorter than window ({w})")
    predictor, training, history = fit_predictor(
        config, train_region.hi, train_region.soh, train_region.offset
    )
    report = predictor.report(
        config_fingerprint(config), test_region.hi, test_region.soh, test_region.offset
    )
    return ExperimentResult(report, predictor, training, history)


@dataclass(frozen=True)
class AblationRow:
    hi_name: str
    denoised: bool
    split_label: str
    report: PredictionReport

    def variant(self) -> str:
        return f"{self.hi_name}-{'svd' if self.denoised else 'raw'}"


def run_hi_ablation(
    candidates: Sequence[tuple[HISeries, bool]],
    soh: SOHSeries,
    splits: Sequence[SplitSpec],
    base: ExperimentConfig,
) -> list[AblationRow]:
    """Train the base network per (indicator, denoise flag, split).

    The denoise flag is a candidate-preparation step, like the extraction
    stage that feeds real runs: flagged candidates are normalized and
    SVD-denoised over the whole series before the split, so their variants
    are compared as they would actually be fed to training.  Rows come
    back grouped by split, best RMSE first within each group.
    """
    prepared: list[tuple[HISeries, bool]] = []
    for series, denoised in candidates:
        if denoised:
            series = hiselect.hankel_svd_denoise(
                hiselect.min_max_normalize(series), rank=base.denoise_rank
            )
        prepared.append((series, denoised))

    rows: list[AblationRow] = []
    for split in splits:
        split_rows = []
        for series, denoised in prepared:
            config = replace(base, split=split, denoise=False)
            report = train_and_predict(config, series, soh).report
            split_rows.append(AblationRow(series.name, denoised, split.label(), report))
        split_rows.sort(key=lambda r: r.report.rmse)
        rows.extend(split_rows)
    return rows


def run_fleet(
    train_vehicle: str,
    vehicle_soh: dict[str, SOHSeries],
    start: SplitSpec,
    config: ExperimentConfig,
    predictor: Predictor,
) -> list[tuple[str, PredictionReport]]:
    """Predict every vehicle but the training one with its fitted predictor.

    The monthly SOH history itself is the model input.  ``predictor`` is
    the one :func:`fit_predictor` returns for the training vehicle's full
    history as both values and SOH, so test vehicles never influence the
    model.
    """
    if train_vehicle not in vehicle_soh:
        raise ValueError(f"training vehicle {train_vehicle!r} not in dataset")
    w = config.resolved_window()
    results: list[tuple[str, PredictionReport]] = []
    fingerprint = config_fingerprint(config)
    for vid in sorted(v for v in vehicle_soh if v != train_vehicle):
        values = vehicle_soh[vid].values
        try:
            k = start.boundary(values.size)
        except ValueError as exc:
            raise ValueError(f"vehicle {vid}: {exc}") from None
        if values.size - k < w:
            raise ValueError(f"vehicle {vid}: test region shorter than window")
        results.append((vid, predictor.report(fingerprint, values[k:], values[k:], k)))
    return results


# ---------------------------------------------------------------------------
# synthetic datasets


@dataclass(frozen=True)
class CycleSynthesisParams:
    """Controls for the synthetic lab-cycle generator.

    Charge curves are two-step logistic charge-vs-voltage profiles whose
    steps shrink and flatten as capacity fades, so the derivative peaks
    decay with aging the way measured curves do.
    """

    n_cycles: int = 100
    base_capacity_ah: float = 0.74
    total_fade: float = 0.15  # capacity fraction lost by the last cycle
    fade_shape: float = 1.3  # >1 bends the decay downward late in life
    capacity_noise: float = 0.0005
    voltage_noise: float = 0.0015
    sample_period_s: float = 2.0
    charge_rate: float = 2.0  # current in multiples of base capacity
    step_voltages: tuple[float, float] = (3.65, 4.0)
    step_widths: tuple[float, float] = (0.035, 0.05)
    second_step_weight: float = 0.35  # fraction of charge in the upper step when new


@dataclass(frozen=True)
class FleetSynthesisParams:
    """Controls for the synthetic fleet-charging generator."""

    n_vehicles: int = 20
    n_months: int = 29
    events_per_month: int = 8
    pack_capacity_ah: float = 145.0
    monthly_fade: float = 0.004
    quadratic_fade: float = 0.00004
    vehicle_spread: float = 0.004  # unit-to-unit capacity factor spread
    event_noise: float = 0.002  # per-event capacity measurement noise
    rebound_probability: float = 0.12
    rebound_size: float = 0.0025
    base_current_a: float = 72.5
    sample_period_s: float = 8.0


def _cycle_soh_trend(params: CycleSynthesisParams, rng: np.random.Generator) -> np.ndarray:
    x = np.linspace(0.0, 1.0, params.n_cycles)
    soh = 1.0 - params.total_fade * x**params.fade_shape
    soh = soh * (1.0 + rng.normal(0.0, params.capacity_noise, size=soh.size))
    return np.minimum.accumulate(soh)  # keep the fade monotone despite noise


def synthesize_cycles(
    params: CycleSynthesisParams, seed: int, out_path: Path | str
) -> Path:
    """Write a per-cycle charge file in the ingest format; returns the path."""
    rng = derive_rng(seed, "synth-cycles")
    soh = _cycle_soh_trend(params, rng)
    v_lo, v_hi = 3.1, 4.25
    v_dense = np.linspace(v_lo, v_hi, 2400)
    mu1, mu2 = params.step_voltages
    s1_base, s2_base = params.step_widths

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w") as out:  # written a cycle at a time
        out.write("cycle,time_s,voltage_v,charge_ah,capacity_ah\n")
        for c in range(params.n_cycles):
            capacity = params.base_capacity_ah * soh[c]
            # aging flattens both steps and drains the upper one
            widen = 1.0 + 1.8 * (1.0 - soh[c])
            w2 = params.second_step_weight * max(0.0, 1.0 - 2.5 * (1.0 - soh[c]))
            w1 = 1.0 - w2
            s1, s2 = s1_base * widen, s2_base * widen

            def logistic(v, mu, s):
                return 1.0 / (1.0 + np.exp(-(v - mu) / s))

            q_dense = capacity * (
                w1 * logistic(v_dense, mu1, s1) + w2 * logistic(v_dense, mu2, s2)
            )
            q_dense -= q_dense[0]
            current = params.charge_rate * params.base_capacity_ah  # amperes
            total_time = q_dense[-1] / current * 3600.0
            t = np.arange(0.0, total_time, params.sample_period_s)
            q_t = current * t / 3600.0
            v_t = np.interp(q_t, q_dense, v_dense)
            v_t = v_t + rng.normal(0.0, params.voltage_noise, size=v_t.size)
            out.write("".join(
                f"{c + 1},{float(ti)!r},{float(vi)!r},{float(qi)!r},{float(capacity)!r}\n"
                for ti, vi, qi in zip(t, v_t, q_t)
            ))
    return out_path


def synthesize_fleet(
    params: FleetSynthesisParams, seed: int, out_dir: Path | str
) -> list[Path]:
    """Write one charging log per vehicle; returns the paths in vehicle order.

    Vehicles share a decay trend with occasional capacity rebounds; events
    within a month scatter around the month's true capacity.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for v in range(params.n_vehicles):
        rng = derive_rng(seed, "synth-fleet", v)
        vid = f"V{v + 1:02d}"
        factor = 1.0 + rng.normal(0.0, params.vehicle_spread)
        months = np.arange(params.n_months)
        trend = 1.0 - params.monthly_fade * months - params.quadratic_fade * months**2
        rebounds = (rng.random(params.n_months) < params.rebound_probability) * (
            params.rebound_size * rng.random(params.n_months)
        )
        capacity_by_month = params.pack_capacity_ah * factor * (trend + rebounds)

        path = out_dir / f"fleet_{vid}.csv"
        with path.open("w") as out:  # written a charging event at a time
            out.write("timestamp,current_a,voltage_v,soc\n")
            epoch = 1_500_000_000  # fixed fleet start instant
            for m in months:
                month_start = epoch + int(m) * 30 * 86400
                for e in range(params.events_per_month):
                    event_rng = derive_rng(seed, "synth-fleet-event", v, int(m), e)
                    cap = capacity_by_month[m] * (
                        1.0 + event_rng.normal(0.0, params.event_noise)
                    )
                    soc_start = 0.15 + 0.2 * event_rng.random()
                    soc_end = 0.8 + 0.15 * event_rng.random()
                    current = -params.base_current_a * (1.0 + 0.05 * event_rng.random())
                    charge_ah = cap * (soc_end - soc_start)
                    duration = charge_ah / (-current) * 3600.0
                    t = np.arange(0.0, duration + params.sample_period_s, params.sample_period_s)
                    soc = soc_start + (-current) * t / 3600.0 / cap
                    soc = np.minimum(soc, soc_end)
                    # SOC is logged in percent at 0.1 resolution
                    soc_pct = np.round(soc * 1000.0) / 10.0
                    volts = 330.0 + 70.0 * soc
                    t0 = month_start + e * 10_000
                    out.write("".join(
                        f"{float(t0 + ti)!r},{float(current)!r},{float(vi)!r},{float(si)!r}\n"
                        for ti, si, vi in zip(t, soc_pct, volts)
                    ))
        paths.append(path)
    return paths


def synthesize_dataset(
    kind: str,
    params: CycleSynthesisParams | FleetSynthesisParams | None,
    seed: int,
    out: Path | str,
) -> list[Path]:
    """Dispatch to the cycle or fleet generator; returns written paths."""
    if kind == "cycles":
        params = params if params is not None else CycleSynthesisParams()
        return [synthesize_cycles(params, seed, Path(out) / "cycles.csv")]
    if kind == "fleet":
        params = params if params is not None else FleetSynthesisParams()
        return synthesize_fleet(params, seed, out)
    raise ValueError(f"kind must be 'cycles' or 'fleet', got {kind!r}")
