"""Dataset ingestion, synthetic data, deterministic batching, and run config.

On-disk images use the IDX format (big-endian header, u8 payload). The
synthetic generator builds class-specific quadrant blob templates plus
Gaussian noise, which gives a classification task that is learnable by tiny
convnets but not trivially saturated.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import check_end, take, write_atomic
from .errors import ConfigError, DataError, FormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Each method's logit-loss terms: mimicry target (none, each incoming peer, or
# the mean softened distribution of all nets) and L1 feature alignment
# through the incoming edges' transfer layers (``trainer._net_loss``).
METHODS = {
    "afd": ("peer", False),
    "dml": ("peer", False),
    "l1": (None, True),
    "l1_kd": ("peer", True),
    "l1_kd_offline": ("peer", True),
    "kd_ensemble": ("ensemble", False),
    "vanilla": (None, False),
}


@dataclass
class Dataset:
    images: np.ndarray  # [N, C, H, W] float32
    labels: np.ndarray  # [N] int64
    split: str = "train"

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"image count {self.images.shape[0]} != label count {self.labels.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.images.shape[0]


def _read_idx(path, magic, kind, rank, count=None):
    """The u8 payload of an IDX file, shaped by its header's ``rank`` dims; the
    magic, then the first dim against ``count`` (when given), then the payload
    length and the end of the file are checked, each naming its byte offset."""
    with open(path, "rb") as f:
        buf = f.read()
    chunk, off = take(buf, 0, 4 + 4 * rank, path)
    found, *dims = struct.unpack(f">I{rank}I", chunk)
    if found != magic:
        raise FormatError(
            f"{path}: bad {kind} magic 0x{found:08x} at byte offset 0, expected 0x{magic:08x}"
        )
    if count is not None and dims[0] != count:
        raise FormatError(
            f"{path}: {kind} count {dims[0]} at byte offset 4 does not match image count {count}"
        )
    payload, off = take(buf, off, math.prod(dims), path)
    check_end(buf, off, path)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(path_images, path_labels) -> Dataset:
    """Read an IDX image/label file pair into a [0,1]-scaled dataset; each
    file must end where its header says."""
    pixels = _read_idx(path_images, IDX_IMAGE_MAGIC, "image", 3)
    labels = _read_idx(path_labels, IDX_LABEL_MAGIC, "label", 1, count=pixels.shape[0])
    images = pixels[:, None].astype(np.float32) / 255.0
    return Dataset(images, labels.astype(np.int64))


def save_idx(dataset: Dataset, path_images, path_labels):
    """Quantize a single-channel [0,1] dataset back to IDX byte files; the
    labels must fit a byte."""
    n, c, h, w = dataset.images.shape
    if c != 1:
        raise DataError(f"IDX export supports single-channel images, got {c} channels")
    if n and not 0 <= dataset.labels.min() <= dataset.labels.max() <= 255:
        raise DataError(f"IDX labels must lie in [0, 255], got range "
                        f"[{dataset.labels.min()}, {dataset.labels.max()}]")
    pixels = np.rint(np.clip(dataset.images, 0.0, 1.0) * 255.0).astype(np.uint8)
    write_atomic(path_images, [struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w), pixels.tobytes()])
    write_atomic(path_labels, [struct.pack(">II", IDX_LABEL_MAGIC, n),
                               dataset.labels.astype(np.uint8).tobytes()])


TEMPLATE_AMPLITUDE = 0.45


def class_templates(num_classes: int, image_size: int) -> np.ndarray:
    """One [image_size, image_size] blob pattern per class.

    Class c lights up the quadrants named by the bits of c+1, as Gaussian
    bumps centered in each active quadrant. The bump amplitude keeps the
    task learnable without saturating tiny networks at the default noise.
    """
    if num_classes < 1 or num_classes > 15:
        raise ConfigError(f"quadrant templates support 1..15 classes, got {num_classes}")
    half = image_size / 2.0
    centers = [(half / 2, half / 2), (half / 2, 3 * half / 2),
               (3 * half / 2, half / 2), (3 * half / 2, 3 * half / 2)]
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float32)
    sigma = image_size / 8.0
    templates = np.zeros((num_classes, image_size, image_size), dtype=np.float32)
    for c in range(num_classes):
        pattern = c + 1
        for q, (cy, cx) in enumerate(centers):
            if pattern & (1 << q):
                bump = TEMPLATE_AMPLITUDE * np.exp(
                    -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
                templates[c] = np.maximum(templates[c], bump.astype(np.float32))
    return templates


def synth_blobs(num_classes: int, per_class: int, image_size: int,
                noise_std: float, seed: int, split: str = "train") -> Dataset:
    """Balanced synthetic dataset: class template + Gaussian noise, clipped to [0,1]."""
    for name, value, least in (("num_classes", num_classes, 1), ("per_class", per_class, 1),
                               ("image_size", image_size, 1), ("seed", seed, 0)):
        if value < least:
            raise ConfigError(f"synth_blobs needs {name} >= {least}, got {value}")
    if not 0 <= noise_std < math.inf:
        raise ConfigError(f"synth_blobs needs noise_std finite and >= 0, got {noise_std}")
    templates = class_templates(num_classes, image_size)
    rng = np.random.default_rng(seed)
    n = num_classes * per_class
    images = np.empty((n, 1, image_size, image_size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        noise = rng.standard_normal((per_class, image_size, image_size)).astype(np.float32)
        images[lo:lo + per_class, 0] = np.clip(templates[c] + noise_std * noise, 0.0, 1.0)
        labels[lo:lo + per_class] = c
    return Dataset(images, labels, split)


def channel_stats(dataset: Dataset):
    """Per-channel mean and std over the whole split (std floored away from 0)."""
    mean = dataset.images.mean(axis=(0, 2, 3))
    std = dataset.images.std(axis=(0, 2, 3))
    std = np.where(std < 1e-8, np.float32(1.0), std)
    return mean.astype(np.float32), std.astype(np.float32)


def standardize(dataset: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    images = (dataset.images - mean[None, :, None, None]) / std[None, :, None, None]
    return Dataset(images.astype(np.float32), dataset.labels, dataset.split)


def batch_indices(n: int, batch_size: int, seed: int, epoch: int):
    """Shuffled index batches; permutation is a pure function of (seed, epoch)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def batches(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (images, labels) minibatches; the final short batch is kept."""
    for idx in batch_indices(dataset.n, batch_size, seed, epoch):
        yield dataset.images[idx], dataset.labels[idx]


def sequential_batches(dataset: Dataset, batch_size: int):
    """(images, labels) views of the dataset in order; the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    return [(dataset.images[i:i + batch_size], dataset.labels[i:i + batch_size])
            for i in range(0, dataset.n, batch_size)]


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    method: str = "afd"
    archs: list = field(default_factory=lambda: ["tiny-a", "tiny-a"])
    k: int = 0  # 0 derives K from archs; >0 replicates a single arch
    temperature: float = 3.0
    epochs: int = 20
    batch_size: int = 128
    seed: int = 0
    lr_logit: float = 0.1
    lr_adv: float = 2e-5
    milestones_logit: list = field(default_factory=lambda: [10, 15])
    milestones_adv: list = field(default_factory=lambda: [5, 10])
    lr_factor: float = 0.1
    momentum: float = 0.9
    weight_decay_logit: float = 1e-4
    weight_decay_adv: float = 0.1
    adversarial: bool = True  # afd only; off gives the logit-only ablation
    disc_width: int = 32
    num_classes: int = 6
    data_source: str = "synth"  # synth | idx
    image_size: int = 16
    per_class_train: int = 320
    per_class_test: int = 100
    noise_std: float = 0.35
    data_seed: int = 0
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    teacher_checkpoint: str = ""
    out_dir: str = "runs/exp"

    def resolved_archs(self) -> list:
        if self.k and len(self.archs) == 1:
            return list(self.archs) * self.k
        return list(self.archs)

    @property
    def num_nets(self) -> int:
        return len(self.resolved_archs())

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {tuple(METHODS)}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if self.k and len(self.archs) not in (1, self.k):
            raise ConfigError(
                f"k={self.k} conflicts with {len(self.archs)} arch specs"
            )
        if self.num_nets < 1:
            raise ConfigError("at least one arch spec is required")
        if self.method == "l1_kd_offline":
            if self.num_nets != 2:
                raise ConfigError("l1_kd_offline expects exactly 2 networks (student, teacher)")
            if not self.teacher_checkpoint:
                raise ConfigError("l1_kd_offline requires teacher_checkpoint")
        if METHODS[self.method] != (None, False) and self.num_nets < 2:
            # a method with a mimicry or alignment term reads a peer
            raise ConfigError(f"method {self.method!r} needs at least 2 networks")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        for name in ("epochs", "seed", "data_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("batch_size", "disc_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_logit", "lr_adv", "momentum", "weight_decay_logit", "weight_decay_adv"):
            value = getattr(self, name)
            if not value >= 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if not 0 < self.lr_factor <= 1:
            raise ConfigError(f"lr_factor must be in (0, 1], got {self.lr_factor}")
        for name in ("milestones_logit", "milestones_adv"):
            ms = getattr(self, name)
            if list(ms) != sorted(ms):
                raise ConfigError(f"{name} must be sorted ascending, got {ms}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.data_source not in ("synth", "idx"):
            raise ConfigError(f"data_source must be synth or idx, got {self.data_source!r}")
        if self.data_source == "idx":
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                if not getattr(self, name):
                    raise ConfigError(f"data_source idx requires {name}")
        return self


def _coerce_field(name: str, raw: str):
    """``raw`` parsed as the kind of the field's default: a bool, a comma-separated
    list of that list's item type, or an int, float or str."""
    if name not in {f.name for f in dataclasses.fields(RunConfig)}:
        raise ConfigError(f"unknown config key {name!r}")
    raw = raw.strip()
    default = getattr(RunConfig(), name)
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("1", "true", "on", "yes"):
            return True
        if low in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"bad boolean for {name!r}: {raw!r}")
    is_list = isinstance(default, list)
    kind = type(default[0]) if is_list else type(default)
    try:
        if is_list:
            return [kind(v.strip()) for v in raw.split(",") if v.strip()]
        return kind(raw)
    except ValueError:
        what = f"{kind.__name__} list" if is_list else kind.__name__
        raise ConfigError(f"bad {what} for {name!r}: {raw!r}") from None


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines of UTF-8 text; ``#`` starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, raw = line.split("=", 1)
                values[key.strip()] = raw
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x})") from None
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Typed RunConfig from raw string maps; overrides win over file values."""
    cfg = RunConfig()
    merged = {}
    merged.update(file_values or {})
    merged.update(overrides or {})
    for key, raw in merged.items():
        setattr(cfg, key, _coerce_field(key, str(raw)))
    return cfg.validate()


def load_splits(config: RunConfig):
    """(train, test) raw datasets named by ``config``: IDX files or synthetic
    blobs. Each IDX split must hold images, with labels in [0, num_classes)
    (``DataError``)."""
    if config.data_source == "idx":
        train = load_idx(config.train_images, config.train_labels)
        test = load_idx(config.test_images, config.test_labels)
        for ds, images, labels in ((train, config.train_images, config.train_labels),
                                   (test, config.test_images, config.test_labels)):
            if not ds.n:
                raise DataError(f"{images}: the split holds no images")
            if ds.labels.max() >= config.num_classes:
                raise DataError(f"{labels}: label {ds.labels.max()} is out of range "
                                f"[0, {config.num_classes})")
        train.split, test.split = "train", "test"
        return train, test
    train = synth_blobs(config.num_classes, config.per_class_train, config.image_size,
                        config.noise_std, config.data_seed, "train")
    test = synth_blobs(config.num_classes, config.per_class_test, config.image_size,
                       config.noise_std, config.data_seed + 1, "test")
    return train, test
