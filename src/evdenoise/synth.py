"""Deterministic synthetic event-scene generator.

Produces labeled event streams plus matching intensity frames: real events
at every pixel crossing of each moving step edge, background-activity noise
as per-pixel Poisson processes, and hot pixels firing at fixed locations.
The ground-truth labels make the generator the oracle for end-to-end tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .events import (EventStream, LABEL_NOISE, LABEL_REAL, SensorGeometry,
                     stream_from_arrays)
from .graph import (VolumeSpec, batch_neighbor_indices,
                    features_from_batch_indices)
from .kogtl import ApsFrame

# illumination presets: low light raises both the noise rate and the
# timestamp scatter of real events
LIGHT_PRESETS = {
    "light.750lux": {"noise_rate_hz": 0.5, "jitter_us": 1000.0},
    "light.5lux": {"noise_rate_hz": 2.0, "jitter_us": 3000.0},
}


@dataclass(frozen=True)
class MovingEdge:
    orientation: str            # "vertical" | "horizontal"
    position: float             # initial boundary position in pixels
    velocity: float             # pixels per second
    polarity: int = 1
    wrap: bool = True           # wrap position modulo the travel axis extent

    def __post_init__(self):
        if self.orientation not in ("vertical", "horizontal"):
            raise ValueError(f"bad orientation {self.orientation!r}")
        if self.velocity == 0:
            raise ValueError("edge velocity must be nonzero")


@dataclass(frozen=True)
class HotPixel:
    x: int
    y: int
    rate_hz: float


@dataclass(frozen=True)
class SceneSpec:
    geometry: SensorGeometry = field(default_factory=lambda: SensorGeometry(64, 48))
    duration_us: int = 1_000_000
    edges: Tuple[MovingEdge, ...] = ()
    jitter_us: float = 0.0          # timestamp scatter of real events
    noise_rate_hz: float = 0.0      # BA noise, events/s/pixel
    hot_pixels: Tuple[HotPixel, ...] = ()
    frame_period_us: int = 20_000
    seed: int = 0
    bright: int = 200
    dark: int = 50

    def __post_init__(self):
        if self.duration_us <= 0 or self.frame_period_us <= 0:
            raise ValueError("duration and frame period must be positive")
        if self.noise_rate_hz < 0:
            raise ValueError("noise rate must be >= 0")


@dataclass
class GeneratedDataset:
    stream: EventStream
    frames: List[ApsFrame]
    real_count: int
    noise_count: int
    hot_count: int


def _edge_position(edge: MovingEdge, t_s: float, extent: int) -> float:
    pos = edge.position + edge.velocity * t_s
    return pos % extent if edge.wrap else pos


def _crossing_times(edge: MovingEdge, extent: int, duration_s: float):
    """(boundary coordinate, crossing time in seconds) for every time the
    moving boundary passes a pixel-center line coordinate c + 0.5."""
    out = []
    v = edge.velocity
    # the boundary passes line c + 0.5 when pos(t) = c + 0.5 (mod extent)
    for c in range(extent):
        line = c + 0.5
        first = (line - edge.position) / v
        period = extent / abs(v)
        if not edge.wrap:
            if 0 <= first < duration_s:
                out.append((c, first))
            continue
        # wrap: crossings repeat every full traversal
        t = first % period
        while t < duration_s:
            out.append((c, t))
            t += period
    return out


def generate(scene: SceneSpec) -> GeneratedDataset:
    """Deterministic dataset: identical SceneSpec (including seed) yields a
    bit-identical stream, frames, and manifest."""
    rng = np.random.default_rng(scene.seed)
    W, H = scene.geometry.width, scene.geometry.height
    duration_s = scene.duration_us / 1e6
    # (t in float us, x, y, p, label) of each source, in generation order
    parts: List[Tuple[np.ndarray, ...]] = []

    def add(t_us, x, y, polarity, label):
        parts.append((t_us, x, y, np.full(len(t_us), polarity), np.full(len(t_us), label)))

    for edge in scene.edges:
        vertical = edge.orientation == "vertical"
        extent, lateral = (W, H) if vertical else (H, W)
        crossings = np.array(_crossing_times(edge, extent, duration_s)).reshape(-1, 2)
        # one row of lateral jitter per crossing, drawn in crossing order
        jitter = rng.normal(0.0, scene.jitter_us, size=(len(crossings), lateral)) \
            if scene.jitter_us > 0 else np.zeros((len(crossings), lateral))
        t_us = crossings[:, 1:] * 1e6 + jitter
        keep = (0 <= t_us) & (t_us < scene.duration_us)
        row, j = np.nonzero(keep)
        c = crossings[row, 0].astype(np.int64)
        add(t_us[keep], *((c, j) if vertical else (j, c)), edge.polarity, LABEL_REAL)
    real = sum(len(part[0]) for part in parts)

    noise = hot = 0
    if scene.noise_rate_hz > 0:
        lam = scene.noise_rate_hz * W * H * duration_s
        noise = rng.poisson(lam)
        t_noise = rng.uniform(0, scene.duration_us, size=noise)
        x_noise = rng.integers(0, W, size=noise)
        y_noise = rng.integers(0, H, size=noise)
        add(t_noise, x_noise, y_noise, rng.choice([-1, 1], size=noise), LABEL_NOISE)

    for hp in scene.hot_pixels:
        count = rng.poisson(hp.rate_hz * duration_s)
        add(rng.uniform(0, scene.duration_us, size=count), np.full(count, hp.x),
            np.full(count, hp.y), 1, LABEL_NOISE)
        hot += count

    ts = np.concatenate([np.empty(0)] + [part[0] for part in parts])
    order = np.argsort(ts, kind="stable")
    t_arr = ts[order].astype(np.int64)
    x_arr, y_arr, p_arr, l_arr = (
        np.concatenate([np.empty(0, np.int64)] + [part[k] for part in parts])[order]
        for k in range(1, 5))
    # integer-microsecond rounding may reorder equal-rounded neighbors; re-sort
    reorder = np.argsort(t_arr, kind="stable")
    stream = stream_from_arrays(t_arr[reorder], x_arr[reorder], y_arr[reorder],
                                p_arr[reorder], l_arr[reorder], scene.geometry)

    frames = render_frames(scene)
    return GeneratedDataset(stream, frames, real, noise + hot, hot)


def render_frames(scene: SceneSpec) -> List[ApsFrame]:
    return [ApsFrame(render_frame(scene, t_us), t_us)
            for t_us in range(0, scene.duration_us + 1, scene.frame_period_us)]


def render_frame(scene: SceneSpec, t_us: int) -> np.ndarray:
    """Instantaneous intensity image of the scene at time t_us."""
    W, H = scene.geometry.width, scene.geometry.height
    img = np.full((H, W), scene.dark, dtype=np.float64)
    xx = np.arange(W)
    yy = np.arange(H)
    for edge in scene.edges:
        extent = W if edge.orientation == "vertical" else H
        pos = _edge_position(edge, t_us / 1e6, extent)
        step = scene.bright - scene.dark
        if edge.orientation == "vertical":
            img[:, xx + 0.5 < pos] += step
        else:
            img[yy + 0.5 < pos, :] += step
    return np.clip(img, 0, 255).astype(np.uint8)


def expected_noise_count(scene: SceneSpec) -> float:
    """Mean of the generated noise-event count (BA plus hot pixels)."""
    duration_s = scene.duration_us / 1e6
    ba = scene.noise_rate_hz * scene.geometry.width * scene.geometry.height * duration_s
    return ba + sum(hp.rate_hz * duration_s for hp in scene.hot_pixels)


def sample_balanced_indices(stream: EventStream, per_class: int,
                            seed: int = 0) -> np.ndarray:
    """per_class labeled-real plus per_class labeled-noise event indices,
    drawn uniformly without replacement (real block first)."""
    _, _, _, _, lab = stream.arrays()
    real_idx = np.flatnonzero(lab == LABEL_REAL)
    noise_idx = np.flatnonzero(lab == LABEL_NOISE)
    if len(real_idx) < per_class or len(noise_idx) < per_class:
        raise ValueError(
            f"need {per_class} events per class, have "
            f"{len(real_idx)} real / {len(noise_idx)} noise")
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.choice(real_idx, per_class, replace=False),
                           rng.choice(noise_idx, per_class, replace=False)])


@dataclass
class TrainingSet:
    """Balanced training samples as padded node features: feats
    (B, N_max + 1, 3) and mask (B, N_max + 1, 1) as padded_node_features
    gives them, and labels (B,)."""

    feats: np.ndarray
    mask: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def build_training_set(stream: EventStream, spec: VolumeSpec, per_class: int,
                       seed: int = 0) -> TrainingSet:
    """Balanced samples: per_class events of each label drawn uniformly
    without replacement; each local volume is searched in the full stream
    prefix preceding its event."""
    t, x, y, _, lab = stream.arrays()
    chosen = sample_balanced_indices(stream, per_class, seed)
    W, H = stream.geometry.width, stream.geometry.height
    xs, ys = x[chosen], y[chosen]
    outside = chosen[(xs < 0) | (xs >= W) | (ys < 0) | (ys >= H)]
    if len(outside):
        i = int(outside[0])
        raise ValueError(f"sampled event {i} at ({x[i]},{y[i]}) is outside "
                         f"the {W}x{H} sensor")
    nbr = batch_neighbor_indices(t, x, y, spec, stream.geometry, rows=chosen)
    feats, mask = features_from_batch_indices(t, x, y, nbr, spec, rows=chosen)
    return TrainingSet(feats, mask, lab[chosen])


def preset_scene(light: str, seed: int = 0, duration_us: int = 2_000_000,
                 geometry: SensorGeometry = None) -> SceneSpec:
    """Desk-scale scene under an illumination preset."""
    if light not in LIGHT_PRESETS:
        raise ValueError(f"unknown light preset {light!r}; options: {sorted(LIGHT_PRESETS)}")
    p = LIGHT_PRESETS[light]
    geometry = geometry or SensorGeometry(64, 48)
    return SceneSpec(
        geometry=geometry,
        duration_us=duration_us,
        edges=(
            MovingEdge("vertical", 8.0, 50.0, polarity=1),
            MovingEdge("horizontal", 10.0, 40.0, polarity=-1),
        ),
        jitter_us=p["jitter_us"],
        noise_rate_hz=p["noise_rate_hz"],
        hot_pixels=(HotPixel(5, 5, 250.0), HotPixel(40, 30, 250.0)),
        frame_period_us=20_000,
        seed=seed,
    )
