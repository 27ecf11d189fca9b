"""Known-object ground-truth labeling: synchronize events with intensity
frames, extract Canny edges, ICP-fit accumulated events to the edges, and
label each event by Chebyshev proximity to an edge pixel.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .events import EventStream, LABEL_NOISE, LABEL_REAL, stream_from_arrays


@dataclass
class ApsFrame:
    image: np.ndarray               # (height, width) uint8 grayscale
    t_us: int
    pose_tag: str = ""


@dataclass
class EdgeMap:
    mask: np.ndarray                # boolean (height, width)
    t_us: int


@dataclass
class IcpResult:
    dx: float
    dy: float
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LabelingConfig:
    B: int = 2                       # edge proximity window in pixels
    canny_sigma: float = 1.4
    canny_low: float = 0.10          # hysteresis thresholds as fractions of
    canny_high: float = 0.30         # the max gradient magnitude
    icp_max_iter: int = 50
    icp_tol: float = 0.01            # convergence tolerance in pixels
    icp_search_px: int = 8           # integer-shift coarse search radius
    start_offset_us: int = 0         # subtracted from event timestamps

    def __post_init__(self):
        if self.B < 0:
            raise ValueError("B must be >= 0")


def synchronize(events: EventStream, frames: Sequence[ApsFrame],
                start_offset_us: int = 0):
    """Partition events into per-frame batches: batch i holds events with
    t_frame[i] <= t < t_frame[i+1] (final batch unbounded above), after
    subtracting the global start-time offset.  Returns (batches, pre_batch):
    arrays of stream indices, in stream order."""
    if not frames:
        raise ValueError("empty frame list")
    times = np.array([f.t_us for f in frames], dtype=np.int64)
    if np.any(times[1:] < times[:-1]):
        raise ValueError("frames must be sorted by timestamp")
    t = events.arrays()[0] - start_offset_us
    # the frame each event falls after; -1 before the first frame
    frame = np.searchsorted(times, t, side="right") - 1
    order = np.argsort(frame, kind="stable")
    pre_batch, *batches = np.split(
        order, np.cumsum(np.bincount(frame + 1, minlength=len(frames) + 1))[:-1])
    return batches, pre_batch


def canny_edges(frame: ApsFrame, config: LabelingConfig = None) -> EdgeMap:
    """Classic Canny: Gaussian blur, Sobel gradients, non-maximum
    suppression, double threshold, hysteresis.  Deterministic."""
    config = config or LabelingConfig()
    img = frame.image.astype(np.float64)
    blurred = ndimage.gaussian_filter(img, sigma=config.canny_sigma)
    gx = ndimage.sobel(blurred, axis=1)
    gy = ndimage.sobel(blurred, axis=0)
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak <= 0:
        return EdgeMap(np.zeros_like(mag, dtype=bool), frame.t_us)

    # non-maximum suppression along the quantized gradient direction;
    # ties are broken asymmetrically so a flat two-pixel ridge thins to one
    angle = np.rad2deg(np.arctan2(gy, gx)) % 180.0
    H, W = mag.shape
    padded = np.pad(mag, 1, mode="constant")

    def shifted(dy, dx):
        return padded[1 + dy: 1 + dy + H, 1 + dx: 1 + dx + W]

    horiz = (angle < 22.5) | (angle >= 157.5)
    diag1 = (angle >= 22.5) & (angle < 67.5)
    vert = (angle >= 67.5) & (angle < 112.5)
    diag2 = (angle >= 112.5) & (angle < 157.5)
    keep = np.zeros_like(mag, dtype=bool)
    keep |= horiz & (mag > shifted(0, -1)) & (mag >= shifted(0, 1))
    keep |= diag1 & (mag > shifted(-1, -1)) & (mag >= shifted(1, 1))
    keep |= vert & (mag > shifted(-1, 0)) & (mag >= shifted(1, 0))
    keep |= diag2 & (mag > shifted(-1, 1)) & (mag >= shifted(1, -1))
    nms = np.where(keep, mag, 0.0)

    strong = nms >= config.canny_high * peak
    weak = nms >= config.canny_low * peak
    labels, n = ndimage.label(weak, structure=np.ones((3, 3)))
    if n == 0:
        return EdgeMap(np.zeros_like(mag, dtype=bool), frame.t_us)
    keep_ids = np.unique(labels[strong])
    keep_ids = keep_ids[keep_ids > 0]
    lut = np.zeros(n + 1, dtype=bool)
    lut[keep_ids] = True
    return EdgeMap(lut[labels], frame.t_us)


def icp_align(points: np.ndarray, edges: EdgeMap,
              config: LabelingConfig = None) -> IcpResult:
    """Translation-only 2-D ICP of event pixels onto the edge set.

    points: (n, 2) array of (x, y).  A coarse integer-shift grid search over
    the edge distance transform seeds the translation; each refinement
    iteration then matches every shifted point to its nearest edge pixel
    (exact nearest neighbor over the edge coordinates, no grid rounding) and
    updates the translation by the mean offset.  The coarse stage keeps the
    refinement inside the sub-pixel regime where tangential sliding along
    discrete edge pixels cannot bias the mean.
    """
    config = config or LabelingConfig()
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise ValueError("empty point set")
    if not edges.mask.any():
        raise ValueError("empty edge set")
    H, W = edges.mask.shape
    ey, ex = np.nonzero(edges.mask)
    edge_xy = np.stack([ex, ey], axis=1).astype(np.float64)
    tree = cKDTree(edge_xy)

    dist = ndimage.distance_transform_edt(~edges.mask)
    R = config.icp_search_px
    best = (np.inf, 0, 0)
    px = points[:, 0]
    py = points[:, 1]
    # scan by increasing shift magnitude and require strict improvement, so
    # score-flat (tangent) directions resolve to the smallest shift
    offsets = sorted(((sx, sy) for sx in range(-R, R + 1)
                      for sy in range(-R, R + 1)),
                     key=lambda s: (s[0] * s[0] + s[1] * s[1], s))
    for sx, sy in offsets:
        qx = np.clip(np.rint(px + sx).astype(int), 0, W - 1)
        qy = np.clip(np.rint(py + sy).astype(int), 0, H - 1)
        score = dist[qy, qx].mean()
        if score < best[0] - 1e-9:
            best = (score, sx, sy)
    dx, dy = float(best[1]), float(best[2])
    residual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, config.icp_max_iter + 1):
        shifted = points + (dx, dy)
        _, nearest = tree.query(shifted)
        off_x = edge_xy[nearest, 0] - shifted[:, 0]
        off_y = edge_xy[nearest, 1] - shifted[:, 1]
        residual = float(np.hypot(off_x, off_y).mean())
        step_x, step_y = off_x.mean(), off_y.mean()
        dx += step_x
        dy += step_y
        if np.hypot(step_x, step_y) < config.icp_tol:
            converged = True
            break
    return IcpResult(dx, dy, residual, iterations, converged)


def label_events(x: np.ndarray, y: np.ndarray, edges: EdgeMap,
                 shift: Tuple[float, float], B: int) -> np.ndarray:
    """Label each event real iff its shifted pixel lies within Chebyshev
    distance B of an edge pixel; noise otherwise.  Returns one label per
    (x, y) coordinate pair."""
    H, W = edges.mask.shape
    near = ndimage.binary_dilation(
        edges.mask, structure=np.ones((2 * B + 1, 2 * B + 1), dtype=bool)) \
        if B > 0 else edges.mask
    xs = np.rint(np.asarray(x) + shift[0]).astype(np.int64)
    ys = np.rint(np.asarray(y) + shift[1]).astype(np.int64)
    inside = (xs >= 0) & (xs < W) & (ys >= 0) & (ys < H)
    real = np.zeros(len(xs), dtype=bool)
    real[inside] = near[ys[inside], xs[inside]]
    return np.where(real, LABEL_REAL, LABEL_NOISE)


def kogtl_pipeline(events: EventStream, frames: Sequence[ApsFrame],
                   config: LabelingConfig = None):
    """Full pipeline: synchronize -> canny -> icp -> label.

    Returns (labeled EventStream, per-batch IcpResult list).  Events in the
    pre-frame batch, or in batches with no events or no edges, keep their
    label.
    """
    config = config or LabelingConfig()
    if not frames:
        raise ValueError("empty frame list")
    batches, _pre = synchronize(events, frames, config.start_offset_us)
    t, x, y, p, label = events.arrays()
    labels = label.copy()
    reports: List[Optional[IcpResult]] = []
    for frame, batch in zip(frames, batches):
        if not len(batch):
            reports.append(None)
            continue
        edges = canny_edges(frame, config)
        if not edges.mask.any():
            reports.append(None)
            continue
        bx, by = x[batch], y[batch]
        icp = icp_align(np.stack([bx, by], axis=1), edges, config)
        reports.append(icp)
        labels[batch] = label_events(bx, by, edges, (icp.dx, icp.dy), config.B)
    return stream_from_arrays(t, x, y, p, labels, events.geometry), reports


# -- PGM (binary P5) frame I/O ---------------------------------------------

def write_pgm(frame: ApsFrame, path) -> None:
    img = np.asarray(frame.image, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())


class FrameFormatError(ValueError):
    """Raised when a frame file is malformed or a frame directory holds no
    frames."""


def read_pgm(path, t_us: int = None, pose_tag: str = "") -> ApsFrame:
    with open(path, "rb") as f:
        data = f.read()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise FrameFormatError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval > 255:
        raise FrameFormatError(f"{path}: only 8-bit PGM supported")
    if len(data) - m.end() < w * h:
        raise FrameFormatError(f"{path}: truncated image, {len(data) - m.end()} "
                               f"of {w * h} pixel bytes")
    pixels = np.frombuffer(data[m.end():], dtype=np.uint8, count=w * h)
    if t_us is None:
        stem = os.path.splitext(os.path.basename(path))[0]
        digits = re.findall(r"\d+", stem)
        t_us = int(digits[-1]) if digits else 0
    return ApsFrame(pixels.reshape(h, w).copy(), t_us, pose_tag)


def read_frame_dir(dirpath) -> List[ApsFrame]:
    """Load all .pgm frames in a directory, named by timestamp."""
    frames = []
    for name in sorted(os.listdir(dirpath)):
        if name.lower().endswith(".pgm"):
            frames.append(read_pgm(os.path.join(dirpath, name)))
    if not frames:
        raise FrameFormatError(f"{dirpath}: no .pgm frames")
    frames.sort(key=lambda f: f.t_us)
    return frames
