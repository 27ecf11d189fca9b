"""Line-based `key = value` run configuration.

Unknown keys are rejected so typos fail loudly; CLI flags override file
values.  The same parser handles scene-description files for the synthetic
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Tuple

from .events import SensorGeometry
from .synth import HotPixel, LIGHT_PRESETS, MovingEdge, SceneSpec


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration entries."""


def parse_kv_lines(path) -> List[Tuple[int, str, str]]:
    """(lineno, key, value) triples; '#' comments and blank lines skipped."""
    out = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            out.append((lineno, key, value))
    return out


_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _coerce(value: str, kind, where: str):
    try:
        if kind is bool:
            if value.lower() not in _BOOL:
                raise ValueError(f"not a boolean: {value!r}")
            return _BOOL[value.lower()]
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass
class RunConfig:
    """Scalar knobs shared across the command-line tools."""

    seed: int = 0
    volume_L: int = 2
    volume_T_us: int = 50_000
    volume_N_max: int = 10
    variant: str = "7q"
    msg_width: int = 4
    heads: int = 2
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_mult: int = 4
    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 30
    sensor_width: int = 346
    sensor_height: int = 260
    eval_interval_us: int = 100_000
    filter_T_us: int = 1000
    ba_k: int = 8
    match_polarity: bool = False

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg = cls()
        known = {f.name: f.type for f in fields(cls)}
        types = {f.name: type(getattr(cfg, f.name)) for f in fields(cls)}
        updates = {}
        for lineno, key, value in parse_kv_lines(path):
            if key not in known:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}; "
                    f"known keys: {', '.join(sorted(known))}")
            updates[key] = _coerce(value, types[key], f"{path}:{lineno}")
        return replace(cfg, **updates)

    def override(self, **kwargs) -> "RunConfig":
        """Apply non-None keyword overrides (CLI flags beat file values)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        bad = set(updates) - {f.name for f in fields(self)}
        if bad:
            raise ConfigError(f"unknown config overrides: {sorted(bad)}")
        return replace(self, **updates)

    def geometry(self) -> SensorGeometry:
        return SensorGeometry(self.sensor_width, self.sensor_height)


def parse_scene_file(path) -> SceneSpec:
    """Scene description as key = value lines.

    Scalar keys: width, height, duration_us, jitter_us, noise_rate_hz,
    frame_period_us, seed, bright, dark, light (preset name).  Repeatable
    keys: `edge = orientation position velocity polarity [wrap|nowrap]` and
    `hot_pixel = x y rate_hz`.
    """
    scalars: Dict[str, str] = {}
    edges: List[MovingEdge] = []
    hot: List[HotPixel] = []
    for lineno, key, value in parse_kv_lines(path):
        where = f"{path}:{lineno}"
        if key == "edge":
            parts = value.split()
            if len(parts) not in (4, 5):
                raise ConfigError(f"{where}: edge needs "
                                  "'orientation position velocity polarity [wrap|nowrap]'")
            wrap = True
            if len(parts) == 5:
                if parts[4] not in ("wrap", "nowrap"):
                    raise ConfigError(f"{where}: bad wrap flag {parts[4]!r}")
                wrap = parts[4] == "wrap"
            try:
                edges.append(MovingEdge(parts[0], float(parts[1]),
                                        float(parts[2]), int(parts[3]), wrap))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        elif key == "hot_pixel":
            parts = value.split()
            if len(parts) != 3:
                raise ConfigError(f"{where}: hot_pixel needs 'x y rate_hz'")
            try:
                hot.append(HotPixel(int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        elif key in ("width", "height", "duration_us", "jitter_us",
                     "noise_rate_hz", "frame_period_us", "seed",
                     "bright", "dark", "light"):
            scalars[key] = value
        else:
            raise ConfigError(f"{where}: unknown scene key {key!r}")

    kwargs = {}
    preset = scalars.pop("light", None)
    if preset is not None:
        if preset not in LIGHT_PRESETS:
            raise ConfigError(f"{path}: unknown light preset {preset!r}; "
                              f"options: {sorted(LIGHT_PRESETS)}")
        kwargs["noise_rate_hz"] = LIGHT_PRESETS[preset]["noise_rate_hz"]
        kwargs["jitter_us"] = LIGHT_PRESETS[preset]["jitter_us"]
    ints = {"duration_us", "frame_period_us", "seed", "bright", "dark"}
    for key, value in scalars.items():
        if key in ("width", "height"):
            continue
        kind = int if key in ints else float
        kwargs[key] = _coerce(value, kind, path)
    w = _coerce(scalars.get("width", "64"), int, path)
    h = _coerce(scalars.get("height", "48"), int, path)
    return SceneSpec(geometry=SensorGeometry(w, h), edges=tuple(edges),
                     hot_pixels=tuple(hot), **kwargs)
