"""Event-camera denoising toolkit.

Graph-based neural denoising of dynamic-vision-sensor event streams, with
conventional filter baselines, synthetic scene generation, frame-based
ground-truth labeling, and a benchmarking harness.
"""

from .events import (Event, EventFormatError, EventStream, LABEL_NOISE,
                     LABEL_REAL, SensorGeometry, read_events, slice_by_time,
                     stream_from_arrays, validate_stream, write_events)
from .graph import (EventGraph, GraphNode, NormalizedGraph, RecencyStore,
                    VolumeSpec, batch_neighbor_indices, build_graph,
                    normalize_graph)
from .eventconv import (EventConvParams, QuantitySet, VARIANTS,
                        compute_quantities, eventconv_forward)
from .transformer import (CheckpointError, DenoiseModel, ModelConfig,
                          ModelFilter, TrainConfig, load_model, predict_stream,
                          save_model, train)
from .baselines import (DelbruckBAFilter, KhodamoradiFilter, LiuFilter,
                        NNbFilter, YangFilter, make_filter)
from .kogtl import (ApsFrame, LabelingConfig, canny_edges, icp_align,
                    kogtl_pipeline)
from .synth import (GeneratedDataset, HotPixel, MovingEdge, SceneSpec,
                    TrainingSet, build_training_set, generate, preset_scene)
from .bench import (ConfusionCounts, Metrics, confusion, memory_estimate,
                    metrics_from_counts, time_filter, windowed_eval)
from .config import RunConfig, parse_scene_file

__version__ = "0.1.0"
