"""Sphere-parameterized 3D detection: geometry, losses, matching, decoding, scoring."""

from .config import HarnessConfig, load_config
from .decode import (
    Candidate,
    DecodeStats,
    NmsParams,
    PredictionGrid,
    decode_cell,
    detect_candidates,
    merge_levels,
    nms_siou,
    top_n_candidates,
)
from .froc import (
    OPERATING_POINTS,
    FrocCurve,
    HitAssignment,
    HitLabel,
    ScanResult,
    froc,
    match_hits,
)
from .geometry import (
    OverlapGeometry,
    Regime,
    Sphere,
    angle_score,
    center_distance,
    distance_radius_ratio,
    intersection_volume,
    overlap_geometry,
    siou,
    union_volume,
)
from .gradsim import DescentResult, GradientSample, descend, gradient_curve
from .gridio import (
    ANNOTATION_HEADER,
    CANDIDATE_HEADER,
    FROC_HEADER,
    GRID_MAGIC,
    atomic_write_bytes,
    atomic_write_text,
    froc_json_payload,
    read_annotations,
    read_candidates,
    read_grid,
    write_annotations,
    write_candidates,
    write_froc_csv,
    write_grid,
)
from .losses import (
    FocalParams,
    LossBreakdown,
    SphereGradient,
    SphereLossKind,
    offset_loss,
    radius_loss,
    refocal_loss,
    sphere_loss,
    sphere_loss_gradient,
    total_loss,
)
from .matching import (
    GridSpec,
    Label,
    LabelAssignment,
    NoduleAnnotation,
    assign_labels,
    distance_map,
    ohem_refine,
    regression_targets,
)
from .montecarlo import backend_name, mc_intersection_volume
from .synth import ScanRecord, SyntheticSpec, generate_dataset, generate_scan

__version__ = "0.1.0"
