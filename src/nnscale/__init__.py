"""Training-free scaling, MAC/parameter cost modeling, topological mass metrics, and
analytic block restructuring for convolutional architectures."""

from .archspec import (
    Activation,
    ArchDescriptor,
    ArchError,
    ConvNextBlock,
    ConvNextSplitBlock,
    Downsample,
    Head,
    Ibn,
    NnscaleError,
    RegularConv,
    ResNetBottleneckBlock,
    Stem,
    StageConfig,
    convnext_arch,
    parse_arch,
    preset,
    resnet_bottleneck_arch,
    scale_arch,
    serialize_arch,
    validate_arch,
)
from .costmodel import (
    CostError,
    CostReport,
    Shape,
    count_arch,
    count_block,
    ibn_equivalent_width,
    ibn_pointwise_macs,
    propagate_shapes,
    split_mlp_mac_ratio,
)
from .scaler import (
    Budget,
    DEFAULT_GRID,
    MultiplierGrid,
    ScaleCandidate,
    enumerate_candidates,
    filter_budget,
    pareto_frontier,
    select_max_mass,
)
from .topology import (
    MassReport,
    TopologyError,
    average_degree,
    ldi_bounds,
    log2_montufar_bound,
    nn_mass,
    nonlinear_units,
    proportionality_constant,
)

__version__ = "0.1.0"
