"""Training-free scaling, MAC/parameter cost modeling, topological mass metrics, and
analytic block restructuring for convolutional architectures."""

__version__ = "0.1.0"
