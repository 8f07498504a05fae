"""Unsupervised hyperspectral image clustering.

Pixels are scored by density and spectral purity, spectra are denoised by
shape-adaptive neighborhood reconstruction, and clusters grow from modes of
a diffusion-geometry score.  See :mod:`dsirc.clustering` for the pipelines
(``dsirc``, ``dvic``, and ``mode_grid`` over parameter grids) and baselines,
:mod:`dsirc.cli` for the command line.
"""

from .clustering import (
    ClusterConfig,
    Clustering,
    DensityField,
    ZetaField,
    auto_sigma0,
    dsirc,
    dt_values,
    dvic,
    kde_density,
    kmeans,
    mode_grid,
    propagate_labels,
    select_modes,
    spectral_clustering,
    zeta,
)
from .core import (
    DegenerateCovarianceError,
    EnviFormatError,
    ImageCube,
    LabelMap,
    PixelCloud,
    cube_to_cloud,
    first_pc,
    load_envi,
    write_envi,
)
from .diffusion import (
    DiffusionSystem,
    DisconnectedGraphError,
    KnnGraph,
    diffusion_system,
    knn_graph,
    knn_indices,
    nearest_in_diffusion,
)
from .evaluation import align_labels, cohens_kappa, confusion_counts, overall_accuracy
from .sar import (
    IciConfig,
    estimate_noise_sigma,
    sar,
)
from .synth import SynthConfig, SynthScene, synth_hsi
from .unmixing import (
    PurityField,
    RankDeficientDataError,
    UnmixingModel,
    avmax,
    hysime,
    purity,
    unmix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ImageCube",
    "PixelCloud",
    "LabelMap",
    "EnviFormatError",
    "DegenerateCovarianceError",
    "load_envi",
    "write_envi",
    "cube_to_cloud",
    "first_pc",
    # sar
    "IciConfig",
    "estimate_noise_sigma",
    "sar",
    # unmixing
    "UnmixingModel",
    "PurityField",
    "RankDeficientDataError",
    "hysime",
    "avmax",
    "purity",
    "unmix",
    # diffusion
    "KnnGraph",
    "DiffusionSystem",
    "DisconnectedGraphError",
    "knn_indices",
    "knn_graph",
    "diffusion_system",
    "nearest_in_diffusion",
    # clustering
    "ClusterConfig",
    "Clustering",
    "DensityField",
    "ZetaField",
    "auto_sigma0",
    "kde_density",
    "zeta",
    "dt_values",
    "select_modes",
    "propagate_labels",
    "mode_grid",
    "dsirc",
    "dvic",
    "kmeans",
    "spectral_clustering",
    # evaluation
    "confusion_counts",
    "align_labels",
    "overall_accuracy",
    "cohens_kappa",
    # synth
    "SynthConfig",
    "SynthScene",
    "synth_hsi",
]
