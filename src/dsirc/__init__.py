"""Unsupervised hyperspectral image clustering.

Pixels are scored by density and spectral purity, spectra are denoised by
shape-adaptive neighborhood reconstruction, and clusters grow from modes of
a diffusion-geometry score.  See :mod:`dsirc.clustering` for the pipelines
(``dsirc``, ``dvic``, and ``mode_grid`` over parameter grids) and baselines,
:mod:`dsirc.cli` for the command line.
"""

from . import clustering, core, diffusion, evaluation, sar, synth, unmixing

__version__ = "0.1.0"

# Names in the modules' ``__all__`` lists that the package does not
# re-export: the CLI's label writers and palette, SaR's ray directions,
# unmixing's inner steps, and the console script's entry point (the package
# does not import the CLI).
_LEFT_OUT = frozenset(
    {
        "LABEL_PALETTE",
        "label_colors",
        "read_labels_csv",
        "write_labels_csv",
        "write_label_pgm",
        "write_label_ppm",
        "DIRECTION_STEPS",
        "abundances",
        "project_affine_pca",
        "main",
    }
)

__all__ = ["__version__"]
for _module in (core, sar, unmixing, diffusion, clustering, evaluation, synth):
    for _name in _module.__all__:
        if _name not in _LEFT_OUT:
            globals()[_name] = getattr(_module, _name)
            __all__.append(_name)
del _module, _name
