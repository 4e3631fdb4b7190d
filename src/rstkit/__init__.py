"""rstkit: treebank tooling and a pluggable end-to-end pipeline for RST.

Subpackages by pipeline stage:

* :mod:`rstkit.core`       domain types (trees, documents, corpora)
* :mod:`rstkit.treebank`   .rs3 parsing (a multinuclear group is read as a
                           right-branching binary cascade), canonical
                           JSON-lines corpus format
* :mod:`rstkit.preprocess` relation remapping, forest splitting, filtering
* :mod:`rstkit.crf`        linear-chain CRF EDU segmenter
* :mod:`rstkit.decoder`    top-down span-splitting tree decoder
* :mod:`rstkit.dwa`        windowed dynamic-weight-average loss scheduler
* :mod:`rstkit.metrics`    original-Parseval micro F1, segmentation F1,
                           corpus statistics
* :mod:`rstkit.cli`        the ``rstkit`` command
"""

__version__ = "0.1.0"

from .core import (
    Constituent,
    Corpus,
    DocumentRecord,
    EduSpan,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    Split,
    enumerate_constituents,
)

__all__ = [
    "__version__",
    "Constituent",
    "Corpus",
    "DocumentRecord",
    "EduSpan",
    "Nuclearity",
    "RelationLabel",
    "RstError",
    "RstTree",
    "Split",
    "enumerate_constituents",
]
