"""keypose: exact data processing for keypoint estimation pipelines.

The library covers three layers:

* coordinate-system transforms and image warping over continuous planes
  (:mod:`keypose.geometry`, :mod:`keypose.raster`),
* keypoint/heatmap codecs with unbiased and deliberately biased decoders
  (:mod:`keypose.codec`),
* composite train/test/flip pipelines plus an ideal-network bias lab that
  measures every systematic error those pipelines produce
  (:mod:`keypose.pipeline`, :mod:`keypose.biaslab`).

``keypose.dataio`` ingests COCO-style annotations and emits reports; the
``keypose`` command line fronts all of it.
"""

# Each module's ``__all__`` is the one statement of its public API.
from .biaslab import *  # noqa: F403
from .codec import *  # noqa: F403
from .dataio import *  # noqa: F403
from .geometry import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .raster import *  # noqa: F403

__version__ = "0.1.0"
