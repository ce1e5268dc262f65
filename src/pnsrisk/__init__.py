"""Learning representations that are sufficient and necessary causes of labels.

The package has three layers.  Exact machinery: discrete structural
causal models with counterfactual probability-of-necessity/sufficiency
oracles (`pns`), and indicator risk estimators with divergence and
deviation bounds (`risk`).  Learned machinery: a small reverse-mode
autodiff core (`autodiff`), Gaussian encoders and linear labelers
(`model`), and the adversarial training loop (`train`).  Harness: the
planted-factor synthetic benchmark (`synth`), distance-correlation
evaluation (`evaluate`), and the `pnsrisk` command line (`cli`).  Every
random draw comes from a keyed Philox stream (`streams`).

It re-exports each module's __all__ (no two share a name), so
`pnsrisk.train` and `pnsrisk.evaluate` are functions, not modules.
"""

from . import autodiff, evaluate, model, pns, risk, streams, synth, train

__version__ = "0.1.0"
__all__ = ["__version__"] + [name for module in (autodiff, evaluate, model, pns, risk, streams,
                                                 synth, train) for name in module.__all__]

from .autodiff import *  # noqa: E402,F401,F403
from .evaluate import *  # noqa: E402,F401,F403
from .model import *  # noqa: E402,F401,F403
from .pns import *  # noqa: E402,F401,F403
from .risk import *  # noqa: E402,F401,F403
from .streams import *  # noqa: E402,F401,F403
from .synth import *  # noqa: E402,F401,F403
from .train import *  # noqa: E402,F401,F403
