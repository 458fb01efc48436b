"""compforge: compositional test set construction + re-encoding decoder engine.

Two halves that share only corpus conventions:

* detection — OOV screening, a frequent n-gram dictionary, minimum-cover
  compositional degrees, ensemble disagreement scoring, and band sampling,
  orchestrated by :func:`compforge.pipeline.run_pipeline`;
* engine — a deterministic numpy transformer forward pass with adaptive
  interval re-encoding, in :mod:`compforge.engine`.

The API is imported from these submodules; the package root re-exports nothing.
"""

__version__ = "0.1.0"
