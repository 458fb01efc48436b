"""compforge: compositional test set construction + re-encoding decoder engine.

Two halves that share only corpus conventions:

* detection — OOV screening, a frequent n-gram dictionary, minimum-cover
  compositional degrees, ensemble disagreement scoring, and band sampling,
  orchestrated by :func:`compforge.pipeline.run_pipeline`;
* engine — a deterministic numpy transformer forward pass with adaptive
  interval re-encoding, in :mod:`compforge.engine`.
"""

from compforge.corpus import (
    ParallelExample,
    VocabCounts,
    build_vocab_counts,
    filter_oov,
    load_parallel_corpus,
    side_tokens,
)
from compforge.cover import (
    CompositionalDegree,
    CoverResult,
    PoolSelection,
    compositional_degree,
    degree_of,
    min_cover,
    select_candidate_pool,
)
from compforge.errors import CompforgeError, ConfigError, DataError, StageError
from compforge.ngrams import NGramDictionary, build_ngram_dictionary
from compforge.novelty import (
    NoveltyReport,
    TaggedSentence,
    benchmark_report,
    novel_ngram_count,
)
from compforge.pipeline import PipelineConfig, PipelineManifest, run_pipeline, score_pool
from compforge.uncertainty import (
    EnsembleTokenDistributions,
    UncertaintyScore,
    band_select,
    token_uncertainties,
)

__version__ = "0.1.0"

__all__ = [
    "ParallelExample",
    "VocabCounts",
    "build_vocab_counts",
    "filter_oov",
    "load_parallel_corpus",
    "side_tokens",
    "CompositionalDegree",
    "CoverResult",
    "PoolSelection",
    "compositional_degree",
    "degree_of",
    "min_cover",
    "select_candidate_pool",
    "CompforgeError",
    "ConfigError",
    "DataError",
    "StageError",
    "NGramDictionary",
    "build_ngram_dictionary",
    "NoveltyReport",
    "TaggedSentence",
    "benchmark_report",
    "novel_ngram_count",
    "PipelineConfig",
    "PipelineManifest",
    "run_pipeline",
    "score_pool",
    "EnsembleTokenDistributions",
    "UncertaintyScore",
    "band_select",
    "token_uncertainties",
    "__version__",
]
