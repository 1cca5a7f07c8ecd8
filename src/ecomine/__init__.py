"""ecomine: mine ecological entities from an invasion-biology corpus.

Workflow: harvest a DOI-keyed corpus, let a completion provider propose
per-paper extraction schemas (specialize), merge them into one
standardized schema (generalize), populate that schema for every paper
(extract), then aggregate the results into frequency tables and
habitat-ecosystem linkages (analyze).
"""

__version__ = "0.1.0"
