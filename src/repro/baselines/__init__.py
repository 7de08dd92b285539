"""Baselines the paper compares against (Section 5), built from scratch:

* :mod:`repro.baselines.linear_scan` — exact kNN by scanning everything
  (:func:`repro.datasets.exact_knn` plus the scan's I/O charge),
* :mod:`repro.baselines.c2lsh` — C2LSH (Gan et al., SIGMOD 2012) built in
  the l1 space, with the paper's post-hoc ``lp`` re-ranking comparator
  setup,
* :mod:`repro.baselines.e2lsh` — classic E2LSH (Datar et al., SCG 2004)
  with compound hash tables per radius,
* :mod:`repro.baselines.srs` — SRS (Sun et al., PVLDB 2014) with 2-stable
  projections and chi-squared early termination,
* :mod:`repro.baselines.multiprobe` — multi-probe LSH (Lv et al., VLDB
  2007) as a related-work extension, reading E2LSH's compound tables,
* :mod:`repro.baselines.lsb` — the LSB-forest (Tao et al., TODS 2010),
  the first no-per-radius LSH structure (Sec. 6.2).

Every one is called as LazyLSH is — ``build(data)``, then
``knn(query, k, p=...)`` with ``p`` by keyword — refuses bad data,
queries and ``k`` with LazyLSH's checks (:func:`repro.api.check_points`,
:func:`repro.api.check_k`) and answers with :class:`repro.api.SearchResult`.
"""

from repro.baselines.c2lsh import C2LSH
from repro.baselines.e2lsh import E2LSH
from repro.baselines.linear_scan import LinearScan
from repro.baselines.lsb import LSBForest
from repro.baselines.multiprobe import MultiProbeLSH
from repro.baselines.srs import SRS

__all__ = ["C2LSH", "E2LSH", "LSBForest", "LinearScan", "MultiProbeLSH", "SRS"]
