"""Exact kNN by linear scan, with the paper's simulated-I/O accounting.

The linear-scan baseline of Appendix B.2 reads the entire dataset
sequentially (one sequential I/O per 4 KB page of raw vectors) and computes
every distance.  It is exact: its neighbours are
:func:`repro.datasets.exact_knn`'s, the ground truth of the overall-ratio
metric, and the scan adds only the cost of reading the file.
"""

from __future__ import annotations

from repro._typing import PointMatrix, PointVector
from repro.api import SearchResult, check_k, check_points
from repro.datasets.ground_truth import exact_knn
from repro.metrics.lp import validate_p
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout

#: Bytes per stored coordinate in the simulated raw file (float32, as the
#: datasets are small-integer valued).
_VALUE_SIZE = 4


class LinearScan:
    """Exact kNN over a raw vector file.

    Parameters
    ----------
    data:
        The ``(n, d)`` dataset.
    page_size:
        Simulated page size for the sequential-scan cost model.
    """

    def __init__(self, data: PointMatrix, *, page_size: int = 4096) -> None:
        self._data = check_points(data, "data")
        self._layout = PageLayout(page_size=page_size, entry_size=_VALUE_SIZE)
        self.io_stats = IOStats()

    @property
    def num_points(self) -> int:
        """Cardinality of the dataset."""
        return self._data.shape[0]

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the dataset."""
        return self._data.shape[1]

    def scan_cost_pages(self) -> int:
        """Sequential pages one full scan of the raw file costs."""
        n, d = self._data.shape
        return self._layout.pages_for_bytes(n * d * _VALUE_SIZE)

    def knn(self, query: PointVector, k: int, *, p: float = 1.0) -> SearchResult:
        """Exact ``k`` nearest neighbours of ``query`` under ``lp``."""
        query = check_points(query, "query", width=self.dimensionality, vector=True)
        p = validate_p(p)
        check_k(k, self.num_points)
        ids, dists = exact_knn(self._data, query, k, p)
        stats = IOStats()
        stats.add_sequential(self.scan_cost_pages())
        self.io_stats.merge(stats)
        return SearchResult(ids=ids[0], distances=dists[0], p=p, k=k, io=stats)
