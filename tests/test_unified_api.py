"""Tests for the unified search API surface (repro.api).

Covers the shared ``SearchRequest``/``SearchResult`` core: request
validation, the versioned wire codec, the rejection of positional
tuning arguments, the common result protocol, and the streaming
``IOStats.merge``/``aggregate_io`` aggregation.
"""

import numpy as np
import pytest

from repro import (
    BatchKnnResult,
    IOStats,
    MultiQueryEngine,
    MultiQueryResult,
    SearchRequest,
    SearchResult,
    aggregate_io,
    knn_batch,
)
from repro.api import WIRE_VERSION, SearchResultLike
from repro.errors import InvalidParameterError, WireFormatError


class TestSearchRequestValidation:
    def test_rejects_bad_fields(self):
        q = np.zeros(4)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=0)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, cap=2)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, radius=0.0)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, metrics=())
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, metrics=(0.5,), radius=1.0)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, engine="gpu")

    def test_normalises_metrics_to_floats(self):
        request = SearchRequest(query=np.zeros(4), k=5, metrics=[1, 0.5])
        assert request.metrics == (1.0, 0.5)

    def test_rejects_non_finite_queries(self):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SearchRequest(query=[1.0, np.nan, 3.0], k=1)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SearchRequest(query=[1.0, np.inf], k=1)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SearchRequest(query=np.array([[-np.inf, 0.0]]), k=1)

    def test_rejects_malformed_queries(self):
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=[], k=1)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=np.zeros((2, 2, 2)), k=1)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=["a", "b"], k=1)

    def test_rejects_bad_deadline(self):
        q = np.zeros(4)
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            SearchRequest(query=q, k=1, deadline_ms=0)
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            SearchRequest(query=q, k=1, deadline_ms=-10.0)
        assert SearchRequest(query=q, k=1, deadline_ms=5.0).deadline_ms == 5.0

    def test_rejects_non_hex_request_id(self):
        q = np.zeros(4)
        for bad in ("", "xyz", "dead-beef", "r1"):
            with pytest.raises(InvalidParameterError, match="hex"):
                SearchRequest(query=q, k=1, request_id=bad)
        assert SearchRequest(query=q, k=1, request_id="aB12").request_id


class TestWireCodec:
    def test_round_trip_preserves_every_field(self):
        request = SearchRequest(
            query=[1.0, 2.0, 3.0], k=4, p=0.7, cap=9.0,
            engine="scalar", request_id="c0ffee", deadline_ms=25.0,
        )
        record = request.to_dict()
        assert record["v"] == WIRE_VERSION
        decoded = SearchRequest.from_dict(record)
        np.testing.assert_array_equal(decoded.query, request.query)
        assert decoded.k == 4
        assert decoded.p == 0.7
        assert decoded.cap == 9.0
        assert decoded.engine == "scalar"
        assert decoded.request_id == "c0ffee"
        assert decoded.deadline_ms == 25.0
        assert decoded.to_dict() == record

    def test_round_trip_metrics_and_trace_context(self):
        from repro.obs.trace_context import TraceContext

        ctx = TraceContext.new(sampled=True)
        request = SearchRequest(
            query=np.arange(3.0), k=2, metrics=(1.0, 0.5),
            trace_context=ctx,
        )
        record = request.to_dict()
        assert record["metrics"] == [1.0, 0.5]
        assert "p" not in record  # metrics wins; only one is emitted
        decoded = SearchRequest.from_dict(record)
        assert decoded.metrics == (1.0, 0.5)
        assert decoded.trace_context.trace_id == ctx.trace_id
        assert decoded.trace_context.sampled

    def test_rejects_unknown_keys(self):
        record = {"v": 1, "query": [1.0], "k": 1, "K": 2, "qyery": [1.0]}
        with pytest.raises(WireFormatError, match="unknown request field"):
            SearchRequest.from_dict(record)

    def test_rejects_missing_required_keys(self):
        with pytest.raises(WireFormatError, match="version field"):
            SearchRequest.from_dict({"query": [1.0], "k": 1})
        with pytest.raises(WireFormatError, match="missing required"):
            SearchRequest.from_dict({"v": 1, "k": 1})
        with pytest.raises(WireFormatError, match="missing required"):
            SearchRequest.from_dict({"v": 1, "query": [1.0]})

    def test_rejects_wrong_version_and_shape(self):
        with pytest.raises(WireFormatError, match="unsupported wire version"):
            SearchRequest.from_dict({"v": 2, "query": [1.0], "k": 1})
        with pytest.raises(WireFormatError, match="JSON object"):
            SearchRequest.from_dict([1, 2, 3])
        with pytest.raises(WireFormatError, match="k must be an integer"):
            SearchRequest.from_dict({"v": 1, "query": [1.0], "k": "ten"})
        with pytest.raises(WireFormatError, match="metrics"):
            SearchRequest.from_dict(
                {"v": 1, "query": [1.0], "k": 1, "metrics": "l2"}
            )

    def test_decoded_requests_still_validate_domains(self):
        # Structural codec passes; the constructor's domain checks fire.
        with pytest.raises(InvalidParameterError):
            SearchRequest.from_dict({"v": 1, "query": [np.nan], "k": 1})
        with pytest.raises(InvalidParameterError):
            SearchRequest.from_dict({"v": 1, "query": [1.0], "k": 0})

    def test_wire_format_error_is_a_value_error(self):
        # Client code catching ValueError keeps working.
        with pytest.raises(ValueError):
            SearchRequest.from_dict("not a dict")

    def test_search_result_wire_form_is_versioned(self):
        result = SearchResult(
            ids=np.array([3, 1]), distances=np.array([0.5, 1.5]),
            p=1.0, k=2,
        )
        record = result.to_dict()
        assert record["v"] == WIRE_VERSION
        assert record["ids"] == [3, 1]
        assert record["distances"] == [0.5, 1.5]


class TestDeprecatedPositionals:
    """The positional tuning forms were deprecated and are now removed:
    ``p``/``metrics`` are keyword-only on every entry point."""

    def test_extra_positionals_are_type_errors(
        self, built_index, small_split
    ):
        query = small_split.queries[0]
        for extra in ((0.8,), (0.8, "flat")):
            with pytest.raises(TypeError, match="positional argument"):
                built_index.knn(query, 5, *extra)
            with pytest.raises(TypeError, match="positional argument"):
                knn_batch(built_index, small_split.queries, 5, *extra)
        with pytest.raises(TypeError, match="positional argument"):
            MultiQueryEngine(built_index).knn(query, 5, (0.5, 1.0))


class TestResultProtocol:
    def test_every_result_type_satisfies_protocol(
        self, built_index, small_split
    ):
        query = small_split.queries[0]
        knn_result = built_index.knn(query, 5, p=0.8)
        multi = MultiQueryEngine(built_index).knn(
            query, 5, metrics=(0.5, 1.0)
        )
        batch = knn_batch(built_index, small_split.queries[:2], 5, p=0.8)
        for result in (knn_result, multi, batch):
            assert isinstance(result, SearchResultLike)
            assert set(result.to_dict()) >= {"io"}

    def test_multi_result_parts_keyed_by_metric(
        self, built_index, small_split
    ):
        multi = MultiQueryEngine(built_index).knn(
            small_split.queries[0], 5, metrics=(0.5, 1.0)
        )
        assert isinstance(multi, MultiQueryResult)
        assert set(multi.ids) == {0.5, 1.0}
        assert set(multi.termination) == {0.5, 1.0}

    def test_batch_result_parts_in_query_order(
        self, built_index, small_split
    ):
        batch = knn_batch(built_index, small_split.queries[:3], 5, p=0.8)
        assert isinstance(batch, BatchKnnResult)
        assert len(batch.ids) == 3
        for result in batch.results:
            assert isinstance(result, SearchResult)


class TestIOAggregation:
    def test_merge_is_streaming_and_chains(self):
        total = IOStats()
        assert total.merge(IOStats(sequential=2, random=3)) is total
        total.merge(IOStats(sequential=5)).merge(IOStats(random=7))
        assert (total.sequential, total.random) == (7, 10)

    def test_merge_rejects_negative(self):
        with pytest.raises(ValueError):
            IOStats().merge(IOStats(sequential=-1))

    def test_aggregate_io_accepts_results_and_raw_stats(self):
        parts = [IOStats(sequential=1), IOStats(random=2)]
        assert aggregate_io(parts).total == 3
        wrapped = [
            SimpleResult(IOStats(sequential=4)),
            SimpleResult(IOStats(random=6)),
        ]
        total = aggregate_io(wrapped)
        assert (total.sequential, total.random) == (4, 6)

    def test_batch_io_equals_fold_of_parts(self, built_index, small_split):
        batch = knn_batch(built_index, small_split.queries, 5, p=0.8)
        assert batch.io == aggregate_io(batch.results)


class SimpleResult:
    def __init__(self, io: IOStats) -> None:
        self.io = io
