"""Unit tests for the cross-shard flight recorder."""

import pytest

from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.recorder import TelemetryRecorder


class TestConfig:
    def test_defaults(self):
        config = FlightRecorderConfig()
        assert config.sample_every == 256
        assert config.capacity == 65_536
        assert config.window == 2_048

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every": 0},
            {"capacity": 0},
            {"window": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FlightRecorderConfig(**kwargs)

    def test_unbounded_capacity(self):
        assert FlightRecorderConfig(capacity=None).capacity is None


class TestBinding:
    def test_rejects_invalid_sources(self):
        with pytest.raises(ValueError):
            FlightRecorder().bind(0)

    def test_sample_every_before_bind_is_configured(self):
        flight = FlightRecorder(FlightRecorderConfig(sample_every=64))
        assert flight.sample_every == 64

    @pytest.mark.parametrize(
        "every,sources,effective",
        [
            (64, 4, 65),  # gcd(64, 4) = 4 -> bumped to the next coprime
            (64, 3, 64),  # already coprime
            (256, 8, 257),
            (6, 4, 7),
            (1, 8, 1),  # every tuple; 1 is coprime with everything
        ],
    )
    def test_stride_bumped_to_coprime(self, every, sources, effective):
        flight = FlightRecorder(FlightRecorderConfig(sample_every=every))
        flight.bind(sources)
        assert flight.sample_every == effective
        # the whole point: a stream-global stride coprime with s visits
        # every residue class, i.e. every shard gets sampled
        visited = {
            (j * flight.sample_every) % sources for j in range(sources)
        }
        assert visited == set(range(sources))

    def test_rebind_resets_state(self):
        flight = FlightRecorder()
        flight.bind(2)
        flight.record_fold(0, at=5, epoch=1, folded=3)
        flight.bind(2)
        assert flight.timelines() == ((), ())
        assert flight.dropped_events == 0


class TestCapacityPrefixKeep:
    def test_overflow_keeps_prefix_and_counts_drops(self):
        flight = FlightRecorder(FlightRecorderConfig(capacity=3))
        flight.bind(1)
        for at in range(1, 6):
            flight.record_matrices(0, at=at, instance=0)
        timeline = flight.timelines()[0]
        # the *first* three events survive (prefix, not sliding window)
        assert [event[1] for event in timeline] == [1, 2, 3]
        assert flight.dropped_events == 2
        report = flight.report()
        assert report["per_shard"][0]["events"] == 3
        assert report["per_shard"][0]["dropped_events"] == 2
        # dropped events are not counted as captured
        assert report["per_shard"][0]["matrices"] == 3

    def test_capacity_is_per_shard(self):
        flight = FlightRecorder(FlightRecorderConfig(capacity=2))
        flight.bind(2)
        for at in range(1, 4):
            flight.record_matrices(0, at=at, instance=0)
        flight.record_matrices(1, at=1, instance=0)
        assert len(flight.timelines()[0]) == 2
        assert len(flight.timelines()[1]) == 1
        assert flight.dropped_events == 1


class TestTimelines:
    def test_event_shapes(self):
        flight = FlightRecorder()
        flight.bind(2)
        flight.record_sync_request(0, at=10, instance=1, epoch=2)
        flight.record_sync_reply(0, at=12, instance=1, epoch=2, stale=False)
        flight.record_fold(0, at=13, epoch=2, folded=4)
        flight.record_matrices(1, at=9, instance=3)
        flight.record_route(1, index=21, instance=0, believed=[1.0, 2.0])
        assert flight.timelines() == (
            (
                ("sync_request", 10, 1, 2),
                ("sync_reply", 12, 1, 2, False),
                ("fold", 13, 2, 4),
            ),
            (
                ("matrices", 9, 3),
                ("route", 21, 0, (1.0, 2.0)),
            ),
        )

    def test_fold_positions_map_to_global_indices(self):
        flight = FlightRecorder()
        flight.bind(4)
        # shard 2's 5th scheduled tuple is global index 2 + 4 * 4 = 18
        flight.record_fold(2, at=5, epoch=1, folded=2)
        assert flight.report()["per_shard"][2]["lane"] == [["fold", 18]]

    def test_staleness_tracks_snapshot_age(self):
        flight = FlightRecorder()
        flight.bind(1)
        flight.record_fold(0, at=10, epoch=1, folded=1)  # global index 9
        flight.record_route(0, index=15, instance=0, believed=[0.0])
        flight.record_route(0, index=29, instance=0, believed=[0.0])
        shard = flight.report()["per_shard"][0]
        assert shard["staleness_max"] == 20
        assert shard["staleness_mean"] == pytest.approx((6 + 20) / 2)


class TestReportAndMetrics:
    def test_report_shape(self):
        flight = FlightRecorder(FlightRecorderConfig(sample_every=64))
        flight.bind(2)
        flight.record_route(0, index=0, instance=1, believed=[1.0, 2.0])
        report = flight.report()
        assert report["schema"] == "posg-flight/v1"
        assert report["sources"] == 2
        assert report["events_total"] == 1
        assert {s["shard"] for s in report["per_shard"]} == {0, 1}
        assert report["per_shard"][0]["lane"] == [["route", 0]]

    def test_lane_downsampled(self):
        flight = FlightRecorder(FlightRecorderConfig(capacity=None))
        flight.bind(1)
        for index in range(2_000):
            flight.record_route(0, index=index, instance=0, believed=[0.0])
        lane = flight.report()["per_shard"][0]["lane"]
        assert len(lane) <= 513
        assert lane[-1] == ["route", 1_999]  # the last event is kept

    def test_prometheus_samples_labeled_by_shard(self):
        with TelemetryRecorder() as recorder:
            flight = FlightRecorder(telemetry=recorder)
            flight.bind(2)
            flight.record_fold(1, at=3, epoch=1, folded=2)
            text = recorder.registry.to_prometheus()
        assert 'posg_flight_events_total{shard="0"} 0' in text
        assert 'posg_flight_events_total{shard="1"} 1' in text
        assert 'posg_flight_folds_total{shard="1"} 1' in text
        assert 'posg_flight_dropped_events_total{shard="0"} 0' in text
        assert 'posg_flight_staleness_tuples_mean{shard="0"}' in text

