"""Degree-2 detection outputs pinned bit for bit.

Served court-side checks run multi-hash detection over degree-2
summaries, where each characteristic subset is only a few items long.
These values were recorded from the per-run-length array form of
``MultihashEncoding.detect``; any later form of the kernel must
reproduce them exactly: summary, both bucket lists and abstentions, for
the right key (a decisive 3-bit verdict) and for a wrong one (balanced
noise).
"""

from __future__ import annotations

import pytest

from repro import WatermarkParams, detect_watermark, watermark_stream
from repro.streams import TemperatureSensorGenerator
from repro.transforms.summarization import summarize

KEY = b"degree2-pin-key"
PARAMS = WatermarkParams(phi=6)

PINNED = {
    KEY: dict(
        summary={"items": 6000, "extremes": 306, "majors": 306,
                 "selected": 137, "warmup_skips": 30, "abstentions": 3,
                 "total_bias": 116, "bias_bit0": 27},
        buckets_true=[30, 2, 42], buckets_false=[3, 53, 4], abstentions=3),
    b"some-other-key": dict(
        summary={"items": 6000, "extremes": 306, "majors": 306,
                 "selected": 145, "warmup_skips": 30, "abstentions": 8,
                 "total_bias": 13, "bias_bit0": -7},
        buckets_true=[17, 21, 24], buckets_false=[24, 26, 25],
        abstentions=8),
}


@pytest.fixture(scope="module")
def summarized():
    stream = TemperatureSensorGenerator(eta=80, seed=21).generate(12000)
    marked, _ = watermark_stream(stream, watermark="101", key=KEY,
                                 params=PARAMS)
    return summarize(marked, 2)


@pytest.mark.parametrize("key", list(PINNED))
def test_degree2_detection_pinned(summarized, key):
    result = detect_watermark(summarized, 3, key, params=PARAMS,
                              transform_degree=2)
    want = PINNED[key]
    assert result.summary() == want["summary"]
    assert list(result.buckets_true) == want["buckets_true"]
    assert list(result.buckets_false) == want["buckets_false"]
    assert result.abstentions == want["abstentions"]


def test_right_key_recovers_payload(summarized):
    result = detect_watermark(summarized, 3, KEY, params=PARAMS,
                              transform_degree=2)
    assert result.wm_estimate() == [True, False, True]
