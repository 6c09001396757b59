"""Watermark detection with majority-voting buckets (paper Fig 4).

Detection mirrors the embedding scan: the same window discipline, the
same extreme/label/selection machinery.  For every selected extreme the
encoding strategy produces a :class:`Vote` (true-pattern hits vs
false-pattern hits over the recovered subset); votes accumulate in the
per-bit buckets ``wm[i]^T`` / ``wm[i]^F``, and ``wm_construct``
(:meth:`DetectionResult.wm_estimate`) decides each bit by bucket
difference against the threshold κ — bits whose difference stays within
κ remain *undefined*, which is exactly how un-watermarked data presents.

The detector accepts a known transform degree ρ (stream-rate ratio,
Sec 4.2), or an externally estimated one via
:func:`repro.core.degree.estimate_degree`; majorness is tested at the
adjusted degree σ/ρ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.confidence import confidence_from_bias, exact_bias_fp
from repro.core.degree import adjusted_sigma, estimate_degree
from repro.core.encoding_factory import build_encoding
from repro.core.extremes import Extreme
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.core.scanner import ScanCounters, StreamScanner
from repro.core.watermark import to_bits
from repro.errors import DetectionError, ParameterError
from repro.util.hashing import KeyedHasher


@dataclass
class DetectionResult:
    """Voting buckets plus derived verdicts for one detection run."""

    buckets_true: list[int]
    buckets_false: list[int]
    counters: ScanCounters
    abstentions: int
    vote_threshold: int

    # ------------------------------------------------------------------
    @property
    def wm_length(self) -> int:
        """Number of watermark bits being reconstructed."""
        return len(self.buckets_true)

    def bias(self, bit_index: int = 0) -> int:
        """``wm[i]^T - wm[i]^F`` — the figures' "detected watermark bias"."""
        self._check_index(bit_index)
        return self.buckets_true[bit_index] - self.buckets_false[bit_index]

    @property
    def total_bias(self) -> int:
        """Net votes toward the embedded payload across all bits.

        For bit i, "toward the payload" cannot be known without the
        payload; this sums |T - F| signed by the majority, which equals
        bias for the common one-bit case and is reported by the
        resilience experiments.
        """
        return sum(abs(t - f) for t, f in zip(self.buckets_true,
                                              self.buckets_false))

    def votes(self, bit_index: int = 0) -> int:
        """Total votes cast for one bit (``T + F``)."""
        self._check_index(bit_index)
        return self.buckets_true[bit_index] + self.buckets_false[bit_index]

    def wm_estimate(self, threshold: "int | None" = None
                    ) -> "list[bool | None]":
        """Per-bit decision: True / False / None (undefined), Fig 4's
        ``wm_construct`` with threshold κ."""
        kappa = self.vote_threshold if threshold is None else threshold
        if kappa < 0:
            raise ParameterError(f"threshold must be >= 0, got {kappa}")
        estimate: "list[bool | None]" = []
        for t, f in zip(self.buckets_true, self.buckets_false):
            if t - f > kappa:
                estimate.append(True)
            elif f - t > kappa:
                estimate.append(False)
            else:
                estimate.append(None)
        return estimate

    def confidence(self, bit_index: int = 0) -> float:
        """Footnote-5 confidence ``1 - 2^-bias`` for one bit."""
        return confidence_from_bias(self.bias(bit_index))

    def exact_false_positive(self, bit_index: int = 0) -> float:
        """Exact binomial tail for this bit's bias under the null."""
        return exact_bias_fp(self.votes(bit_index), self.bias(bit_index))

    def match_fraction(self, watermark) -> float:
        """Fraction of *decided* bits matching an expected payload.

        Undefined bits are excluded from the denominator; returns 0.0
        when no bit was decided.
        """
        expected = to_bits(watermark)
        if len(expected) != self.wm_length:
            raise DetectionError(
                f"expected payload has {len(expected)} bits, detector ran "
                f"with {self.wm_length}"
            )
        decided = [(est, exp) for est, exp in zip(self.wm_estimate(), expected)
                   if est is not None]
        if not decided:
            return 0.0
        return sum(est == exp for est, exp in decided) / len(decided)

    def recovered_bits(self) -> "list[bool | None]":
        """Alias of :meth:`wm_estimate` with the configured threshold."""
        return self.wm_estimate()

    def summary(self) -> dict:
        """Flat dict for logging / EXPERIMENTS.md tables."""
        c = self.counters
        return {
            "items": c.items,
            "extremes": c.extremes_confirmed,
            "majors": c.majors,
            "selected": c.selected,
            "warmup_skips": c.warmup_skips,
            "abstentions": self.abstentions,
            "total_bias": self.total_bias,
            "bias_bit0": self.bias(0) if self.wm_length else 0,
        }

    def _check_index(self, bit_index: int) -> None:
        if not 0 <= bit_index < self.wm_length:
            raise ParameterError(
                f"bit index {bit_index} outside watermark of {self.wm_length}"
            )


class StreamDetector(StreamScanner):
    """Streaming detector: feed (possibly transformed) chunks, read votes.

    Parameters
    ----------
    wm_length:
        Number of payload bits to reconstruct (or pass the expected
        payload itself — its length is used).
    key, params, encoding:
        Must match the embedding configuration (they are the secret).
    transform_degree:
        Known or estimated ρ; majorness runs at σ/ρ (Sec 4.2).
    """

    def __init__(self, wm_length, key,
                 params: "WatermarkParams | None" = None,
                 encoding="multihash", transform_degree: float = 1.0,
                 require_labels: bool = True,
                 encoding_options: "dict | None" = None) -> None:
        if not isinstance(wm_length, int):
            wm_length = len(to_bits(wm_length))
        if wm_length < 1:
            raise ParameterError(f"wm_length must be >= 1, got {wm_length}")
        params = params or WatermarkParams()
        if transform_degree < 1.0:
            raise ParameterError(
                f"transform_degree must be >= 1, got {transform_degree}"
            )
        quantizer = Quantizer(params.value_bits, params.avg_extra_bits)
        hasher = key if isinstance(key, KeyedHasher) else KeyedHasher(key)
        super().__init__(params, quantizer, hasher, wm_length,
                         effective_sigma=adjusted_sigma(params.sigma,
                                                        transform_degree),
                         require_labels=require_labels)
        self._encoding = build_encoding(encoding, params, quantizer, hasher,
                                        **(encoding_options or {}))
        self._buckets_true = [0] * wm_length
        self._buckets_false = [0] * wm_length
        self._abstentions = 0

    @property
    def wm_length(self) -> int:
        """Number of payload bits this detector reconstructs."""
        return len(self._buckets_true)

    def _handle_selected(self, extreme: Extreme, window_values: np.ndarray,
                         local: int, start: int, end: int, label: int,
                         bit_index: int) -> float:
        # window_values is already a contiguous float64 view; the
        # encoding only reads it, so no defensive copy is needed.
        subset = window_values[start:end + 1]
        vote = self._encoding.detect(subset, local - start, label)
        decision = vote.decision
        if decision is True:
            self._buckets_true[bit_index] += 1
        elif decision is False:
            self._buckets_false[bit_index] += 1
        else:
            self._abstentions += 1
        return self._reference_value(extreme, window_values, start, end)

    def result(self) -> DetectionResult:
        """Snapshot of the evidence accumulated so far."""
        return DetectionResult(
            buckets_true=list(self._buckets_true),
            buckets_false=list(self._buckets_false),
            counters=self.counters,
            abstentions=self._abstentions,
            vote_threshold=self._params.vote_threshold)

    def encoding_stats(self) -> dict:
        """Lifetime telemetry from the encoding strategy, if it keeps any.

        Detection never embeds, but encodings that count their probes
        (multi-hash) still accrue pattern probes here — the same
        pull-based observability hook the embedder exposes.
        """
        snapshot = getattr(self._encoding, "stats_snapshot", None)
        return snapshot() if snapshot is not None else {}

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def vote_state(self) -> dict:
        """JSON-compatible snapshot of the voting buckets."""
        return {
            "buckets_true": list(self._buckets_true),
            "buckets_false": list(self._buckets_false),
            "abstentions": self._abstentions,
        }

    def restore_vote_state(self, state: dict) -> None:
        """Load a :meth:`vote_state` snapshot into this detector."""
        buckets_true = [int(x) for x in state["buckets_true"]]
        buckets_false = [int(x) for x in state["buckets_false"]]
        if len(buckets_true) != len(self._buckets_true) \
                or len(buckets_false) != len(self._buckets_false):
            raise ParameterError(
                f"checkpoint holds {len(buckets_true)} vote buckets, "
                f"detector was built for {len(self._buckets_true)} bits"
            )
        self._buckets_true = buckets_true
        self._buckets_false = buckets_false
        self._abstentions = int(state["abstentions"])


def detect_best(values, wm_length, key,
                params: "WatermarkParams | None" = None,
                encoding="multihash",
                candidate_degrees: "list[float] | None" = None,
                reference_subset_size: "float | None" = None,
                expected=None,
                require_labels: bool = True,
                encoding_options: "dict | None" = None,
                workers: "int | None" = None
                ) -> tuple[DetectionResult, float]:
    """Multi-pass offline detection over candidate transform degrees.

    The paper lists "handling ability of offline multi-pass detection"
    among its improvements: when the transform applied by Mallory is
    unknown, the detector can afford several passes, one per candidate
    ρ, and keep the most decisive evidence.  By default the candidates
    are ρ = 1 (value-only attacks preserve the rate) plus the Sec-4.2
    subset-shrinkage estimate when a reference statistic is available.
    Candidate degrees are deduplicated at the same 0.25 tolerance the
    shrinkage estimate uses, so a caller-supplied list cannot enqueue a
    near-identical (and equally expensive) pass twice.

    ``expected`` (the payload the rights owner embedded, when known)
    scores each pass by the *signed* vote margin toward that payload;
    without it the unsigned total bias is used.  Each pass is scored
    exactly once; ties keep the earliest candidate (the scan is
    deterministic, so "strictly better replaces" and "first wins ties"
    together make the outcome order-stable).

    ``workers`` fans the passes across a process pool (they are
    independent scans of the same values); the winner is identical to
    the serial sweep because all results come back in candidate order.

    Returns ``(best_result, best_degree)``.  Note the multiple-
    comparisons caveat: testing k hypotheses scales the false-positive
    probability by at most k (Bonferroni), which is immaterial against
    the scheme's exponentially small Pfp values.
    """
    params = params or WatermarkParams()
    degrees: list[float] = []
    for degree in (candidate_degrees or [1.0]):
        if all(abs(float(degree) - d) > 0.25 for d in degrees):
            degrees.append(float(degree))
    if reference_subset_size is not None:
        estimated = estimate_degree(reference_subset_size, values,
                                    params.prominence, params.delta)
        if all(abs(estimated - d) > 0.25 for d in degrees):
            degrees.append(estimated)
    expected_bits = to_bits(expected) if expected is not None else None

    def score(result: DetectionResult) -> int:
        if expected_bits is None:
            return result.total_bias
        return sum((t - f) if bit else (f - t)
                   for t, f, bit in zip(result.buckets_true,
                                        result.buckets_false,
                                        expected_bits))

    if workers is not None and workers > 1 and len(degrees) > 1:
        from repro.core.parallel_detect import DetectionTask, run_tasks

        tasks = [DetectionTask(values=values, wm_length=wm_length, key=key,
                               params=params, encoding=encoding,
                               transform_degree=degree,
                               require_labels=require_labels,
                               encoding_options=encoding_options)
                 for degree in degrees]
        results = run_tasks(tasks, workers=workers)
    else:
        results = [detect_watermark(values, wm_length, key, params=params,
                                    encoding=encoding,
                                    transform_degree=degree,
                                    require_labels=require_labels,
                                    encoding_options=encoding_options)
                   for degree in degrees]

    best: "DetectionResult | None" = None
    best_score = 0
    best_degree = degrees[0]
    for degree, result in zip(degrees, results):
        result_score = score(result)
        if best is None or result_score > best_score:
            best = result
            best_score = result_score
            best_degree = degree
    assert best is not None  # degrees is never empty
    return best, best_degree


def detect_watermark(values, wm_length, key,
                     params: "WatermarkParams | None" = None,
                     encoding="multihash",
                     transform_degree: "float | str" = 1.0,
                     reference_subset_size: "float | None" = None,
                     require_labels: bool = True,
                     encoding_options: "dict | None" = None,
                     chunk_size: int = 4096,
                     workers: "int | None" = None,
                     spans: "int | None" = None) -> DetectionResult:
    """Offline detection over an in-memory (possibly transformed) stream.

    ``transform_degree="auto"`` estimates ρ from characteristic-subset
    shrinkage (Sec 4.2) and requires ``reference_subset_size`` — the
    ``average_subset_size`` recorded in the :class:`EmbedReport`.

    ``workers`` > 1 cuts the stream into contiguous spans (``spans``,
    default one per worker), scans them in a process pool and merges the
    vote buckets exactly (they are additive — see
    :mod:`repro.core.parallel_detect` for the merge law and the
    span-boundary warmup caveat).
    """
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        raise ParameterError("cannot detect in an empty stream")
    params = params or WatermarkParams()
    if transform_degree == "auto":
        if reference_subset_size is None:
            raise ParameterError(
                "transform_degree='auto' requires reference_subset_size "
                "(the EmbedReport's average_subset_size)"
            )
        rho = estimate_degree(reference_subset_size, array,
                              params.prominence, params.delta)
    else:
        rho = float(transform_degree)
    if (workers is not None and workers > 1) or \
            (spans is not None and spans > 1):
        from repro.core.parallel_detect import detect_watermark_spans

        return detect_watermark_spans(
            array, wm_length, key, params=params, encoding=encoding,
            transform_degree=rho, require_labels=require_labels,
            encoding_options=encoding_options,
            spans=spans if spans is not None else (workers or 1),
            workers=workers)
    detector = StreamDetector(wm_length, key, params=params,
                              encoding=encoding, transform_degree=rho,
                              require_labels=require_labels,
                              encoding_options=encoding_options)
    detector.run(array, chunk_size=chunk_size)
    return detector.result()
