"""The live ASCII observability dashboard (``socrates obs top``).

Renders a :class:`~repro.obs.metrics.MetricsRegistry` (plus, when
available, the tracer and adaptation audit log) as a compact terminal
view built on :mod:`repro.viz.ascii`:

* engine cache hit rates as fill meters;
* evaluation throughput (points/s over the traced interval);
* adaptation-switch count and the most recent switch reason;
* every histogram instrument as per-bucket bars.

:func:`render_dashboard` is a pure function returning one frame as a
string — the tests and ``--once`` snapshot mode (CI logs) use it
directly.  :func:`live_dashboard` redraws frames in place with ANSI
clear codes until the workload finishes.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional

from repro.obs.audit import AdaptationAuditLog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.viz.ascii import bucket_bars, meter

#: ANSI: clear screen + home cursor.
_CLEAR = "\x1b[2J\x1b[H"


def _gauge_value(metrics: MetricsRegistry, name: str) -> Optional[float]:
    instrument = metrics.get(name)
    if isinstance(instrument, (Gauge, Counter)):
        return instrument.value
    return None


def _hit_rate_line(
    metrics: MetricsRegistry, cache: str, width: int
) -> Optional[str]:
    hits = _gauge_value(metrics, f"socrates_engine_{cache}_hits")
    misses = _gauge_value(metrics, f"socrates_engine_{cache}_misses")
    if hits is None and misses is None:
        # live counters (registered by the engine) as a fallback
        hits = _gauge_value(metrics, f"socrates_engine_{cache}_cache_hits_total")
        misses = _gauge_value(
            metrics, f"socrates_engine_{cache}_cache_misses_total"
        )
    if hits is None or misses is None:
        return None
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    return (
        f"  {cache:8s} "
        + meter(rate, width=width)
        + f"  ({hits:g} hits / {lookups:g} lookups)"
    )


def _energy_section(metrics: MetricsRegistry, width: int) -> List[str]:
    """The virtual-RAPL meter rows: per-domain joules (summed over
    kernels) as share-of-package fill meters, with mean watts when the
    ``socrates_power_watts`` gauges are present."""
    energy: dict = {}
    power: dict = {}
    for instrument in metrics.instruments():
        if not isinstance(instrument, (Counter, Gauge)):
            continue
        domain = dict(instrument.labels).get("domain")
        if domain is None:
            continue
        if instrument.name == "socrates_energy_joules_total":
            energy[domain] = energy.get(domain, 0.0) + instrument.value
        elif instrument.name == "socrates_power_watts":
            power[domain] = power.get(domain, 0.0) + instrument.value
    if not energy:
        return []
    package_j = energy.get("package", 0.0)
    lines = ["", "energy (virtual RAPL)"]
    for domain in ("package", "core", "uncore", "dram"):
        if domain not in energy:
            continue
        share = energy[domain] / package_j if package_j > 0 else 0.0
        suffix = f"  {energy[domain]:.2f} J"
        if domain in power:
            suffix += f"  ({power[domain]:.1f} W avg)"
        lines.append(f"  {domain:8s} " + meter(share, width=width) + suffix)
    return lines


def _histogram_section(instrument: Histogram, width: int) -> List[str]:
    labels = [f"<={boundary:g}" for boundary in instrument.boundaries] + ["+Inf"]
    lines = [
        f"  {instrument.labelled_name}: "
        f"n={instrument.count} sum={instrument.total:.4g} "
        f"mean={instrument.mean:.4g}"
    ]
    lines.extend(
        "    " + line
        for line in bucket_bars(
            labels, instrument.bucket_counts, width=width
        ).splitlines()
    )
    return lines


def render_dashboard(
    metrics: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    audit: Optional[AdaptationAuditLog] = None,
    width: int = 72,
    frame: Optional[int] = None,
) -> str:
    """One dashboard frame as a string (no printing, no ANSI codes)."""
    bar_width = max(10, min(32, width - 44))
    title = "SOCRATES observability"
    if frame is not None:
        title += f" — frame {frame}"
    lines: List[str] = [title, "=" * min(width, len(title) + 8)]

    spans = tracer.spans if tracer is not None else []
    summary = f"instruments: {len(metrics)}"
    if tracer is not None:
        summary += f"   spans: {len(spans)}"
    if audit is not None:
        summary += f"   adaptation switches: {len(audit)}"
    lines.append(summary)

    cache_lines = [
        line
        for cache in ("compile", "profile", "truth")
        for line in [_hit_rate_line(metrics, cache, bar_width)]
        if line is not None
    ]
    if cache_lines:
        lines.append("")
        lines.append("engine caches")
        lines.extend(cache_lines)

    points = _gauge_value(metrics, "socrates_engine_points_evaluated")
    if points is None:
        points = _gauge_value(metrics, "socrates_engine_points_evaluated_total")
    if points is not None:
        rate = ""
        if spans:
            elapsed = max(span.end_s for span in spans) - min(
                span.start_s for span in spans
            )
            if elapsed > 0:
                rate = f"   ({points / elapsed:,.0f} points/s traced)"
        lines.append("")
        lines.append(f"evaluations: {points:g} design points{rate}")

    if audit is not None and len(audit) > 0:
        last = audit.entries[-1]
        lines.append("")
        lines.append("adaptation")
        lines.append(
            f"  switches: {len(audit)}   last at t={last.timestamp:.1f}s "
            f"under state '{last.state}'"
        )

    lines.extend(_energy_section(metrics, bar_width))

    histograms = [
        instrument
        for instrument in metrics.instruments()
        if isinstance(instrument, Histogram)
    ]
    if histograms:
        lines.append("")
        lines.append("histograms")
        for instrument in histograms:
            lines.extend(_histogram_section(instrument, width=bar_width + 8))

    scalars = [
        instrument
        for instrument in metrics.instruments()
        if isinstance(instrument, (Counter, Gauge))
    ]
    if scalars:
        lines.append("")
        lines.append("counters / gauges")
        name_width = min(48, max(len(s.labelled_name) for s in scalars))
        for instrument in scalars:
            lines.append(
                f"  {instrument.labelled_name:<{name_width}s} "
                f"{instrument.value:g}"
            )
    return "\n".join(lines)


def live_dashboard(
    frame_fn: Callable[[int], str],
    done: Callable[[], bool],
    refresh_s: float = 1.0,
    stream=None,
    max_frames: Optional[int] = None,
) -> int:
    """Redraw ``frame_fn(frame_number)`` until ``done()`` (plus one
    final frame); returns the number of frames drawn."""
    out = stream if stream is not None else sys.stdout
    frames = 0
    while True:
        finished = done()
        out.write(_CLEAR + frame_fn(frames) + "\n")
        out.flush()
        frames += 1
        if finished or (max_frames is not None and frames >= max_frames):
            return frames
        time.sleep(refresh_s)
