"""Text-mode visualization of interleaving schedules.

Renders a :class:`~repro.core.group.JobGroup`'s slot schedule as ASCII
art — the same picture as the paper's Figs. 1, 4, and 6 — and small
utilization sparklines for time series.  Used by the examples and
handy in a REPL when debugging grouping decisions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.group import JobGroup
from repro.core.ordering import slot_durations
from repro.jobs.resources import RESOURCE_ORDER, Resource
from repro.numeric import ordered_sum

__all__ = ["render_group_schedule", "render_sparkline"]

#: Single-character labels for the four resources.
_RESOURCE_CHARS = {
    Resource.STORAGE: "S",
    Resource.CPU: "C",
    Resource.GPU: "G",
    Resource.NETWORK: "N",
}


def render_group_schedule(
    group: JobGroup,
    width: int = 60,
    use_believed: bool = True,
) -> str:
    """Render one interleaved iteration of a group as ASCII art.

    Each row is a job; time flows left to right across one period.
    A letter marks which resource the job's stage in that slot uses
    (S/C/G/N), dots mark the job idling while a slower stage in the
    same slot finishes (the barrier wait).

    Args:
        group: The group to render.
        width: Total characters for one period.
        use_believed: Render from the scheduler's believed profiles
            (default) or the members' true profiles.
    """
    profiles = (
        group.believed_profiles
        if use_believed
        else tuple(job.profile for job in group.jobs)
    )
    k = group.num_resources
    slots = slot_durations(profiles, group.offsets, k)
    period = ordered_sum(slots)
    if period <= 0:
        raise ValueError("cannot render a zero-length period")

    # Column budget per slot, at least 1 for non-empty slots.
    columns: List[int] = []
    for duration in slots:
        columns.append(max(1, round(width * duration / period)) if duration > 0 else 0)

    lines = []
    name_width = max(len(job.name) for job in group.jobs)
    for job, profile, offset in zip(group.jobs, profiles, group.offsets):
        cells: List[str] = []
        for slot_index, slot_width in enumerate(columns):
            if slot_width == 0:
                continue
            resource = Resource((offset + slot_index) % k)
            stage = profile.durations[resource]
            slot_len = slots[slot_index]
            busy_cols = (
                0 if slot_len <= 0
                else max(1 if stage > 0 else 0,
                         round(slot_width * stage / slot_len))
            )
            busy_cols = min(busy_cols, slot_width)
            cells.append(
                _RESOURCE_CHARS[resource] * busy_cols
                + "." * (slot_width - busy_cols)
            )
        lines.append(f"{job.name.ljust(name_width)} |{'|'.join(cells)}|")

    legend = "  ".join(
        f"{_RESOURCE_CHARS[r]}={r.stage_name}" for r in RESOURCE_ORDER
    )
    header = (
        f"period T = {period:.3f}s, efficiency gamma = "
        f"{group.believed_efficiency:.2f}"
    )
    return "\n".join([header] + lines + [legend])


_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def render_sparkline(
    values: Sequence[float],
    maximum: Optional[float] = None,
    width: Optional[int] = None,
) -> str:
    """Render a sequence of values as a unicode sparkline.

    Args:
        values: Non-negative samples.
        maximum: Scale ceiling; defaults to ``max(values)``.
        width: Optional downsampling width (mean-pooled buckets).
    """
    if not values:
        return ""
    samples = list(values)
    if width is not None and width > 0 and len(samples) > width:
        pooled = []
        step = len(samples) / width
        for index in range(width):
            lo = int(index * step)
            hi = max(lo + 1, int((index + 1) * step))
            chunk = samples[lo:hi]
            pooled.append(ordered_sum(chunk) / len(chunk))
        samples = pooled
    ceiling = maximum if maximum is not None else max(samples)
    if ceiling <= 0:
        return _SPARK_LEVELS[0] * len(samples)
    chars = []
    for value in samples:
        level = min(1.0, max(0.0, value / ceiling))
        chars.append(_SPARK_LEVELS[round(level * (len(_SPARK_LEVELS) - 1))])
    return "".join(chars)
