"""Multi-device timelines: pricing shard-level overlap honestly.

The parallel shard executor runs row-strip shards on N workers, each
modeled as its own simulated GPU.  A :class:`MultiDeviceTimeline` keeps
one per-device clock and distinguishes two launch kinds:

* **per-device** launches (``device=<id>`` in the launch tag — shard
  compute and shard loads) advance only their owner's clock;
* **barrier** launches (no ``device=`` tag — the scheduler pass, the
  combiner, output masking) start at ``max`` of all clocks and advance
  every clock past their end: work that cannot begin before the
  stragglers land and that serializes whatever follows.

``critical_path_ms`` (the max clock) is then the honest modeled
end-to-end time of the overlapped execution, while ``sum_of_work_ms``
is what the same launches would cost executed serially — their ratio is
the modeled speedup, and it can never exceed the device count.  A
shard's load launch is priced on the device whose compute faults it
in.

The usual entry point is :meth:`MultiDeviceTimeline.from_device`, which
*re-partitions an already recorded serial timeline* by its ``device=``
tags — so the multi-device view is derived from the same launch records
the sequential-equivalence checks compare, and a production-mode replay
log reconstructs it identically (replay first, then partition).
"""

from __future__ import annotations

from math import fsum
from typing import Dict, List, Optional

from .device import Device, LaunchRecord
from .spec import GPUSpec, RTX3090

__all__ = ["MultiDeviceTimeline", "device_of_tag"]


def device_of_tag(tag: Optional[str]) -> Optional[int]:
    """The ``device=<id>`` component of a launch tag, or ``None``.

    Tags are ``;``-joined ``key=value`` parts (``shard=3;device=1;
    worker=0``); a launch without a ``device=`` part is a barrier.
    """
    if not tag:
        return None
    for part in tag.split(";"):
        if part.startswith("device="):
            try:
                return int(part[len("device="):])
            except ValueError:
                return None
    return None


class MultiDeviceTimeline:
    """Per-device clocks over a partitioned launch timeline.

    Parameters
    ----------
    n_devices:
        Device (worker) count; clamped up if a submitted launch names a
        higher device id.
    spec:
        Hardware spec shared by every device (the fleet is homogeneous;
        pricing stays identical to the single-device model).
    """

    def __init__(self, n_devices: int = 1, spec: GPUSpec = RTX3090):
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {n_devices}")
        self.spec = spec
        self.devices: List[Device] = [Device(spec)
                                      for _ in range(n_devices)]
        self.clocks: List[float] = [0.0] * n_devices
        #: Every record in submission order with its resolved device id
        #: (``None`` = barrier) and modeled start time.
        self.schedule: List[tuple] = []

    # ------------------------------------------------------------------
    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def _grow_to(self, device_id: int) -> None:
        while device_id >= len(self.devices):
            self.devices.append(Device(self.spec))
            self.clocks.append(0.0)

    def add_record(self, rec: LaunchRecord,
                   device: Optional[int] = None) -> float:
        """Place one already-priced record on the timeline.

        Returns the record's modeled start time.  ``device=None`` is a
        barrier: it starts at the max of all clocks and advances every
        clock past its end.
        """
        ms = rec.ms
        if device is None:
            start = max(self.clocks)
            end = start + ms
            self.clocks = [end] * len(self.clocks)
            self.devices[0].timeline.append(rec)
        else:
            self._grow_to(device)
            start = self.clocks[device]
            self.clocks[device] = start + ms
            self.devices[device].timeline.append(rec)
        self.schedule.append((rec, device, start))
        return start

    def submit(self, name, counters, device: Optional[int] = None,
               tag: Optional[str] = None) -> float:
        """Price a fresh launch on ``device`` (``None`` = barrier)."""
        # homogeneous fleet: every device prices with the same model
        t = self.devices[0].model.evaluate(counters)
        rec = LaunchRecord(name, counters, t, tag)
        return self.add_record(rec, device)

    # ------------------------------------------------------------------
    @classmethod
    def from_device(cls, device: Device,
                    n_devices: Optional[int] = None,
                    spec: Optional[GPUSpec] = None
                    ) -> "MultiDeviceTimeline":
        """Partition a recorded serial timeline by its ``device=`` tags.

        Every record keeps its priced time; only the *placement*
        changes.  ``n_devices`` defaults to ``1 + max`` tagged device
        id (1 when nothing is tagged — a sequential run degenerates to
        all-barrier, so critical path equals sum of work).
        """
        tagged = [device_of_tag(rec.tag) for rec in device.timeline]
        if n_devices is None:
            ids = [d for d in tagged if d is not None]
            n_devices = (max(ids) + 1) if ids else 1
        out = cls(n_devices, spec or device.spec)
        for rec, dev_id in zip(device.timeline, tagged):
            out.add_record(rec, dev_id)
        return out

    # ------------------------------------------------------------------
    @property
    def critical_path_ms(self) -> float:
        """Modeled end-to-end time of the overlapped execution."""
        return max(self.clocks)

    @property
    def sum_of_work_ms(self) -> float:
        """What the same launches cost executed serially."""
        return fsum(rec.ms for rec, _, _ in self.schedule)

    @property
    def modeled_speedup(self) -> float:
        """``sum_of_work / critical_path`` — bounded by the device
        count; 1.0 for an empty timeline."""
        crit = self.critical_path_ms
        return self.sum_of_work_ms / crit if crit > 0 else 1.0

    def per_device_ms(self) -> List[float]:
        """Busy (not wall) ms per device: barriers count on device 0
        where their record lives."""
        return [fsum(r.ms for r in d.timeline) for d in self.devices]

    def device_records(self, device_id: int) -> List[LaunchRecord]:
        return list(self.devices[device_id].timeline)

    def decomposes(self, source: Device) -> Optional[str]:
        """Check this view is an exact partition of ``source``.

        Every source record must appear on exactly one device, in
        source order within its device, with its original pricing.
        Returns a description of the first violation, ``None`` when the
        partition is exact.
        """
        merged = [rec for rec, _, _ in self.schedule]
        if len(merged) != len(source.timeline):
            return (f"partition has {len(merged)} records, source has "
                    f"{len(source.timeline)}")
        for i, (a, b) in enumerate(zip(source.timeline, merged)):
            if a is not b and a != b:
                return (f"record {i} differs: partition has "
                        f"{b.name!r}/{b.tag!r}, source has "
                        f"{a.name!r}/{a.tag!r}")
        placed = sum(len(d.timeline) for d in self.devices)
        if placed != len(source.timeline):
            return (f"devices hold {placed} records, source has "
                    f"{len(source.timeline)}")
        return None

    def report(self) -> Dict:
        """Summary dict for benchmarks and traces."""
        return {
            "n_devices": self.n_devices,
            "launches": len(self.schedule),
            "critical_path_ms": self.critical_path_ms,
            "sum_of_work_ms": self.sum_of_work_ms,
            "modeled_speedup": self.modeled_speedup,
            "per_device_ms": self.per_device_ms(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<MultiDeviceTimeline devices={self.n_devices} "
                f"launches={len(self.schedule)} "
                f"critical={self.critical_path_ms:.3f}ms "
                f"speedup={self.modeled_speedup:.2f}x>")
