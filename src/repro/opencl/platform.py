"""OpenCL platforms, devices, compute units and processing elements.

Models the hardware structure of Fig 1: a device contains *compute
units*, each subdivided into *processing elements*; work-items are
physically grouped into lockstep hardware partitions (warps on the GPU,
512-bit SIMD lanes on the Xeon Phi, vector lanes on the CPU), while the
FPGA instantiates compute units at design time (Section II-A).

The module ships the paper's exact Section IV-A device catalog
(:data:`PAPER_DEVICES`) so experiments can name devices the way the
paper does: ``CPU``, ``GPU``, ``PHI``, ``FPGA``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "DeviceKind",
    "ComputeUnit",
    "Device",
    "Platform",
    "PAPER_DEVICES",
    "paper_platform",
]


class DeviceKind(enum.Enum):
    """The four accelerator families compared by the paper."""

    CPU = "cpu"
    GPU = "gpu"
    ACCELERATOR = "accelerator"  # Xeon Phi enumerates as this in OpenCL
    FPGA = "fpga"


@dataclass(frozen=True)
class ComputeUnit:
    """One compute unit: a group of processing elements in lockstep
    partitions of ``partition_width`` work-items."""

    processing_elements: int
    partition_width: int

    def __post_init__(self):
        if self.processing_elements < 1:
            raise ValueError("compute unit needs at least one PE")
        if self.partition_width < 1:
            raise ValueError("partition width must be >= 1")
        if self.processing_elements % self.partition_width:
            raise ValueError(
                "processing elements must be a multiple of the partition width"
            )

    @property
    def partitions(self) -> int:
        return self.processing_elements // self.partition_width


@dataclass(frozen=True)
class Device:
    """An OpenCL device with its timing-relevant physical parameters.

    Parameters
    ----------
    name, kind:
        Identity; ``kind`` drives model selection in ``repro.devices``.
    compute_units, compute_unit:
        CU count and per-CU shape.
    frequency_hz:
        Base clock of the processing elements.
    global_memory_bytes:
        Device global memory capacity.
    pcie_bandwidth_bps, pcie_latency_s:
        Host link used for buffer reads/writes (Fig 1).
    group_launch_overhead_s:
        Fixed scheduling cost per work-group — the term that penalizes
        tiny ``localSize`` in Fig 5a.
    """

    name: str
    kind: DeviceKind
    compute_units: int
    compute_unit: ComputeUnit
    frequency_hz: float
    global_memory_bytes: int
    pcie_bandwidth_bps: float = 6.0e9
    pcie_latency_s: float = 10e-6
    group_launch_overhead_s: float = 2e-6
    notes: str = ""

    def __post_init__(self):
        if self.compute_units < 1:
            raise ValueError("device needs at least one compute unit")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def partition_width(self) -> int:
        """Native lockstep width (warp / SIMD lanes)."""
        return self.compute_unit.partition_width

    @property
    def total_processing_elements(self) -> int:
        return self.compute_units * self.compute_unit.processing_elements

    @property
    def peak_attempts_per_second(self) -> float:
        """Upper bound: one single-cycle op per PE per cycle."""
        return self.total_processing_elements * self.frequency_hz

    def pcie_seconds(self, nbytes: int) -> float:
        """Host-link time of one ``nbytes`` buffer transfer."""
        return self.pcie_latency_s + nbytes / self.pcie_bandwidth_bps


@dataclass(frozen=True)
class Platform:
    """An OpenCL platform: a named collection of devices."""

    name: str
    devices: tuple[Device, ...] = field(default_factory=tuple)

    def device(self, name: str) -> Device:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(
            f"no device {name!r} on platform {self.name!r}; "
            f"available: {[d.name for d in self.devices]}"
        )

    def by_kind(self, kind: DeviceKind) -> tuple[Device, ...]:
        return tuple(d for d in self.devices if d.kind == kind)


# ---------------------------------------------------------------------------
# the paper's hardware setup (Section IV-A)
# ---------------------------------------------------------------------------

#: Dual-socket Xeon E5-2670 v3 used *as an accelerator* (the "CPU" setup):
#: 24 cores / 48 threads at 2.3 GHz; OpenCL work-items vectorize onto
#: 8-wide AVX float lanes (the measured optimum localSize in Fig 5a).
_CPU = Device(
    name="CPU",
    kind=DeviceKind.CPU,
    compute_units=24,
    compute_unit=ComputeUnit(processing_elements=8, partition_width=8),
    frequency_hz=2.3e9,
    global_memory_bytes=64 << 30,
    group_launch_overhead_s=0.4e-6,
    notes="2x Intel Xeon E5-2670 v3 (Haswell, 22 nm), 64 GB DDR4",
)

#: Nvidia Tesla K80 (one GK210 die exposed per OpenCL device in the
#: paper's runs): 2496 CUDA cores at 560 MHz base, warps of 32.
_GPU = Device(
    name="GPU",
    kind=DeviceKind.GPU,
    compute_units=26,  # 26 SMX per GK210 x 2 dies
    compute_unit=ComputeUnit(processing_elements=192, partition_width=32),
    frequency_hz=560e6,
    global_memory_bytes=2 * (12 << 30),
    group_launch_overhead_s=1.0e-6,
    notes="Nvidia Tesla K80 (dual GK210, Kepler, 28 nm), 2x 12 GB",
)

#: Intel Xeon Phi 7120P: 61 cores at 1.238 GHz, 512-bit vector unit
#: (16 float lanes) per core.
_PHI = Device(
    name="PHI",
    kind=DeviceKind.ACCELERATOR,
    compute_units=61,
    compute_unit=ComputeUnit(processing_elements=16, partition_width=16),
    frequency_hz=1.238e9,
    global_memory_bytes=16 << 30,
    group_launch_overhead_s=1.5e-6,
    notes="Intel Xeon Phi 7120P (MIC, 22 nm), 16 GB, passive",
)

#: Alpha Data ADM-PCIE-7V3 (Xilinx Virtex-7 XC7VX690T-2), SDAccel kernel
#: clock 200 MHz; 'compute units' are instantiated at design time, so the
#: shape recorded here is the single-work-item pipeline — the number of
#: parallel pipelines comes from the resource model (Table II).
_FPGA = Device(
    name="FPGA",
    kind=DeviceKind.FPGA,
    compute_units=1,
    compute_unit=ComputeUnit(processing_elements=1, partition_width=1),
    frequency_hz=200e6,
    global_memory_bytes=16 << 30,
    group_launch_overhead_s=0.0,
    notes="Alpha Data ADM-PCIE-7V3 (Virtex-7 XC7VX690T-2, 28 nm), 16 GB",
)

#: The Section IV-A catalog, keyed by the paper's setup names.
PAPER_DEVICES: dict[str, Device] = {
    "CPU": _CPU,
    "GPU": _GPU,
    "PHI": _PHI,
    "FPGA": _FPGA,
}


def paper_platform() -> Platform:
    """The SuperMicro 7048GR-TR workstation as one OpenCL platform."""
    return Platform(
        name="SuperMicro 7048GR-TR",
        devices=(PAPER_DEVICES["CPU"], PAPER_DEVICES["GPU"],
                 PAPER_DEVICES["PHI"], PAPER_DEVICES["FPGA"]),
    )
