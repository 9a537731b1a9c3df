"""Random-number-generation substrate for the test-case application (Fig 4).

Implements, from scratch, every block of the paper's nested gamma RNG:

* :mod:`repro.rng.mersenne` — parameterized Mersenne-Twister (MT19937 and
  the dynamically-created MT521 of Table I),
* :mod:`repro.rng.dynamic_creation` — the parameter search of ref [18],
* :mod:`repro.rng.uniform` — uint32 → float conversions (``uint2float``),
* :mod:`repro.rng.marsaglia_bray` — polar rejection uniform→normal,
* :mod:`repro.rng.box_muller` — trigonometric baseline transform,
* :mod:`repro.rng.erfinv` — Giles' branch-minimized erfinv (ref [20]),
* :mod:`repro.rng.icdf` — CUDA-style and bit-level FPGA-style inverse-CDF
  transforms (Section II-D3),
* :mod:`repro.rng.gamma` — Marsaglia-Tsang rejection gamma RNG (ref [14]).
"""

from repro.rng.mersenne import MersenneTwister, MTParams, MT19937_PARAMS, MT521_PARAMS
from repro.rng.uniform import uint_to_float, uint_to_symmetric, float_to_uint
from repro.rng.marsaglia_bray import (
    MarsagliaBray,
    marsaglia_bray_attempt,
    marsaglia_bray_normals,
    POLAR_ACCEPTANCE,
)
from repro.rng.box_muller import box_muller, box_muller_pair
from repro.rng.erfinv import erfinv, erfcinv
from repro.rng.icdf import (
    icdf_cuda_style,
    icdf_fpga_style,
    IcdfFpga,
    ICDF_FRAC_BITS,
)
from repro.rng.gamma import (
    MarsagliaTsangGamma,
    gamma_attempt,
    gamma_samples,
    marsaglia_tsang_constants,
)

# the statistical battery needs scipy.stats (~1 s to import): load it on
# first use so ``import repro`` stays scipy-free
_BATTERY = ("TestOutcome", "run_battery")


def __getattr__(name):
    if name in _BATTERY:
        from repro.rng import battery

        return getattr(battery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MersenneTwister",
    "MTParams",
    "MT19937_PARAMS",
    "MT521_PARAMS",
    "uint_to_float",
    "uint_to_symmetric",
    "float_to_uint",
    "MarsagliaBray",
    "marsaglia_bray_attempt",
    "marsaglia_bray_normals",
    "POLAR_ACCEPTANCE",
    "box_muller",
    "box_muller_pair",
    "erfinv",
    "erfcinv",
    "icdf_cuda_style",
    "icdf_fpga_style",
    "IcdfFpga",
    "ICDF_FRAC_BITS",
    "MarsagliaTsangGamma",
    "gamma_attempt",
    "gamma_samples",
    "marsaglia_tsang_constants",
    "TestOutcome",
    "run_battery",
]
