"""Fig. 2 reproduction: blind-rotation fragmentation on the GPU.

Two curves:

* **device-level batching** — the blind-rotation kernel time versus the
  number of ciphertexts steps up by one full kernel time every time the
  count crosses a multiple of the 72 available SMs (Eq. 1–2);
* **core-level batching on the GPU** — assigning several ciphertexts per SM
  does not help: the kernel time grows linearly with the per-SM batch, which
  is exactly why the paper argues for a specialized streaming core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.gpu_model import GpuKernelProfile, NuFheGpuModel
from repro.params import PARAM_SET_I, TFHEParameters


@dataclass(frozen=True)
class FragmentationStudy:
    """The two Fig. 2 curves."""

    parameter_set: str
    device_level: list[GpuKernelProfile]
    core_level: list[GpuKernelProfile]

    def render(self) -> str:
        """Textual rendering of both curves."""
        lines = [
            f"GPU blind-rotation fragmentation (parameter set {self.parameter_set})",
            "  Device-level batching (72 SMs):",
            "    #LWE   fragments   time (ms)   normalized",
        ]
        for point in self.device_level:
            lines.append(
                f"    {point.ciphertexts:5d}   {point.fragments:9d}   "
                f"{point.execution_time_ms:9.1f}   {point.normalized_time:10.2f}"
            )
        lines.append("  Core-level batching emulated on the GPU (per-SM batch):")
        lines.append("    LWE/SM   time (ms)   normalized")
        for point in self.core_level:
            per_core = point.ciphertexts // NuFheGpuModel.STREAMING_MULTIPROCESSORS
            lines.append(
                f"    {per_core:6d}   {point.execution_time_ms:9.1f}   {point.normalized_time:10.2f}"
            )
        return "\n".join(lines)


def gpu_fragmentation_study(
    params: TFHEParameters = PARAM_SET_I,
    max_ciphertexts: int = 288,
    step: int = 8,
    max_lwes_per_core: int = 3,
) -> FragmentationStudy:
    """Reproduce both Fig. 2 curves."""
    gpu = NuFheGpuModel()
    counts = list(range(step, max_ciphertexts + 1, step))
    device_level = gpu.device_level_profile(counts, params)
    core_level = gpu.core_level_profile(list(range(1, max_lwes_per_core + 1)), params)
    return FragmentationStudy(
        parameter_set=params.name, device_level=device_level, core_level=core_level
    )
