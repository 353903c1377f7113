// E7 - transfer-cost-aware device placement (Sec. VI / Fig. 5): for the
// semantic-similarity-join workload across batch sizes, prints the
// estimated execution time on each simulated device (CPU, PCIe GPU-like,
// TPU-like), including kernel startup and model-parameter shipping, and
// the placement optimizer's decision. The crossover batch size is the
// figure's takeaway.

#include <cstdio>

#include "bench/bench_util.h"
#include "hw/device.h"
#include "hw/placement.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

void RunPlacement() {
  bench::PrintHeader(
      "E7 - just-in-time device placement for the similarity join\n"
      "per-device estimate = compute + transfer + startup + model load");

  PlacementOptimizer optimizer(DeviceRegistry::Default());

  std::printf("-- without model shipping (parameters resident) --\n");
  std::printf("%10s %12s %12s %12s %10s\n", "n/side", "cpu[s]", "gpu-sim[s]",
              "tpu-sim[s]", "placed");
  for (std::size_t n = 60; n <= 245760; n *= 4) {
    auto w = SimilarityJoinProfile(n, n, 100);
    auto all = optimizer.EstimateAll(w);
    auto placed = optimizer.Place(w);
    std::printf("%10zu %12.5f %12.5f %12.5f %10s\n", n, all[0].est_seconds,
                all[1].est_seconds, all[2].est_seconds,
                placed.device.name.c_str());
  }

  std::printf("\n-- with 400MB of model parameters shipped per query --\n");
  std::printf("%10s %12s %12s %12s %10s\n", "n/side", "cpu[s]", "gpu-sim[s]",
              "tpu-sim[s]", "placed");
  for (std::size_t n = 60; n <= 245760; n *= 4) {
    auto w = SimilarityJoinProfile(n, n, 100, /*ship_model=*/true,
                                   /*model_bytes=*/400u * 1000 * 1000);
    auto all = optimizer.EstimateAll(w);
    auto placed = optimizer.Place(w);
    std::printf("%10zu %12.5f %12.5f %12.5f %10s\n", n, all[0].est_seconds,
                all[1].est_seconds, all[2].est_seconds,
                placed.device.name.c_str());
  }

  std::printf("\n-- kernel late binding on the host CPU --\n");
  std::printf("cpu: avx2=%s avx512f=%s -> bound variant: %s\n",
              CpuSupportsAvx2() ? "yes" : "no",
              CpuSupportsAvx512() ? "yes" : "no",
              KernelVariantName(BestKernelVariant()));

  std::printf(
      "\nexpected shape: small batches stay on the CPU (startup+transfer\n"
      "dominate); large batches offload; shipping model parameters moves\n"
      "the crossover to larger batch sizes - the Sec. VI placement\n"
      "trade-off.\n");
}

}  // namespace
}  // namespace cre

int main() {
  cre::RunPlacement();
  return 0;
}
