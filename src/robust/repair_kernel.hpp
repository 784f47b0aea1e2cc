// The instances of WindowRepairer's accounting-and-repair pass, for the
// oracle and the micro-benchmarks. WindowRepairer::account_and_repair runs
// the best instance this CPU supports; tests run every instance and compare
// them bit for bit with the column-by-column repair.
#pragma once

#include <span>

#include "robust/quality.hpp"
#include "robust/robust_window.hpp"

namespace scwc::robust {

/// One compiled instance. `repair` is account_and_repair through it. Only
/// the 7-sensor width differs between instances, in how each row's
/// missing-value bits are found: every other width runs the baseline code
/// whichever instance is asked.
struct RepairKernel {
  const char* name;  ///< the ISA it was compiled for: "avx2", "sse2"
  void (*repair)(WindowRepairer& repairer, std::span<double> window,
                 std::size_t steps, QualityReport& report) noexcept;
  bool supported;  ///< this CPU can run it
};

/// Every instance built into this binary, best first. The last is the
/// baseline, which every CPU supports.
std::span<const RepairKernel> repair_kernels();

/// The first supported entry of repair_kernels(), chosen on first use.
const RepairKernel& best_repair_kernel();

}  // namespace scwc::robust
