// The instances of CRC-32 behind scwc::crc32, for the oracle and the
// micro-benchmark. Every caller outside tests goes through crc32(), which
// runs the best instance this CPU supports; tests run every supported
// instance against a bit-at-a-time reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace scwc {

/// One compiled instance: the same function as crc32(), seed included.
struct Crc32Kernel {
  const char* name;  ///< "pclmul" or "slice8"
  std::uint32_t (*crc)(const void* data, std::size_t size,
                       std::uint32_t seed) noexcept;
  bool supported;  ///< this CPU can run it
};

/// Every instance built into this binary, best first. The last is
/// slice-by-8, which every CPU supports.
std::span<const Crc32Kernel> crc32_kernels();

/// The first supported entry of crc32_kernels(), chosen on first use.
const Crc32Kernel& best_crc32_kernel();

}  // namespace scwc
