// Process introspection: this process's peak resident set, read from
// /proc/self/status. The city-scale bench and the RSS-ceiling tests
// report and bound memory with it.

#ifndef IPDA_UTIL_PROC_H_
#define IPDA_UTIL_PROC_H_

#include <cstddef>

namespace ipda::util {

// This process's peak resident set (VmHWM) in KiB; 0 when
// /proc/self/status is unavailable.
size_t PeakRssKb();

}  // namespace ipda::util

#endif  // IPDA_UTIL_PROC_H_
