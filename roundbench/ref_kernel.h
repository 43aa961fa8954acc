// Frozen reference kernel: the benchmark's host-speed yardstick.
//
// One unit is a fixed-seed mix of the work a simulated round does most:
// a binary min-heap of timestamps (the event scheduler), an
// open-addressing hash table a few times larger than L2 (per-node and
// per-link state), and a loop of data-dependent branches (protocol
// handlers). Timing a few units next to each timed round measures how
// fast the host is running at that moment; dividing the round's time by
// it removes the host's slow drift from the benchmark's figures.
//
// The kernel depends on nothing but the C++ standard library and is
// compiled with pinned flags, so no change to the simulator can move it.
// Changing this file changes every normalized figure: treat it as frozen.

#ifndef ROUNDBENCH_REF_KERNEL_H_
#define ROUNDBENCH_REF_KERNEL_H_

#include <cstdint>

namespace roundbench {

// Runs `units` reference units and returns a checksum of the work done
// (identical on every call; callers compare it to catch a broken build).
uint64_t RunReferenceUnits(int units);

// Checksum RunReferenceUnits(1) returns when the kernel is intact.
uint64_t ReferenceUnitChecksum();

}  // namespace roundbench

#endif  // ROUNDBENCH_REF_KERNEL_H_
