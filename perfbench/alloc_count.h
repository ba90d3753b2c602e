#ifndef P4DB_PERFBENCH_ALLOC_COUNT_H_
#define P4DB_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace p4db::perfbench {

/// Global operator-new counter (alloc_count.cc replaces the operator new /
/// delete family for the benchmark binary). Counting starts disarmed; while
/// disarmed an allocation costs one relaxed load more than malloc.
void SetAllocCounting(bool on);
/// Calls into operator new made while counting was armed.
uint64_t AllocCount();

}  // namespace p4db::perfbench

#endif  // P4DB_PERFBENCH_ALLOC_COUNT_H_
