
#include "base/logging.h"
bool ScanIterator::Open() {
  PASCALR_LOG_WARNING << "slow open";
  return true;
}
bool ScanIterator::Next(Row* out) {
  PASCALR_LOG_FATAL << "invariant";
  return false;
}
Result<bool> ProbeJoinIter::NextBatch(Chunk* out) {
  PASCALR_LOG_FATAL << "invariant";
  return false;
}
