
#include "base/logging.h"
Result<bool> ProbeJoinIter::NextBatch(Chunk* out) {
  PASCALR_LOG_WARNING << "chunk";
  return false;
}
