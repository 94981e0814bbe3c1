#include "amr/snapshot.hpp"

#include <sstream>

namespace tac::amr {

std::string Snapshot::validate_shared_structure() const {
  if (fields.empty()) return "snapshot has no fields";
  const AmrDataset& ref = fields.front();
  for (std::size_t f = 1; f < fields.size(); ++f) {
    const AmrDataset& ds = fields[f];
    if (ds.num_levels() != ref.num_levels()) {
      std::ostringstream os;
      os << "field " << f << " has " << ds.num_levels() << " levels, "
         << "field 0 has " << ref.num_levels();
      return os.str();
    }
    for (std::size_t l = 0; l < ref.num_levels(); ++l) {
      if (!(ds.level(l).dims() == ref.level(l).dims()))
        return "level extent mismatch between fields";
      if (ds.level(l).mask != ref.level(l).mask) {
        std::ostringstream os;
        os << "field " << f << " level " << l
           << " mask differs from field 0";
        return os.str();
      }
    }
  }
  return {};
}

}  // namespace tac::amr
