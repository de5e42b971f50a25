// SingleNodeStore — the repo's MySQL stand-in for the YCSB comparison
// (Figure 4): one strongly consistent server, no replication, no
// coordination cost, and no way to scale horizontally.
//
// Reuses MRP-Store's operation encoding so the same YCSB driver applies.
#pragma once

#include <map>
#include <string>

#include "common/types.hpp"
#include "mrpstore/store.hpp"
#include "runtime/node.hpp"
#include "smr/client.hpp"

namespace mrp::baselines {

class SingleNodeStore : public runtime::Node {
 public:
  explicit SingleNodeStore(runtime::Runtime& rt);

  void on_message(ProcessId from, const runtime::Message& m) override;

  std::size_t size() const { return data_.size(); }
  void preload(std::string key, Bytes value);

  /// Request builders (single target for everything).
  smr::Request read(const std::string& key) const;
  smr::Request update(const std::string& key, Bytes value) const;
  smr::Request insert(const std::string& key, Bytes value) const;
  smr::Request remove(const std::string& key) const;
  smr::Request scan(const std::string& lo, const std::string& hi,
                    std::uint32_t limit = 0) const;

 private:
  smr::Request make(mrpstore::Op op) const;

  std::map<std::string, Bytes> data_;
};

}  // namespace mrp::baselines
