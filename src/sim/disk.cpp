#include "sim/disk.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace mrp::sim {

Disk::Disk(Simulator& sim, DiskParams params) : sim_(sim), params_(params) {
  MRP_CHECK(params.bandwidth_Bps > 0);
}

TimeNs Disk::service_time(std::size_t bytes) const {
  const TimeNs nominal =
      params_.op_latency + static_cast<TimeNs>(static_cast<double>(bytes) /
                                               params_.bandwidth_Bps * 1e9);
  return static_cast<TimeNs>(static_cast<double>(nominal) * slowdown_);
}

void Disk::write(std::size_t bytes, runtime::Task done) {
  const TimeNs start = std::max(sim_.now(), free_at_);
  const TimeNs finish = start + service_time(bytes);
  free_at_ = finish;
  ++writes_;
  bytes_written_ += bytes;
  if (done) sim_.schedule_at(finish, std::move(done));
}

TimeNs Disk::write_completion_time(std::size_t bytes) const {
  return std::max(sim_.now(), free_at_) + service_time(bytes);
}

TimeNs Disk::backlog() const { return std::max<TimeNs>(0, free_at_ - sim_.now()); }

void Disk::stall(TimeNs duration) {
  MRP_CHECK(duration >= 0);
  free_at_ = std::max(sim_.now(), free_at_) + duration;
  ++stalls_;
}

void Disk::set_slowdown(double factor) {
  MRP_CHECK(factor > 0);
  slowdown_ = factor;
}

}  // namespace mrp::sim
