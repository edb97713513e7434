// Layer probes: each times calls into one layer's public functions, in the
// benchmark process, after the fleet has stopped, sized by the run's own
// figures (ops per batch, final slot count, the run's filesystem).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Dist {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;  // nearest rank; the probes take >= 1,000 samples
};

// net.wire: encode_frame + payload encode, and FrameDecoder + payload
// decode, averaged over the request, propose (`batch_ops` ops) and reply
// frames.  Nanoseconds per frame.
struct WireProbe {
  double encode_ns = 0;
  double decode_ns = 0;
};
WireProbe probe_wire(int batch_ops);

// net.reactor: round trip of a request-sized frame between two in-process
// Reactors over loopback.  Microseconds.
Dist probe_reactor_rtt(int round_trips);

// store: ProcessStore::append -> durable_floor covering it, under
// mp_store_options with a GroupCommitter attached, `events_per_round`
// appends per round at a random phase of the commit interval.  Microseconds.
Dist probe_durable_wait(const std::string& dir, int rounds,
                        int events_per_round, std::uint64_t seed);

// svc.svclog: SvcDurableLog::append of a `batch_ops`-op batch.  Microseconds.
Dist probe_svclog_append(const std::string& dir, int appends, int batch_ops);

// svc.log: ReplicatedLog at `slots` slots, every slot applied except a
// window of `inflight` uncommitted ones at the top (the leader's shape
// mid-run).  Per-call microseconds, median of several calls.
struct LogProbe {
  std::size_t slots = 0;
  double accept_us = 0;
  double ack_us = 0;
  double mark_committed_us = 0;
  double ready_us = 0;
  double mark_applied_us = 0;
  double learn_floor_us = 0;
  double uncommitted_us = 0;
};
LogProbe probe_log(std::size_t slots, int batch_ops, int inflight);

}  // namespace perfbench
