#include "udc/rt/remote/node_shell.h"

#include <fstream>
#include <sstream>

#include "udc/common/check.h"

namespace udc {

FaultScript load_script(const std::string& path) {
  if (path.empty()) return {};
  std::ifstream in(path);
  UDC_CHECK(in.good(), "node: cannot open fault script file");
  std::ostringstream text;
  text << in.rdbuf();
  return FaultScript::parse(text.str());
}

bool bidirectional_cut(const FaultScript& script, ProcessId self,
                       ProcessId peer, Time now) {
  bool fwd = false;
  bool rev = false;
  for (const PartitionWindow& w : script.partitions) {
    if (now < w.from || now >= w.heal) continue;
    if (w.senders.contains(self) && w.recipients.contains(peer)) fwd = true;
    if (w.senders.contains(peer) && w.recipients.contains(self)) rev = true;
    if (fwd && rev) return true;
  }
  return false;
}

}  // namespace udc
