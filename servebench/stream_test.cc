// Checks the request-stream generator: a given (workload, seed, pass)
// serializes byte-identically every time, other seeds and passes differ,
// every document has one writer, and the update-mix deltas replay cleanly
// from each document's parse to its final shadow tree.
//
//   python3 servebench/run.py --test

#include <cstdio>
#include <string>

#include "stream.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace servebench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void CheckUpdates(const Stream& s) {
  bool single_writer = true;
  for (size_t c = 0; c < s.requests.size(); ++c) {
    for (const Request& r : s.requests[c]) {
      if (r.kind != Request::Kind::kUpdate) continue;
      const Update& u = s.updates[static_cast<size_t>(r.index)];
      single_writer = single_writer &&
                      WriterOf(u.doc, s.clients) == static_cast<int>(c);
    }
  }
  Check(single_writer, "update-mix: each document is written by one client");

  bool replays = true;
  for (size_t d = 0; d < s.doc_xml.size(); ++d) {
    xpv::Result<xpv::Tree> doc = xpv::ParseXml(s.doc_xml[d]);
    if (!doc.ok()) {
      replays = false;
      continue;
    }
    for (const xpv::DocumentDelta& delta : s.history[d]) {
      std::string why;
      if (!doc.value().ValidateDelta(delta, &why)) {
        replays = false;
        break;
      }
      // discard: only the mutated tree is compared below.
      (void)doc.value().ApplyDelta(delta);
    }
    replays = replays &&
              xpv::WriteXml(doc.value()) == xpv::WriteXml(s.final_docs[d]);
  }
  Check(replays, "update-mix: every delta validates and the history "
                 "reproduces the final shadow trees");
}

int Main() {
  constexpr int kClients = 4;
  for (const WorkloadSpec* spec : AllWorkloads()) {
    const std::string name = spec->name;
    const std::string a = Serialize(BuildStream(*spec, 7, 0, kClients));
    const std::string b = Serialize(BuildStream(*spec, 7, 0, kClients));
    Check(a == b, name + ": same seed and pass give byte-identical streams (" +
                      std::to_string(a.size()) + " bytes)");
    Check(a != Serialize(BuildStream(*spec, 8, 0, kClients)),
          name + ": another seed gives another stream");
    Check(a != Serialize(BuildStream(*spec, 7, 1, kClients)),
          name + ": another pass gives another stream");
    const Stream s = BuildStream(*spec, 7, 0, kClients);
    Check(s.query_items() > 0, name + ": the stream carries queries");
    if (spec->kind == Workload::kUpdateMix) CheckUpdates(s);
  }
  std::printf("%s\n", failures == 0 ? "stream_test: all passed"
                                    : "stream_test: FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main() { return servebench::Main(); }
